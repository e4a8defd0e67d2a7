package benchmarks

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"scfs/internal/cloud"
	"scfs/internal/cloudsim"
	"scfs/internal/depsky"
	"scfs/internal/iopolicy"
	"scfs/internal/pricing"
)

// writeBenchManager builds a balanced four-cloud deployment (equal RTT, no
// jitter) named after the paper's providers, so the bundled price table
// applies and the only thing separating the dispatch disciplines is how
// many clouds they upload to.
func writeBenchManager(b testing.TB, disableCancel bool) (*depsky.Manager, []*cloudsim.Provider, []string, *atomic.Int64) {
	b.Helper()
	const rtt = 2 * time.Millisecond
	kinds := cloudsim.CoCKinds()
	issued := &atomic.Int64{}
	providers := make([]*cloudsim.Provider, len(kinds))
	clients := make([]cloud.ObjectStore, len(kinds))
	accounts := make([]string, len(kinds))
	for i, kind := range kinds {
		providers[i] = cloudsim.NewProvider(cloudsim.Options{
			Name:    string(kind),
			Latency: cloudsim.LatencyProfile{RTT: rtt},
		})
		accounts[i] = providers[i].CreateAccount("bench")
		clients[i] = countingStore{ObjectStore: providers[i].MustClient(accounts[i]), n: issued}
	}
	m, err := depsky.New(depsky.Options{
		Clouds:              clients,
		F:                   1,
		DisableQuorumCancel: disableCancel,
		Pricing:             pricing.DefaultTable(),
	})
	if err != nil {
		b.Fatal(err)
	}
	return m, providers, accounts, issued
}

// BenchmarkDepSkyHedgedWrite compares three upload disciplines for a
// 256 KiB DepSky-CA write against a balanced four-cloud deployment:
//
//   - NoCancel: the pre-PR-3 baseline — shards fan out to all n clouds and
//     every upload runs (and bills ingress) to completion.
//   - Immediate: full fan-out with first-quorum-wins cancellation (the
//     default). On a balanced deployment the spare's upload finishes with
//     the quorum, so the cancellation saves essentially nothing: all n
//     shards are shipped.
//   - Hedged: preferred-quorum-first (WithWriteHedge) — shards go to the
//     tracked-fastest n-f clouds, and the spare is parked behind the hedge
//     delay it never reaches. Only n-f shards (and n-f metadata copies) are
//     ever uploaded.
//
// Durability is equal in all three legs: the protocol only ever promises
// the n-f quorum (a version on it survives f faults: n-2f = f+1 shards
// remain), and the metadata union certifies quorum-only versions.
//
// Tracked by benchguard: the Hedged leg must ship <= ~0.78x the ingress
// bytes (cloudB/op; the exact quorum fraction is (n-f)/n = 0.75) and issue
// fewer RPCs (cloudReq/op) than the Immediate fan-out, at comparable
// latency (ns/op). The estimated $/op — the request and transfer fees of
// one write, priced per provider by the bundled table — is reported for
// the ROADMAP's cost trajectory, not guarded: which cloud is parked
// depends on the tracker, not on its price.
func BenchmarkDepSkyHedgedWrite(b *testing.B) {
	for _, mode := range []struct {
		name          string
		disableCancel bool
		hedged        bool
	}{
		{"Hedged", false, true},
		{"Immediate", false, false},
		{"NoCancel", true, false},
	} {
		b.Run(mode.name, func(b *testing.B) {
			m, providers, accounts, issued := writeBenchManager(b, mode.disableCancel)
			data := bytes.Repeat([]byte{0x5C}, 256<<10)
			ctx := bg
			if mode.hedged {
				ctx = iopolicy.With(bg, iopolicy.Policy{
					// A high floor keeps the spare parked through upload
					// jitter; the preferred quorum acks in ~1 RTT, long
					// before the delay could fire.
					WriteHedge: iopolicy.Hedge{Percentile: 0.95, MinDelay: 250 * time.Millisecond},
				})
			}
			table := pricing.DefaultTable()
			snapshot := func() []cloud.Usage {
				out := make([]cloud.Usage, len(providers))
				for i, p := range providers {
					out[i] = p.Usage(accounts[i])
				}
				return out
			}
			// Price the request and transfer fees of the delta between two
			// snapshots (storage byte-hours accrue with wall time, not per
			// write, so they are excluded from the per-op dollars).
			delta := func(before, after []cloud.Usage) (in int64, dollars float64) {
				for i := range providers {
					d := cloud.Usage{
						PutRequests:    after[i].PutRequests - before[i].PutRequests,
						GetRequests:    after[i].GetRequests - before[i].GetRequests,
						DeleteRequests: after[i].DeleteRequests - before[i].DeleteRequests,
						BytesIn:        after[i].BytesIn - before[i].BytesIn,
						BytesOut:       after[i].BytesOut - before[i].BytesOut,
					}
					in += d.BytesIn
					dollars += table.For(providers[i].Name()).UsageCost(d)
				}
				return in, dollars
			}
			// One throwaway write per mode to warm the code paths, then
			// settle the stragglers. Each measured iteration writes a
			// FRESH data unit: re-writing one unit would grow its metadata
			// object linearly with b.N, which skews bytes/op by iteration
			// count and lets two legs with different b.N drift apart; with
			// fresh units every write ships identical bytes and the
			// hedged/full ratio is exactly the quorum fraction (n-f)/n.
			if _, err := m.Write(ctx, "warm", data); err != nil {
				b.Fatal(err)
			}
			time.Sleep(50 * time.Millisecond)
			before := snapshot()
			beforeReqs := issued.Load()
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Write(ctx, fmt.Sprintf("u%d", i), data); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			// Un-cancelled stragglers from the last iterations may still be
			// sleeping out their RTT before billing; wait them out so every
			// mode is charged everything it issued.
			time.Sleep(100 * time.Millisecond)
			in, dollars := delta(before, snapshot())
			b.ReportMetric(float64(in)/float64(b.N), "cloudB/op")
			b.ReportMetric(float64(issued.Load()-beforeReqs)/float64(b.N), "cloudReq/op")
			b.ReportMetric(dollars/float64(b.N), "$/op")
		})
	}
}
