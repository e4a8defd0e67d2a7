package benchmarks

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"scfs/internal/cloud"
	"scfs/internal/cloudsim"
	"scfs/internal/depsky"
	"scfs/internal/iopolicy"
	"scfs/internal/seccrypto"
	"scfs/internal/telemetry"
)

// countingStore wraps an ObjectStore and counts the requests actually
// issued by the client — the denominator of per-request cloud fees. Unlike
// the provider-side counter it also sees requests that are cancelled
// mid-flight (issued is issued: hedging saves fees by never issuing, not by
// aborting earlier).
type countingStore struct {
	cloud.ObjectStore
	n *atomic.Int64
}

func (c countingStore) Put(ctx context.Context, name string, data []byte) error {
	c.n.Add(1)
	return c.ObjectStore.Put(ctx, name, data)
}

func (c countingStore) Get(ctx context.Context, name string) ([]byte, error) {
	c.n.Add(1)
	return c.ObjectStore.Get(ctx, name)
}

// hedgedBenchManager builds the skewed deployment of the hedged-read
// benchmark — three instant clouds, one straggler — with request counting
// on every client.
func hedgedBenchManager(b testing.TB, disableCancel, instrumented bool) (*depsky.Manager, []*cloudsim.Provider, []string, *atomic.Int64) {
	b.Helper()
	const stragglerRTT = 5 * time.Millisecond
	issued := &atomic.Int64{}
	providers := make([]*cloudsim.Provider, 4)
	clients := make([]cloud.ObjectStore, 4)
	accounts := make([]string, 4)
	for i := range providers {
		opts := cloudsim.Options{Name: fmt.Sprintf("c%d", i)}
		if i == 3 {
			opts.Latency = cloudsim.LatencyProfile{RTT: stragglerRTT}
		}
		providers[i] = cloudsim.NewProvider(opts)
		accounts[i] = providers[i].CreateAccount("bench")
		clients[i] = countingStore{ObjectStore: providers[i].MustClient(accounts[i]), n: issued}
	}
	opts := depsky.Options{Clouds: clients, F: 1, DisableQuorumCancel: disableCancel}
	if instrumented {
		opts.Metrics = telemetry.NewRegistry()
		opts.Tracer = telemetry.NewTracer(nil)
	}
	m, err := depsky.New(opts)
	if err != nil {
		b.Fatal(err)
	}
	return m, providers, accounts, issued
}

// BenchmarkDepSkyHedgedRead compares three dispatch disciplines for a
// 256 KiB read against the skewed deployment (one straggler cloud):
//
//   - NoCancel: the pre-PR-3 baseline — full fan-out, losers run (and bill)
//     to completion; the straggler's RTT lands on every read's tail.
//   - Immediate: full fan-out with first-quorum-wins cancellation (the
//     default) — the tail is gone but every RPC is still issued.
//   - Hedged: preferred-set-first dispatch (WithHedge-style policy) — the
//     straggler is only contacted if the tracked delay percentile elapses,
//     which on this profile it never does.
//   - HedgedTelemetry: the Hedged discipline with the full telemetry plane
//     enabled (metrics registry + request tracing) — the observability
//     overhead benchmark.
//
// Tracked by benchguard: the Hedged leg must keep the tail-latency win
// (ns/op vs NoCancel) while issuing fewer requests than the Immediate
// fan-out (cloudReq/op) and shipping no more bytes (cloudB/op); the
// HedgedTelemetry leg must stay within 5% ns/op and 2% allocs/op of Hedged.
func BenchmarkDepSkyHedgedRead(b *testing.B) {
	for _, mode := range []struct {
		name          string
		disableCancel bool
		hedged        bool
		instrumented  bool
	}{
		{"Hedged", false, true, false},
		{"HedgedTelemetry", false, true, true},
		{"Immediate", false, false, false},
		{"NoCancel", true, false, false},
	} {
		b.Run(mode.name, func(b *testing.B) {
			m, providers, accounts, issued := hedgedBenchManager(b, mode.disableCancel, mode.instrumented)
			data := bytes.Repeat([]byte{0x42}, 256<<10)
			if _, err := m.Write(bg, "u", data); err != nil {
				b.Fatal(err)
			}
			// Let the write's own stragglers drain, then make the tracker's
			// view of the deployment deterministic (the write already
			// observed all four clouds; the explicit warm-up removes
			// dependence on its timing).
			time.Sleep(50 * time.Millisecond)
			for i := 0; i < 4; i++ {
				rtt := time.Microsecond
				if i == 3 {
					rtt = 5 * time.Millisecond
				}
				for k := 0; k < 32; k++ {
					m.Scoreboard().Record(i, iopolicy.GetOp(0), rtt, nil)
					m.Scoreboard().Record(i, iopolicy.GetOp(256<<10), rtt, nil)
				}
			}
			ctx := bg
			if mode.hedged {
				// The explicit MinDelay keeps the hedge release strictly
				// after the preferred quorum's verdict: without it the
				// tracked-percentile delay rides the 1ms floor, right at
				// this profile's quorum latency, and scheduler noise
				// occasionally fires the hedge into the 5ms straggler —
				// which at small CI iteration counts dominates the ns/op
				// ratios tracked between the hedged legs.
				ctx = iopolicy.With(bg, iopolicy.Policy{
					Hedge: iopolicy.Hedge{Percentile: 0.95, MinDelay: 50 * time.Millisecond},
				})
			}
			bytesOut := func() int64 {
				var total int64
				for i, p := range providers {
					total += p.Usage(accounts[i]).BytesOut
				}
				return total
			}
			beforeBytes := bytesOut()
			beforeReqs := issued.Load()
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, _, err := m.Read(ctx, "u")
				if err != nil {
					b.Fatal(err)
				}
				if len(got) != len(data) {
					b.Fatal("short read")
				}
			}
			b.StopTimer()
			// Un-cancelled stragglers from the last iterations may still be
			// sleeping out their RTT before billing; wait them out so every
			// mode is charged everything it issued.
			time.Sleep(100 * time.Millisecond)
			b.ReportMetric(float64(bytesOut()-beforeBytes)/float64(b.N), "cloudB/op")
			b.ReportMetric(float64(issued.Load()-beforeReqs)/float64(b.N), "cloudReq/op")
		})
	}
}

// BenchmarkStreamSequentialScan measures a cold read of a 16 MiB chunked
// value over clouds with a real (small) RTT, three ways. NoReadahead scans it
// in sub-chunk reads: one round trip per chunk. Readahead4 is the same scan
// with the prefetch pipeline: the fetch+decode of up to 4 upcoming chunks
// overlaps consumption of the current one, so the scan costs ~chunks/(N+1)
// round trips. WholeRead asks for the value in one ReadAt: the reader fetches
// the covering chunks together, stream.Window at a time, so 16 chunks cost 2
// payload rounds — and, unlike readahead, exactly the requests of the
// on-demand scan (cloudReq/op), since nothing is fetched on a guess. Tracked
// by benchguard: Readahead4 must stay well below NoReadahead (the >= 1.5x
// throughput acceptance floor), WholeRead at most 0.35x of it in ns/op and
// 1.0x in cloudReq/op.
func BenchmarkStreamSequentialScan(b *testing.B) {
	const (
		chunkRTT = 5 * time.Millisecond
		scanSize = 16 << 20
	)
	for _, mode := range []struct {
		name      string
		readahead int
		whole     bool
	}{
		{"NoReadahead", 0, false},
		{"Readahead4", 4, false},
		{"WholeRead", 0, true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			issued := &atomic.Int64{}
			m := rttManager(b, chunkRTT, issued)
			data := bytes.Repeat([]byte{0x6B}, scanSize)
			hash := seccrypto.Hash(data)
			if _, err := m.WriteFrom(bg, "u", hash, bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
			ctx := bg
			if mode.readahead > 0 {
				ctx = iopolicy.With(bg, iopolicy.Policy{Readahead: mode.readahead})
			}
			buf := make([]byte, 256<<10)
			if mode.whole {
				buf = make([]byte, scanSize)
			}
			before := issued.Load()
			b.SetBytes(scanSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, _, err := m.OpenMatching(ctx, "u", hash)
				if err != nil {
					b.Fatal(err)
				}
				var n int64
				if mode.whole {
					var got int
					got, err = r.ReadAtContext(ctx, buf, 0)
					n = int64(got)
				} else {
					n, err = io.CopyBuffer(io.Discard, r, buf)
				}
				if err != nil {
					b.Fatal(err)
				}
				if n != scanSize {
					b.Fatalf("read %d bytes, want %d", n, scanSize)
				}
				r.Close()
			}
			b.StopTimer()
			b.ReportMetric(float64(issued.Load()-before)/float64(b.N), "cloudReq/op")
		})
	}
}
