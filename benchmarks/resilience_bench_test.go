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
)

// BenchmarkDepSkyDegradedRead prices graceful degradation: the same
// retry-budgeted 256 KiB read against a healthy deployment and against one
// where a cloud throttles 30% of requests at random (the classic flaky
// provider). The quorum fan-out must absorb the flake — the verdict comes
// from the healthy clouds while the flaky one retries off the critical
// path — and the retry budget must bound the extra traffic.
//
// Tracked by benchguard: Degraded ns/op stays within 3x of Healthy (the
// flake must not land on the latency path), and Degraded cloudReq/op stays
// within 2x of Healthy (a 30% flake retried inside a 3-attempt budget adds
// ~15% requests; 2x is the run-away ceiling).
func BenchmarkDepSkyDegradedRead(b *testing.B) {
	for _, mode := range []struct {
		name  string
		flaky bool
	}{
		{"Healthy", false},
		{"Degraded", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			issued := &atomic.Int64{}
			providers := make([]*cloudsim.Provider, 4)
			clients := make([]cloud.ObjectStore, 4)
			for i := range providers {
				providers[i] = cloudsim.NewProvider(cloudsim.Options{
					Name: fmt.Sprintf("c%d", i),
					Seed: int64(i + 1),
				})
				clients[i] = countingStore{ObjectStore: providers[i].MustClient(providers[i].CreateAccount("bench")), n: issued}
			}
			m, err := depsky.New(depsky.Options{Clouds: clients, F: 1})
			if err != nil {
				b.Fatal(err)
			}
			data := bytes.Repeat([]byte{0x7E}, 256<<10)
			if _, err := m.Write(bg, "u", data); err != nil {
				b.Fatal(err)
			}
			if mode.flaky {
				providers[1].SetFaults(cloudsim.FaultSpec{
					Mode:        cloudsim.FaultThrottle,
					Ops:         cloudsim.MaskReads,
					Probability: 0.30,
				})
			}
			ctx := iopolicy.With(bg, iopolicy.Policy{
				Retry: iopolicy.Retry{
					MaxAttempts: 3,
					BackoffBase: 200 * time.Microsecond,
				},
			})
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
			// Cancelled retries from the last iterations settle instantly
			// (instant clouds), but give stragglers a beat before counting.
			time.Sleep(50 * time.Millisecond)
			b.ReportMetric(float64(issued.Load()-beforeReqs)/float64(b.N), "cloudReq/op")
		})
	}
}
