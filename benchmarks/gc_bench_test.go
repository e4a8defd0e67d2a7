package benchmarks

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"scfs"
	"scfs/internal/cloudsim"
	"scfs/internal/coord"
	"scfs/internal/depspace"
)

// collectRTT is the round trip of every cloud request and every
// coordination access in BenchmarkCollect: long enough that a collection's
// time is its sequential waits, short enough to rebuild the garbage quickly.
const collectRTT = 5 * time.Millisecond

// BenchmarkCollect times one garbage collection over files files that each
// have something to collect: half were overwritten (one old version to
// trim), half unlinked (a file to purge). Clouds and coordination service
// answer in collectRTT. The garbage is rebuilt, untimed, before every
// collection. A collection is three coordination accesses however many
// files changed, and its sweep takes each file in one metadata read, one
// metadata write and one round of object deletes, sixteen files at a time:
// 6 round trips for Files8 and 15 for Files64. Acceptance (benchguard):
// Files64 costs at most 3.5x Files8's ns/op (one access per changed file
// and a four-wide sweep made it 19 against 131 round trips).
func BenchmarkCollect(b *testing.B) {
	for _, files := range []int{8, 64} {
		b.Run(fmt.Sprintf("Files%d", files), func(b *testing.B) {
			stores := make([]scfs.ObjectStore, 4)
			for i := range stores {
				p := cloudsim.NewProvider(cloudsim.Options{Name: fmt.Sprintf("c%d", i), Latency: cloudsim.LatencyProfile{RTT: collectRTT}})
				stores[i] = p.MustClient(p.CreateAccount("user"))
			}
			svc := coord.WithLatency(
				coord.NewDepSpaceService(depspace.NewClient(&depspace.LocalInvoker{Space: depspace.NewSpace()}, "user", nil)),
				coord.LatencyOptions{MinRTT: collectRTT, MaxRTT: collectRTT})
			m, err := scfs.New(bg, scfs.WithClouds(stores...), scfs.WithCoordination(svc),
				scfs.WithDiskCache(b.TempDir(), 0), scfs.WithGC(scfs.GCPolicy{KeepVersions: 1}))
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { _ = m.Close(bg) })
			// garbage gives every file one version more than it keeps, and
			// unlinks the odd ones.
			garbage := func(round int) {
				var wg sync.WaitGroup
				sem := make(chan struct{}, 16)
				for f := 0; f < files; f++ {
					wg.Add(1)
					sem <- struct{}{}
					go func(path string, unlink bool) {
						defer wg.Done()
						defer func() { <-sem }()
						err := scfs.WriteFile(bg, m, path, []byte(fmt.Sprintf("%s round %d", path, round)))
						if err == nil && unlink {
							err = m.Unlink(bg, path)
						}
						if err != nil {
							b.Error(err)
						}
					}(fmt.Sprintf("/f%03d", f), f%2 == 1)
				}
				wg.Wait()
			}
			garbage(-1)
			if _, err := m.Collect(bg); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				garbage(i)
				b.StartTimer()
				rep, err := m.Collect(bg)
				if err != nil {
					b.Fatal(err)
				}
				if want := files / 2; rep.FilesPurged != want {
					b.Fatalf("collection purged %d files, want %d", rep.FilesPurged, want)
				}
			}
		})
	}
}
