// Package benchmarks holds the end-to-end data-plane benchmarks tracked
// across PRs: DepSky write and read round-trips against the in-process cloud
// simulator (zero latency, so the numbers isolate the local coding,
// serialization and hashing cost that this repo optimizes). Run them with
//
//	./benchmarks/run.sh
//
// which emits a BENCH_<timestamp>.json alongside the committed
// BENCH_BASELINE.json, or directly with
//
//	go test -bench . -benchmem ./benchmarks ./internal/gf256 ./internal/erasure
package benchmarks

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"scfs/internal/cloud"
	"scfs/internal/cloudsim"
	"scfs/internal/depsky"
)

var bg = context.Background()

func benchManager(b testing.TB, f int, protocol depsky.Protocol) (*depsky.Manager, []*cloudsim.Provider) {
	b.Helper()
	n := 3*f + 1
	providers := make([]*cloudsim.Provider, n)
	clients := make([]cloud.ObjectStore, n)
	for i := range clients {
		providers[i] = cloudsim.NewProvider(cloudsim.Options{Name: fmt.Sprintf("c%d", i)})
		clients[i] = providers[i].MustClient(providers[i].CreateAccount("bench"))
	}
	m, err := depsky.New(depsky.Options{Clouds: clients, F: f, Protocol: protocol})
	if err != nil {
		b.Fatal(err)
	}
	return m, providers
}

// rttManager builds a DepSky manager (f=1) over four clouds that all answer
// after the same round-trip time, for the benchmarks that count round trips.
// With issued non-nil every client counts the requests it issues into it.
func rttManager(b testing.TB, rtt time.Duration, issued *atomic.Int64) *depsky.Manager {
	b.Helper()
	clients := make([]cloud.ObjectStore, 4)
	for i := range clients {
		p := cloudsim.NewProvider(cloudsim.Options{
			Name:    fmt.Sprintf("c%d", i),
			Latency: cloudsim.LatencyProfile{RTT: rtt},
		})
		clients[i] = p.MustClient(p.CreateAccount("bench"))
		if issued != nil {
			clients[i] = countingStore{ObjectStore: clients[i], n: issued}
		}
	}
	m, err := depsky.New(depsky.Options{Clouds: clients, F: 1})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

var rtSizes = []struct {
	name string
	n    int
}{
	{"64KiB", 1 << 16},
	{"1MiB", 1 << 20},
}

func BenchmarkDepSkyWriteCA(b *testing.B) {
	for _, s := range rtSizes {
		b.Run(s.name, func(b *testing.B) {
			m, _ := benchManager(b, 1, depsky.ProtocolCA)
			data := bytes.Repeat([]byte{0xAB}, s.n)
			b.SetBytes(int64(s.n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Write(bg, fmt.Sprintf("u-%d", i), data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDepSkyReadCA(b *testing.B) {
	for _, s := range rtSizes {
		b.Run(s.name, func(b *testing.B) {
			m, _ := benchManager(b, 1, depsky.ProtocolCA)
			data := bytes.Repeat([]byte{0xCD}, s.n)
			if _, err := m.Write(bg, "u", data); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(s.n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, _, err := m.Read(bg, "u")
				if err != nil {
					b.Fatal(err)
				}
				if len(got) != s.n {
					b.Fatal("short read")
				}
			}
		})
	}
}

// BenchmarkDepSkyWriteReadRoundTrip measures a full write-then-read cycle,
// the unit of work SCFS performs per closed-then-reopened file.
func BenchmarkDepSkyWriteReadRoundTrip(b *testing.B) {
	for _, s := range rtSizes {
		b.Run(s.name, func(b *testing.B) {
			m, _ := benchManager(b, 1, depsky.ProtocolCA)
			data := bytes.Repeat([]byte{0xEF}, s.n)
			b.SetBytes(int64(s.n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				unit := fmt.Sprintf("u-%d", i)
				if _, err := m.Write(bg, unit, data); err != nil {
					b.Fatal(err)
				}
				if _, _, err := m.Read(bg, unit); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDepSkyDegradedReadCA reads with f clouds unavailable; the stable
// failure pattern means the erasure coder serves the inverted decode matrix
// from its LRU instead of re-running Gaussian elimination per read.
func BenchmarkDepSkyDegradedReadCA(b *testing.B) {
	m, providers := benchManager(b, 1, depsky.ProtocolCA)
	data := bytes.Repeat([]byte{0x42}, 1<<20)
	if _, err := m.Write(bg, "u", data); err != nil {
		b.Fatal(err)
	}
	providers[0].SetFault(cloudsim.FaultUnavailable)
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, _, err := m.Read(bg, "u")
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != 1<<20 {
			b.Fatal("short read")
		}
	}
}
