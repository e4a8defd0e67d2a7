package benchmarks

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"scfs/internal/cloud"
	"scfs/internal/depsky"
	"scfs/internal/seccrypto"
)

// streamSize is the payload the ISSUE tracks for the streaming data plane:
// a 64 MiB write must peak at a few chunk-windows of resident memory
// instead of ~2.5x the file size.
const streamSize = 64 << 20

// BenchmarkDepSkyStreamWriteCA streams a 64 MiB value through the chunked
// pipeline (WriteFrom): bounded-memory encode/hash/upload overlap.
func BenchmarkDepSkyStreamWriteCA(b *testing.B) {
	b.Run("64MiB", func(b *testing.B) {
		m, _ := benchManager(b, 1, depsky.ProtocolCA)
		data := bytes.Repeat([]byte{0xAB}, streamSize)
		hash := seccrypto.Hash(data)
		b.SetBytes(streamSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.WriteFrom(bg, fmt.Sprintf("u-%d", i), hash, bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStreamWrite writes a one-chunk and a four-chunk value over clouds
// with a 20 ms RTT. Every encoded chunk is kept in flight (stream.Window), and
// the descriptor goes up beside the chunks, so both writes are one round
// deep: what the larger one adds is encode time, not round trips. Tracked by
// benchguard: FourChunks stays within 1.3x of OneChunk in ns/op.
func BenchmarkStreamWrite(b *testing.B) {
	const rtt = 20 * time.Millisecond
	for _, mode := range []struct {
		name string
		size int
	}{
		{"OneChunk", 1 << 20},
		{"FourChunks", 4 << 20},
	} {
		b.Run(mode.name, func(b *testing.B) {
			m := rttManager(b, rtt, nil)
			data := bytes.Repeat([]byte{0xC4}, mode.size)
			hash := seccrypto.Hash(data)
			b.SetBytes(int64(mode.size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.WriteFrom(bg, fmt.Sprintf("u-%d", i), hash, bytes.NewReader(data)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDepSkyRangedReadCA reads a 64 KiB range out of a 64 MiB chunked
// unit: only the covering chunk is fetched and decoded.
func BenchmarkDepSkyRangedReadCA(b *testing.B) {
	m, _ := benchManager(b, 1, depsky.ProtocolCA)
	data := bytes.Repeat([]byte{0x5C}, streamSize)
	hash := seccrypto.Hash(data)
	if _, err := m.WriteFrom(bg, "u", hash, bytes.NewReader(data)); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 64<<10)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, _, err := m.OpenMatching(bg, "u", hash)
		if err != nil {
			b.Fatal(err)
		}
		sec := r.Section(bg, int64(i%977)*(64<<10)%streamSize, int64(len(buf)))
		if _, err := io.ReadFull(sec, buf); err != nil {
			b.Fatal(err)
		}
		sec.Close()
	}
}

// discardStore is an ObjectStore that acknowledges writes without keeping
// the payload. The memory-footprint test uses it so the measurement
// isolates the data plane's own allocations (the simulator copies every
// uploaded payload into its object map, which would charge both write paths
// ~2x the payload and drown the comparison).
type discardStore struct{ name string }

func (d *discardStore) Provider() string                          { return d.name }
func (d *discardStore) Account() string                           { return "bench" }
func (d *discardStore) Put(context.Context, string, []byte) error { return nil }
func (d *discardStore) Get(context.Context, string) ([]byte, error) {
	return nil, cloud.ErrNotFound
}
func (d *discardStore) Head(context.Context, string) (cloud.ObjectInfo, error) {
	return cloud.ObjectInfo{}, cloud.ErrNotFound
}
func (d *discardStore) Delete(context.Context, string) error { return nil }
func (d *discardStore) List(context.Context, string) ([]cloud.ObjectInfo, error) {
	return nil, nil
}
func (d *discardStore) SetACL(context.Context, string, []cloud.Grant) error { return nil }
func (d *discardStore) GetACL(context.Context, string) ([]cloud.Grant, error) {
	return nil, nil
}

// discardManager builds a DepSky manager over discarding clouds.
func discardManager(t testing.TB) *depsky.Manager {
	t.Helper()
	clients := make([]cloud.ObjectStore, 4)
	for i := range clients {
		clients[i] = &discardStore{name: fmt.Sprintf("null-%d", i)}
	}
	m, err := depsky.New(depsky.Options{Clouds: clients, F: 1, Protocol: depsky.ProtocolCA})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// measureWrite runs fn once and reports (total bytes allocated, sampled
// peak heap growth) during the call.
func measureWrite(b testing.TB, fn func() error) (totalAlloc, peak uint64) {
	b.Helper()
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	var stop atomic.Bool
	peakCh := make(chan uint64, 1)
	go func() {
		var ms runtime.MemStats
		var maxHeap uint64
		for !stop.Load() {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > maxHeap {
				maxHeap = ms.HeapAlloc
			}
			time.Sleep(200 * time.Microsecond)
		}
		peakCh <- maxHeap
	}()
	err := fn()
	stop.Store(true)
	if err != nil {
		b.Fatal(err)
	}
	maxHeap := <-peakCh
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	totalAlloc = after.TotalAlloc - before.TotalAlloc
	if maxHeap > before.HeapAlloc {
		peak = maxHeap - before.HeapAlloc
	}
	return totalAlloc, peak
}

// TestStreamedWriteMemoryFootprint is the acceptance check of the one write
// pipeline, for both entry points: a 64 MiB write allocates less than the
// value's own size (measured ~32 MiB with a cold buffer pool: a window of
// chunks, their ciphertext, shards and frames, recycled through the shared
// pool), where materializing ciphertext + shards + frames of the whole value
// took ~4x of it.
func TestStreamedWriteMemoryFootprint(t *testing.T) {
	data := bytes.Repeat([]byte{0xEE}, streamSize)
	for name, write := range map[string]func(*depsky.Manager) error{
		"Write": func(m *depsky.Manager) error {
			_, err := m.Write(bg, "u", data)
			return err
		},
		"WriteFrom": func(m *depsky.Manager) error {
			_, err := m.WriteFrom(bg, "u", seccrypto.Hash(data), bytes.NewReader(data))
			return err
		},
	} {
		m := discardManager(t)
		alloc, peak := measureWrite(t, func() error { return write(m) })
		t.Logf("%s: %.1f MiB allocated, ~%.1f MiB peak heap growth", name, mib(alloc), mib(peak))
		if raceEnabled {
			// The race detector instruments every allocation with shadow
			// state, which the many small pooled buffers crossing
			// goroutines inflate: the bound would measure the detector,
			// not the pipeline. The write still ran, so the pipeline
			// itself stays race-checked.
			continue
		}
		if alloc >= streamSize {
			t.Errorf("%s of %d MiB allocated %.1f MiB, want less than the value's size", name, streamSize>>20, mib(alloc))
		}
	}
}

func mib(n uint64) float64 { return float64(n) / (1 << 20) }
