package stream

import (
	"bytes"
	"context"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

var bg = context.Background()

func TestPoolRoundTrip(t *testing.T) {
	p := &Pool{}
	sizes := []int{1, 100, 4096, 4097, 1 << 20, (1 << 20) + 1, 1 << 23}
	for _, n := range sizes {
		b := p.Get(n)
		if len(b) != n {
			t.Fatalf("Get(%d) returned len %d", n, len(b))
		}
		p.Put(b)
	}
	// A pooled buffer should be reused for a same-class request.
	b := p.Get(5000)
	for i := range b {
		b[i] = 0xFF
	}
	p.Put(b)
	b2 := p.Get(4097) // same 8 KiB class
	if cap(b2) != 8<<10 {
		t.Fatalf("cap = %d, want %d", cap(b2), 8<<10)
	}
	p.Put(b2)
}

func TestPoolOversizedFallsBack(t *testing.T) {
	p := &Pool{}
	n := (8 << 20) + 1
	b := p.Get(n)
	if len(b) != n {
		t.Fatalf("len = %d", len(b))
	}
	p.Put(b) // must not panic; dropped
}

// memSink collects encoded chunks in order, for round-trip checks.
type memSink struct {
	mu     sync.Mutex
	chunks map[int][]byte
}

func TestRunRoundTripAndHash(t *testing.T) {
	for _, size := range []int{0, 1, 4095, 4096, 4097, 3*4096 + 17} {
		data := make([]byte, size)
		if _, err := rand.Read(data); err != nil {
			t.Fatal(err)
		}
		sink := &memSink{chunks: make(map[int][]byte)}
		res, err := Run(bg, bytes.NewReader(data), Config{ChunkSize: 4096, Window: 2},
			func(idx int, plain []byte) ([]byte, error) {
				return append([]byte(nil), plain...), nil
			},
			func(idx int, enc []byte) error {
				sink.mu.Lock()
				sink.chunks[idx] = enc
				sink.mu.Unlock()
				return nil
			})
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if res.Size != int64(size) {
			t.Fatalf("size %d: res.Size = %d", size, res.Size)
		}
		wantChunks := (size + 4095) / 4096
		if res.Chunks != wantChunks {
			t.Fatalf("size %d: chunks = %d, want %d", size, res.Chunks, wantChunks)
		}
		if res.Sum256 != sha256.Sum256(data) {
			t.Fatalf("size %d: stream hash mismatch", size)
		}
		var got []byte
		for i := 0; i < res.Chunks; i++ {
			got = append(got, sink.chunks[i]...)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("size %d: reassembled bytes differ", size)
		}
	}
}

// TestRunWindowBound verifies the two stage bounds: at most GOMAXPROCS chunks
// are being encoded, at most Window encoded chunks are being stored, and a
// chunk that finished encoding keeps its encode slot until it has a store
// slot, so nothing piles up in between.
func TestRunWindowBound(t *testing.T) {
	const window, chunks = 3, 64
	procs := runtime.GOMAXPROCS(0)
	var encoding, encodingPeak, storing, storingPeak, encoded atomic.Int64
	peak := func(cur int64, p *atomic.Int64) {
		for old := p.Load(); cur > old && !p.CompareAndSwap(old, cur); old = p.Load() {
		}
	}
	// Stores park until the test opens the gate; it does so once the pipeline
	// is full: window chunks parked in store, GOMAXPROCS more encoded behind
	// them, holding their encode slots while they wait for a store slot.
	gate := make(chan struct{})
	parkedStores := make(chan struct{}, chunks)
	encodes := make(chan struct{}, chunks)
	done := make(chan error, 1)
	go func() {
		_, err := Run(bg, bytes.NewReader(make([]byte, chunks*1024)), Config{ChunkSize: 1024, Window: window},
			func(idx int, plain []byte) (struct{}, error) {
				peak(encoding.Add(1), &encodingPeak)
				encoding.Add(-1)
				encoded.Add(1)
				encodes <- struct{}{}
				return struct{}{}, nil
			},
			func(idx int, _ struct{}) error {
				peak(storing.Add(1), &storingPeak)
				parkedStores <- struct{}{}
				<-gate
				storing.Add(-1)
				return nil
			})
		done <- err
	}()
	for range window {
		<-parkedStores
	}
	for range window + procs {
		<-encodes
	}
	if n := encoded.Load(); n != int64(window+procs) {
		t.Fatalf("%d chunks encoded with the store stage full, want window + GOMAXPROCS = %d", n, window+procs)
	}
	if n := storing.Load(); n != window {
		t.Fatalf("%d chunks being stored, want %d", n, window)
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if p := encodingPeak.Load(); p > int64(procs) {
		t.Fatalf("peak chunks being encoded = %d, want <= GOMAXPROCS = %d", p, procs)
	}
	if p := storingPeak.Load(); p > window {
		t.Fatalf("peak chunks being stored = %d, want <= %d", p, window)
	}
	if n := encoded.Load(); n != chunks {
		t.Fatalf("%d chunks encoded, want %d", n, chunks)
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	boom := errors.New("boom")
	data := make([]byte, 10*1024)
	_, err := Run(bg, bytes.NewReader(data), Config{ChunkSize: 1024, Window: 2},
		func(idx int, plain []byte) (int, error) {
			if idx == 4 {
				return 0, boom
			}
			return idx, nil
		},
		func(idx int, _ int) error { return nil })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}

	_, err = Run(bg, bytes.NewReader(data), Config{ChunkSize: 1024},
		func(idx int, plain []byte) (int, error) { return idx, nil },
		func(idx int, _ int) error {
			if idx == 2 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("store err = %v, want %v", err, boom)
	}
}

// chunkMap is a Fetcher over an in-memory byte slice.
type chunkMap struct {
	data      []byte
	chunkSize int
	fetches   atomic.Int64
	failIdx   int // fetch of this chunk fails (-1 = never)
	closed    bool
}

func (c *chunkMap) Size() int64    { return int64(len(c.data)) }
func (c *chunkMap) ChunkSize() int { return c.chunkSize }
func (c *chunkMap) Close() error   { c.closed = true; return nil }
func (c *chunkMap) Fetch(_ context.Context, idx int, dst []byte) error {
	c.fetches.Add(1)
	if idx == c.failIdx {
		return errors.New("fetch failure")
	}
	off := idx * c.chunkSize
	if n := copy(dst, c.data[off:]); n != len(dst) {
		return fmt.Errorf("short chunk %d: %d != %d", idx, n, len(dst))
	}
	return nil
}

func TestReaderReadAtAcrossChunks(t *testing.T) {
	data := make([]byte, 10*1000+123)
	if _, err := rand.Read(data); err != nil {
		t.Fatal(err)
	}
	f := &chunkMap{data: data, chunkSize: 1000, failIdx: -1}
	r := NewReader(f, nil)
	defer r.Close()

	cases := []struct{ off, n int }{
		{0, 10}, {990, 20}, {0, len(data)}, {len(data) - 5, 5}, {2500, 3000},
	}
	for _, c := range cases {
		got := make([]byte, c.n)
		n, err := r.ReadAt(got, int64(c.off))
		if err != nil && err != io.EOF {
			t.Fatalf("ReadAt(%d, %d): %v", c.n, c.off, err)
		}
		if n != c.n {
			t.Fatalf("ReadAt(%d, %d) = %d bytes", c.n, c.off, n)
		}
		if !bytes.Equal(got, data[c.off:c.off+c.n]) {
			t.Fatalf("ReadAt(%d, %d): bytes differ", c.n, c.off)
		}
	}
	// Reads past EOF.
	if _, err := r.ReadAt(make([]byte, 1), int64(len(data))); err != io.EOF {
		t.Fatalf("read at EOF: err = %v", err)
	}
	buf := make([]byte, 100)
	n, err := r.ReadAt(buf, int64(len(data)-40))
	if n != 40 || err != io.EOF {
		t.Fatalf("short tail read = (%d, %v), want (40, EOF)", n, err)
	}
}

func TestReaderSequentialAndSection(t *testing.T) {
	data := make([]byte, 5*512+7)
	if _, err := rand.Read(data); err != nil {
		t.Fatal(err)
	}
	f := &chunkMap{data: data, chunkSize: 512, failIdx: -1}
	r := NewReader(f, nil)
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("sequential read mismatch")
	}
	// Sequential read of n chunks should fetch each chunk exactly once.
	if fetches := f.fetches.Load(); fetches != 6 {
		t.Fatalf("fetches = %d, want 6", fetches)
	}

	f2 := &chunkMap{data: data, chunkSize: 512, failIdx: -1}
	sec := NewReader(f2, nil).Section(bg, 600, 700)
	got, err = io.ReadAll(sec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[600:1300]) {
		t.Fatal("section read mismatch")
	}
	// The section covers chunks 1 and 2 only.
	if fetches := f2.fetches.Load(); fetches != 2 {
		t.Fatalf("section fetches = %d, want 2", fetches)
	}
	if err := sec.Close(); err != nil {
		t.Fatal(err)
	}
	if !f2.closed {
		t.Fatal("closing the section did not close the fetcher")
	}
}

func TestReaderFetchErrorAndClose(t *testing.T) {
	data := make([]byte, 4*256)
	f := &chunkMap{data: data, chunkSize: 256, failIdx: 2}
	r := NewReader(f, nil)
	buf := make([]byte, len(data))
	if _, err := r.ReadAt(buf, 0); err == nil {
		t.Fatal("expected fetch error")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadAt(buf, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("after close: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}
