package stream

import (
	"bytes"
	"context"
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// instrumentedFetcher serves a fixed payload chunk by chunk, recording how
// often each chunk was fetched, how many fetches ran concurrently, and
// optionally delaying (or blocking) each fetch.
type instrumentedFetcher struct {
	data      []byte
	chunkSize int
	delay     time.Duration

	mu sync.Mutex
	// block, when non-nil, makes every Fetch wait until the channel is
	// closed (or its ctx is cancelled). Guarded by mu (tests swap it
	// between phases).
	block        chan struct{}
	fetches      map[int]int
	inFlight     int
	maxInFlight  int
	ctxCancelled atomic.Int64
	totalFetches atomic.Int64
	closed       atomic.Bool
	fetchStarted chan struct{} // receives one token per fetch start
}

func newInstrumented(data []byte, chunkSize int) *instrumentedFetcher {
	return &instrumentedFetcher{
		data:         data,
		chunkSize:    chunkSize,
		fetches:      make(map[int]int),
		fetchStarted: make(chan struct{}, 1024),
	}
}

func (f *instrumentedFetcher) Size() int64    { return int64(len(f.data)) }
func (f *instrumentedFetcher) ChunkSize() int { return f.chunkSize }
func (f *instrumentedFetcher) Close() error   { f.closed.Store(true); return nil }

func (f *instrumentedFetcher) setBlock(ch chan struct{}) {
	f.mu.Lock()
	f.block = ch
	f.mu.Unlock()
}

func (f *instrumentedFetcher) Fetch(ctx context.Context, idx int, dst []byte) error {
	f.mu.Lock()
	f.fetches[idx]++
	f.inFlight++
	if f.inFlight > f.maxInFlight {
		f.maxInFlight = f.inFlight
	}
	block := f.block
	f.mu.Unlock()
	f.totalFetches.Add(1)
	select {
	case f.fetchStarted <- struct{}{}:
	default:
	}
	defer func() {
		f.mu.Lock()
		f.inFlight--
		f.mu.Unlock()
	}()
	if block != nil {
		select {
		case <-block:
		case <-ctx.Done():
			f.ctxCancelled.Add(1)
			return ctx.Err()
		}
	}
	if f.delay > 0 {
		select {
		case <-time.After(f.delay):
		case <-ctx.Done():
			f.ctxCancelled.Add(1)
			return ctx.Err()
		}
	}
	start := idx * f.chunkSize
	copy(dst, f.data[start:start+len(dst)])
	return nil
}

func (f *instrumentedFetcher) stats() (perChunk map[int]int, maxInFlight int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[int]int, len(f.fetches))
	for k, v := range f.fetches {
		out[k] = v
	}
	return out, f.maxInFlight
}

// TestPrefetchOverlapsSequentialScan: with readahead enabled, a sequential
// scan fetches upcoming chunks concurrently with consumption, each chunk
// exactly once, and returns the right bytes.
func TestPrefetchOverlapsSequentialScan(t *testing.T) {
	const chunk = 1024
	data := bytes.Repeat([]byte("0123456789abcdef"), 8*chunk/16) // 8 chunks
	f := newInstrumented(data, chunk)
	f.delay = 2 * time.Millisecond
	r := NewReaderOpts(f, Buffers, ReaderOptions{Readahead: 3})
	defer r.Close()

	got := make([]byte, 0, len(data))
	buf := make([]byte, 512)
	for {
		n, err := r.Read(buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, data) {
		t.Fatal("sequential scan returned wrong bytes")
	}
	// Close before inspecting so all prefetches have finished.
	r.Close()
	perChunk, maxInFlight := f.stats()
	for idx, n := range perChunk {
		if n != 1 {
			t.Fatalf("chunk %d fetched %d times, want once", idx, n)
		}
	}
	if len(perChunk) != 8 {
		t.Fatalf("fetched %d distinct chunks, want 8", len(perChunk))
	}
	if maxInFlight < 2 {
		t.Fatalf("max concurrent fetches = %d; prefetch never overlapped the scan", maxInFlight)
	}
}

// TestPrefetchRespectsParallelBound: the readahead window caps concurrent
// prefetches across the whole reader, not per stream. Two interleaved scans
// each ramp a window of their own, so without the cap they would keep up to
// twice the window in flight. Each read is less than a chunk, so the only
// fetch beside the prefetches is the foreground's one chunk (the width of a
// multi-chunk read is TestSpanKeepsAWindowInFlight's to pin).
func TestPrefetchRespectsParallelBound(t *testing.T) {
	const chunk = 512
	data := bytes.Repeat([]byte{0xAA}, 32*chunk)
	f := newInstrumented(data, chunk)
	f.delay = time.Millisecond
	r := NewReaderOpts(f, Buffers, ReaderOptions{Readahead: 2})
	defer r.Close()
	buf := make([]byte, chunk/4)
	for off := int64(0); off < 16*chunk; off += int64(len(buf)) {
		for _, base := range []int64{0, 16 * chunk} {
			if _, err := r.ReadAt(buf, base+off); err != nil {
				t.Fatal(err)
			}
		}
	}
	r.Close()
	perChunk, maxInFlight := f.stats()
	if len(perChunk) != 32 {
		t.Fatalf("fetched %d distinct chunks, want 32", len(perChunk))
	}
	// One foreground fetch + at most 2 prefetches.
	if maxInFlight > 3 {
		t.Fatalf("max concurrent fetches = %d, want <= 3", maxInFlight)
	}
}

// TestRandomReadsDoNotPrefetch: the governor collapses the window on
// non-sequential access, so random reads fetch only what they touch.
func TestRandomReadsDoNotPrefetch(t *testing.T) {
	const chunk = 1024
	data := bytes.Repeat([]byte{0x3C}, 16*chunk)
	f := newInstrumented(data, chunk)
	r := NewReaderOpts(f, Buffers, ReaderOptions{Readahead: 4})
	defer r.Close()

	buf := make([]byte, 64)
	// Far-apart offsets in descending order: never sequential.
	for _, off := range []int64{15 * chunk, 9 * chunk, 4 * chunk, 1 * chunk} {
		if _, err := r.ReadAt(buf, off); err != nil {
			t.Fatal(err)
		}
	}
	r.Close()
	perChunk, _ := f.stats()
	if len(perChunk) > 5 {
		t.Fatalf("random reads touched %d chunks (%v); readahead speculated", len(perChunk), perChunk)
	}
}

// TestPrefetchAbortsOnClose: Close cancels in-flight prefetches promptly
// and only returns once they have exited.
func TestPrefetchAbortsOnClose(t *testing.T) {
	const chunk = 1024
	data := bytes.Repeat([]byte{0x99}, 16*chunk)
	f := newInstrumented(data, chunk)
	firstGate := make(chan struct{})
	f.setBlock(firstGate)
	r := NewReaderOpts(f, Buffers, ReaderOptions{Readahead: 2})

	// Read chunk 0 in the foreground (blocked fetch released per-call is
	// not possible with one shared gate, so run it in a goroutine and
	// release it once the prefetches have started).
	readDone := make(chan error, 1)
	go func() {
		buf := make([]byte, 16)
		_, err := r.ReadAtContext(context.Background(), buf, 0)
		readDone <- err
	}()
	// Wait for the foreground fetch to start, then unblock everything the
	// moment the read returns and prefetches have spawned.
	<-f.fetchStarted
	close(firstGate)
	if err := <-readDone; err != nil {
		t.Fatal(err)
	}

	// Now block subsequent fetches again and trigger prefetches with a
	// second sequential read.
	f.setBlock(make(chan struct{})) // never closed: prefetches hang until cancelled
	buf := make([]byte, 16)
	if _, err := r.ReadAt(buf, 16); err != nil {
		t.Fatal(err) // chunk 0 is cached; this read only triggers prefetch
	}

	// Wait until at least one prefetch is actually in flight.
	select {
	case <-f.fetchStarted:
	case <-time.After(2 * time.Second):
		t.Fatal("prefetch never started")
	}

	done := make(chan struct{})
	go func() { r.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not return; prefetch not aborted")
	}
	if f.ctxCancelled.Load() == 0 {
		t.Fatal("prefetch fetch was not cancelled")
	}
	if !f.closed.Load() {
		t.Fatal("fetcher not closed")
	}
}

// TestPrefetchAbortsOnContextCancel: cancelling the context of the read
// that triggered a prefetch aborts the prefetch too.
func TestPrefetchAbortsOnContextCancel(t *testing.T) {
	const chunk = 1024
	data := bytes.Repeat([]byte{0x42}, 16*chunk)
	f := newInstrumented(data, chunk)
	r := NewReaderOpts(f, Buffers, ReaderOptions{Readahead: 2})
	defer r.Close()

	ctx, cancel := context.WithCancel(context.Background())
	buf := make([]byte, 16)
	if _, err := r.ReadAtContext(ctx, buf, 0); err != nil {
		t.Fatal(err)
	}
	// Block the fetches the prefetch pipeline is about to issue.
	f.setBlock(make(chan struct{}))
	if _, err := r.ReadAtContext(ctx, buf, 16); err != nil {
		t.Fatal(err)
	}
	select {
	case <-f.fetchStarted:
	case <-time.After(2 * time.Second):
		t.Fatal("prefetch never started")
	}
	cancel()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if f.ctxCancelled.Load() > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("prefetch survived the triggering context's cancellation")
}

// TestConcurrentReadersShareOneFetch: two goroutines reading the same cold
// chunk concurrently trigger exactly one fetch.
func TestConcurrentReadersShareOneFetch(t *testing.T) {
	const chunk = 4096
	data := bytes.Repeat([]byte{0x61}, chunk)
	f := newInstrumented(data, chunk)
	f.delay = 5 * time.Millisecond
	r := NewReader(f, Buffers)
	defer r.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 128)
			if _, err := r.ReadAt(buf, 0); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	perChunk, _ := f.stats()
	if perChunk[0] != 1 {
		t.Fatalf("chunk 0 fetched %d times by concurrent readers, want 1", perChunk[0])
	}
}

// TestReadAfterFailedSharedFetchRetries: a waiter joining an in-flight
// fetch that fails retries with its own context instead of inheriting the
// failure.
func TestReadAfterFailedSharedFetchRetries(t *testing.T) {
	const chunk = 1024
	data := bytes.Repeat([]byte{0x10}, chunk)
	f := newInstrumented(data, chunk)
	gate := make(chan struct{})
	f.setBlock(gate)
	r := NewReader(f, Buffers)
	defer r.Close()

	// First reader starts a fetch under a context we cancel.
	ctx1, cancel1 := context.WithCancel(context.Background())
	first := make(chan error, 1)
	go func() {
		buf := make([]byte, 16)
		_, err := r.ReadAtContext(ctx1, buf, 0)
		first <- err
	}()
	<-f.fetchStarted
	// Second reader joins the same in-flight fetch.
	second := make(chan error, 1)
	go func() {
		buf := make([]byte, 16)
		_, err := r.ReadAtContext(context.Background(), buf, 0)
		second <- err
	}()
	cancel1()
	if err := <-first; !errors.Is(err, context.Canceled) {
		t.Fatalf("first reader: %v, want context.Canceled", err)
	}
	// Unblock fetches: the second reader's retry succeeds.
	close(gate)
	if err := <-second; err != nil {
		t.Fatalf("second reader should have retried and succeeded: %v", err)
	}
}
