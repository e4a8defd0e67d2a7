package stream

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

// parkedFetch is one Fetch a parkingFetcher is holding.
type parkedFetch struct {
	idx     int
	verdict chan error // buffered: the test's answer, nil to serve the chunk
}

// parkingFetcher serves a fixed payload, but every Fetch first announces
// itself on parked and waits for the test's verdict (or its context), so the
// test — not the scheduler — decides which fetches are in flight together.
type parkingFetcher struct {
	data      []byte
	chunkSize int
	parked    chan *parkedFetch

	mu        sync.Mutex
	fetches   map[int]int
	inFlight  int
	peak      int
	cancelled int
}

func newParking(t *testing.T, chunks, chunkSize, tail int) *parkingFetcher {
	t.Helper()
	data := make([]byte, chunks*chunkSize+tail)
	if _, err := rand.Read(data); err != nil {
		t.Fatal(err)
	}
	// The capacity is more than any test here fetches, so a Fetch never
	// blocks announcing itself to a test that stopped listening.
	return &parkingFetcher{data: data, chunkSize: chunkSize, parked: make(chan *parkedFetch, 256), fetches: make(map[int]int)}
}

func (f *parkingFetcher) Size() int64    { return int64(len(f.data)) }
func (f *parkingFetcher) ChunkSize() int { return f.chunkSize }
func (f *parkingFetcher) Close() error   { return nil }

func (f *parkingFetcher) Fetch(ctx context.Context, idx int, dst []byte) error {
	f.mu.Lock()
	f.fetches[idx]++
	f.inFlight++
	f.peak = max(f.peak, f.inFlight)
	f.mu.Unlock()
	p := &parkedFetch{idx: idx, verdict: make(chan error, 1)}
	f.parked <- p
	var err error
	select {
	case err = <-p.verdict:
	case <-ctx.Done():
		// A verdict given before the cancellation still counts.
		select {
		case err = <-p.verdict:
		default:
			err = ctx.Err()
		}
	}
	f.mu.Lock()
	f.inFlight--
	if err != nil && ctx.Err() != nil {
		f.cancelled++
	}
	f.mu.Unlock()
	if err != nil {
		return err
	}
	copy(dst, f.data[idx*f.chunkSize:])
	return nil
}

// await returns the next n fetches to park.
func (f *parkingFetcher) await(t *testing.T, n int) []*parkedFetch {
	t.Helper()
	out := make([]*parkedFetch, 0, n)
	for len(out) < n {
		select {
		case p := <-f.parked:
			out = append(out, p)
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d fetches parked", len(out), n)
		}
	}
	return out
}

func (f *parkingFetcher) counts() (inFlight, peak, cancelled int, fetches map[int]int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fetches = make(map[int]int, len(f.fetches))
	for k, v := range f.fetches {
		fetches[k] = v
	}
	return f.inFlight, f.peak, f.cancelled, fetches
}

func serve(ps []*parkedFetch) {
	for _, p := range ps {
		p.verdict <- nil
	}
}

type readResult struct {
	n   int
	err error
}

func goReadAt(ctx context.Context, r *Reader, p []byte, off int64) chan readResult {
	res := make(chan readResult, 1)
	go func() {
		n, err := r.ReadAtContext(ctx, p, off)
		res <- readResult{n, err}
	}()
	return res
}

// TestSpanFetchesCoveringChunksTogether: a read over four whole chunks has
// all four fetches in flight before any of them is answered.
func TestSpanFetchesCoveringChunksTogether(t *testing.T) {
	const cs = 1024
	f := newParking(t, 4, cs, 0)
	r := NewReader(f, nil)
	defer r.Close()
	got := make([]byte, 4*cs)
	res := goReadAt(bg, r, got, 0)
	serve(f.await(t, 4))
	if rr := <-res; rr.err != nil || rr.n != len(got) || !bytes.Equal(got, f.data) {
		t.Fatalf("ReadAt = %d, %v", rr.n, rr.err)
	}
	if _, _, _, fetches := f.counts(); len(fetches) != 4 || fetches[0]+fetches[1]+fetches[2]+fetches[3] != 4 {
		t.Fatalf("fetches = %v, want each of the four chunks once", fetches)
	}
}

// serveRolling answers total fetches one at a time, starting from the width
// that must already be parked: each fetch answered has to admit exactly one
// more, so width of them are in flight whenever a new one parks.
func (f *parkingFetcher) serveRolling(t *testing.T, width, total int) {
	t.Helper()
	parked := f.await(t, width)
	for started := width; len(parked) > 0; {
		serve(parked[:1])
		parked = parked[1:]
		if started == total {
			continue
		}
		parked = append(parked, f.await(t, 1)...)
		started++
		if inFlight, _, _, _ := f.counts(); inFlight != width {
			t.Fatalf("%d fetches in flight as fetch %d parked, want %d", inFlight, started, width)
		}
	}
}

// TestSpanKeepsAWindowInFlight: a 20-chunk read has Window fetches in flight,
// and each one answered admits exactly one more.
func TestSpanKeepsAWindowInFlight(t *testing.T) {
	const cs, chunks = 256, 20
	f := newParking(t, chunks, cs, 0)
	r := NewReader(f, nil)
	defer r.Close()
	got := make([]byte, chunks*cs)
	res := goReadAt(bg, r, got, 0)
	f.serveRolling(t, Window, chunks)
	if rr := <-res; rr.err != nil || !bytes.Equal(got, f.data) {
		t.Fatalf("ReadAt = %d, %v", rr.n, rr.err)
	}
	if _, peak, _, _ := f.counts(); peak != Window {
		t.Fatalf("peak fetches in flight = %d, want Window = %d", peak, Window)
	}
}

// TestSpanByteExact: what a read returns is exactly the requested range,
// wherever it starts and ends relative to the chunk grid.
func TestSpanByteExact(t *testing.T) {
	const cs = 1000
	data := make([]byte, 10*cs+123)
	if _, err := rand.Read(data); err != nil {
		t.Fatal(err)
	}
	size := len(data)
	for _, tc := range []struct {
		name     string
		off, len int
		wantN    int
		wantErr  error
	}{
		{"inside one chunk", 2*cs + 10, 200, 200, nil},
		{"one whole chunk", 3 * cs, cs, cs, nil},
		{"unaligned head and tail", cs/2 + 1, 3*cs + 7, 3*cs + 7, nil},
		{"chunk-aligned", 2 * cs, 4 * cs, 4 * cs, nil},
		{"aligned head, unaligned tail", 4 * cs, 2*cs + 1, 2*cs + 1, nil},
		{"everything", 0, size, size, nil},
		{"up to the short last chunk", 9 * cs, cs + 123, cs + 123, nil},
		{"across EOF", 8*cs + 5, 5 * cs, 2*cs + 118, io.EOF},
		{"across EOF inside the last chunk", 10*cs + 100, 50, 23, io.EOF},
		{"at EOF", size, 1, 0, io.EOF},
		{"length 0", 3 * cs, 0, 0, nil},
	} {
		r := NewReader(&chunkMap{data: data, chunkSize: cs, failIdx: -1}, nil)
		got := make([]byte, tc.len)
		n, err := r.ReadAt(got, int64(tc.off))
		if n != tc.wantN || err != tc.wantErr {
			t.Fatalf("%s: ReadAt = (%d, %v), want (%d, %v)", tc.name, n, err, tc.wantN, tc.wantErr)
		}
		if !bytes.Equal(got[:n], data[tc.off:tc.off+n]) {
			t.Fatalf("%s: bytes differ", tc.name)
		}
		r.Close()
	}
}

// TestSpanFirstErrorCancelsTheRest: one chunk failing returns its error,
// wrapped with its index; the other fetches see a cancelled context, and
// every one of them has returned by the time the read does.
func TestSpanFirstErrorCancelsTheRest(t *testing.T) {
	const cs = 512
	f := newParking(t, 4, cs, 0)
	r := NewReader(f, nil)
	res := goReadAt(bg, r, make([]byte, 4*cs), 0)
	boom := errors.New("boom")
	for _, p := range f.await(t, 4) {
		if p.idx == 2 {
			p.verdict <- boom
		}
	}
	rr := <-res
	if !errors.Is(rr.err, boom) || !strings.Contains(rr.err.Error(), "chunk 2") {
		t.Fatalf("ReadAt err = %v, want chunk 2's", rr.err)
	}
	if rr.n != 0 {
		t.Fatalf("ReadAt n = %d with chunk 0 cancelled, want 0", rr.n)
	}
	if inFlight, _, cancelled, _ := f.counts(); inFlight != 0 || cancelled != 3 {
		t.Fatalf("after the failed read: %d fetches in flight, %d cancelled; want 0 and 3", inFlight, cancelled)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSpanErrorReportsTheBytesBeforeIt: a failed read counts the bytes of the
// chunks that arrived ahead of the earliest one that did not.
func TestSpanErrorReportsTheBytesBeforeIt(t *testing.T) {
	const cs = 512
	f := newParking(t, 4, cs, 0)
	r := NewReader(f, nil)
	defer r.Close()
	got := make([]byte, 3*cs)
	res := goReadAt(bg, r, got, cs/2)
	parked := f.await(t, 4)
	for _, p := range parked {
		if p.idx < 2 {
			p.verdict <- nil
		}
	}
	for _, p := range parked {
		if p.idx == 2 {
			p.verdict <- errors.New("boom")
		}
	}
	rr := <-res
	if want := 2*cs - cs/2; rr.err == nil || rr.n != want || !bytes.Equal(got[:want], f.data[cs/2:2*cs]) {
		t.Fatalf("ReadAt = %d, %v; want the %d bytes before chunk 2 and its error", rr.n, rr.err, want)
	}
}

// TestSpanCallerCancellation: cancelling the read's context returns ctx.Err()
// once every fetch has returned.
func TestSpanCallerCancellation(t *testing.T) {
	const cs = 512
	f := newParking(t, 4, cs, 0)
	r := NewReader(f, nil)
	defer r.Close()
	ctx, cancel := context.WithCancel(bg)
	res := goReadAt(ctx, r, make([]byte, 4*cs), 0)
	f.await(t, 4)
	cancel()
	if rr := <-res; rr.err != context.Canceled {
		t.Fatalf("ReadAt err = %v, want context.Canceled", rr.err)
	}
	if inFlight, _, cancelled, _ := f.counts(); inFlight != 0 || cancelled != 4 {
		t.Fatalf("after the cancelled read: %d fetches in flight, %d cancelled; want 0 and 4", inFlight, cancelled)
	}
}

// TestSpanCachesOnlyPartialChunks: a chunk the read covers whole is decoded
// into the caller's slice and leaves no cache slot; a partially covered one
// is cached, and its fetch is shared with a concurrent sub-chunk reader.
func TestSpanCachesOnlyPartialChunks(t *testing.T) {
	const cs = 512
	f := newParking(t, 3, cs, 0)
	r := NewReader(f, nil)
	defer r.Close()
	got := make([]byte, 2*cs)
	res := goReadAt(bg, r, got, cs/2) // tail of chunk 0, chunk 1, head of chunk 2
	parked := f.await(t, 3)
	small := make([]byte, 16)
	sub := goReadAt(bg, r, small, 2*cs+4) // joins the fetch of chunk 2
	serve(parked)
	if rr := <-res; rr.err != nil || !bytes.Equal(got, f.data[cs/2:cs/2+2*cs]) {
		t.Fatalf("ReadAt = %d, %v", rr.n, rr.err)
	}
	if rr := <-sub; rr.err != nil || !bytes.Equal(small, f.data[2*cs+4:2*cs+20]) {
		t.Fatalf("sub-chunk ReadAt = %d, %v", rr.n, rr.err)
	}
	r.mu.Lock()
	var cached []int
	for _, s := range r.slots {
		cached = append(cached, s.idx)
	}
	r.mu.Unlock()
	if len(cached) != 2 || cached[0]+cached[1] != 2 || cached[0] == 1 {
		t.Fatalf("cached chunks = %v, want the partial ones, 0 and 2", cached)
	}
	if _, _, _, fetches := f.counts(); fetches[0] != 1 || fetches[1] != 1 || fetches[2] != 1 {
		t.Fatalf("fetches = %v, want one per chunk", fetches)
	}
	// A cached chunk wanted whole is copied, not fetched again.
	whole := make([]byte, cs)
	if _, err := r.ReadAt(whole, 0); err != nil || !bytes.Equal(whole, f.data[:cs]) {
		t.Fatalf("whole read of a cached chunk: %v", err)
	}
	if _, _, _, fetches := f.counts(); fetches[0] != 1 {
		t.Fatalf("chunk 0 fetched %d times, want the cached copy served", fetches[0])
	}
}

// TestSpanOverlappingReads: two multi-chunk reads over overlapping ranges of
// one reader, concurrently, each get their own bytes right (run under -race).
func TestSpanOverlappingReads(t *testing.T) {
	const cs = 256
	data := make([]byte, 12*cs+17)
	if _, err := rand.Read(data); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&chunkMap{data: data, chunkSize: cs, failIdx: -1}, nil)
	defer r.Close()
	var wg sync.WaitGroup
	for _, span := range [][2]int{{0, 7*cs + 5}, {3*cs + 7, len(data)}, {cs / 2, 12 * cs}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				got := make([]byte, span[1]-span[0])
				if _, err := r.ReadAt(got, int64(span[0])); err != nil || !bytes.Equal(got, data[span[0]:span[1]]) {
					t.Errorf("ReadAt [%d, %d): err %v, match %v", span[0], span[1], err, err == nil)
					return
				}
			}
		}()
	}
	wg.Wait()
}
