package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"scfs/internal/iopolicy"
	"scfs/internal/telemetry"
)

// Fetcher yields decoded plaintext chunks of a chunked object. Implementations
// are expected to verify integrity per chunk and to reconstruct missing
// shards when sources are faulty; Reader only does the byte-range
// bookkeeping.
type Fetcher interface {
	// Size is the total plaintext length in bytes.
	Size() int64
	// ChunkSize is the plaintext bytes per chunk (every chunk but the last
	// holds exactly ChunkSize bytes).
	ChunkSize() int
	// Fetch decodes chunk idx into dst, which has exactly the chunk's
	// plaintext length. It must not retain dst. Cancelling ctx aborts the
	// fetch promptly with ctx.Err(). Fetch may be called concurrently for
	// different chunks.
	Fetch(ctx context.Context, idx int, dst []byte) error
	// Close releases fetcher resources.
	Close() error
}

// ErrClosed is returned by Reader methods after Close.
var ErrClosed = errors.New("stream: reader is closed")

// readerCacheSlots is the minimum number of decoded chunks a Reader keeps.
// One slot serves a single sequential scan; a few more keep interleaved
// readers at different offsets (several handles share one Reader in the
// SCFS agent) from evicting each other's chunk on every alternation. A
// reader with readahead keeps at least its full prefetch window plus the
// chunk being consumed.
const readerCacheSlots = 4

// cachedChunk is one filled cache slot.
type cachedChunk struct {
	idx  int
	buf  []byte // pooled
	used int64  // access stamp for LRU eviction
	// prefetched marks a slot deposited by the readahead pipeline that no
	// foreground read has consumed yet; the first lookup counts it as a
	// prefetch hit and clears the mark.
	prefetched bool
}

// ReaderMetrics are the optional prefetch instruments of a Reader. Every
// field is a nil-safe telemetry instrument, so a zero ReaderMetrics (or any
// subset of fields) disables exactly that measurement.
type ReaderMetrics struct {
	// PrefetchLaunched counts background chunk fetches started.
	PrefetchLaunched *telemetry.Counter
	// PrefetchHits counts prefetched chunks later consumed by a foreground
	// read (each chunk at most once) — the wins of the speculation.
	PrefetchHits *telemetry.Counter
	// PrefetchAborted counts prefetches whose fetch failed or was cancelled
	// (reader closed, triggering read cancelled) — the speculation wasted.
	PrefetchAborted *telemetry.Counter
	// Window tracks the governor's latest readahead window decision.
	Window *telemetry.Gauge
	// Inflight tracks how many prefetches are running right now.
	Inflight *telemetry.Gauge
}

// inflightChunk tracks one chunk fetch in progress, so concurrent readers
// (and the prefetch pipeline) of the same chunk share a single fetch.
type inflightChunk struct {
	done chan struct{} // closed when the fetch finished (deposited or failed)
}

// ReaderOptions configures the optional readahead pipeline of a Reader.
type ReaderOptions struct {
	// Readahead is the maximum number of chunks prefetched ahead of a
	// sequential consumer (0 disables prefetch). The effective window ramps
	// up from 1 only while the access pattern stays sequential and collapses
	// on the first seek, so random readers never pay for speculation.
	// It also bounds how many prefetches run concurrently.
	Readahead int
	// BaseContext is the context prefetches derive their values (e.g. the
	// I/O policy) from; their cancellation is governed by the reader's
	// lifetime and the triggering read's context. Defaults to
	// context.Background().
	BaseContext context.Context
	// Metrics instruments the readahead pipeline (zero value: unmetered).
	Metrics ReaderMetrics
}

// Reader provides io.Reader, io.ReaderAt and io.Closer over a Fetcher. A
// read fetches the chunks covering its range together, up to Window at a
// time: the width of a transfer comes from the request, so a read of a whole
// file costs one payload round, not one per chunk. A chunk the read covers
// entirely is decoded straight into the caller's slice; a partially covered
// one goes through a small cache of the most recently used chunks, so
// sequential sub-chunk reads and clustered random reads fetch each chunk
// once, and callers touching the same chunk share one fetch. With
// ReaderOptions.Readahead set a sequential scan also prefetches upcoming
// chunks while the current one is being consumed. It is safe for concurrent
// use.
type Reader struct {
	f     Fetcher
	pool  *Pool
	slotN int

	// Readahead pipeline (nil/zero when disabled).
	govern *iopolicy.Governor
	// lifeCtx is the reader's lifetime, cancelled by Close.
	lifeCtx    context.Context
	lifeCancel context.CancelFunc
	prefetchWG sync.WaitGroup
	metrics    ReaderMetrics

	// seqMu serializes sequential Reads so concurrent Reads consume
	// disjoint ranges even though the fetches themselves run outside mu.
	seqMu sync.Mutex

	mu          sync.Mutex
	slots       []cachedChunk
	inflight    map[int]*inflightChunk
	prefetching int
	tick        int64
	off         int64 // sequential position for Read
	closed      bool
}

// NewReader wraps a fetcher with no readahead. A nil pool uses the shared
// Buffers pool.
func NewReader(f Fetcher, pool *Pool) *Reader {
	return NewReaderOpts(f, pool, ReaderOptions{})
}

// NewReaderOpts wraps a fetcher with the given readahead configuration.
func NewReaderOpts(f Fetcher, pool *Pool, opts ReaderOptions) *Reader {
	if pool == nil {
		pool = Buffers
	}
	r := &Reader{f: f, pool: pool, slotN: readerCacheSlots, inflight: make(map[int]*inflightChunk), metrics: opts.Metrics}
	if opts.Readahead > 0 {
		r.govern = iopolicy.NewGovernor(opts.Readahead)
		// The cache must hold the whole prefetch window plus the chunk
		// being consumed, or prefetched chunks would evict each other.
		if want := opts.Readahead + 2; want > r.slotN {
			r.slotN = want
		}
		base := opts.BaseContext
		if base == nil {
			base = context.Background()
		}
		r.lifeCtx, r.lifeCancel = context.WithCancel(base)
	}
	return r
}

// Size returns the total plaintext length.
func (r *Reader) Size() int64 { return r.f.Size() }

// chunkLen returns the plaintext length of chunk idx.
func (r *Reader) chunkLen(idx int) int {
	cs := int64(r.f.ChunkSize())
	rem := r.f.Size() - int64(idx)*cs
	if rem > cs {
		return int(cs)
	}
	return int(rem)
}

// lookupLocked returns the cached buffer of chunk idx. Called with mu held.
func (r *Reader) lookupLocked(idx int) ([]byte, bool) {
	for i := range r.slots {
		if r.slots[i].idx == idx {
			r.tick++
			r.slots[i].used = r.tick
			if r.slots[i].prefetched {
				r.slots[i].prefetched = false
				r.metrics.PrefetchHits.Inc()
			}
			return r.slots[i].buf, true
		}
	}
	return nil, false
}

// touchLocked refreshes chunk idx's LRU stamp if cached, without counting a
// prefetch hit (the readahead pipeline peeks at the cache; only foreground
// lookups are hits). Called with mu held.
func (r *Reader) touchLocked(idx int) bool {
	for i := range r.slots {
		if r.slots[i].idx == idx {
			r.tick++
			r.slots[i].used = r.tick
			return true
		}
	}
	return false
}

// depositLocked installs a fetched chunk into the cache, evicting the least
// recently used slot if full. prefetched marks chunks the readahead pipeline
// deposited. Called with mu held.
func (r *Reader) depositLocked(idx int, buf []byte, prefetched bool) {
	r.tick++
	entry := cachedChunk{idx: idx, buf: buf, used: r.tick, prefetched: prefetched}
	if len(r.slots) < r.slotN {
		r.slots = append(r.slots, entry)
		return
	}
	victim := 0
	for i := range r.slots {
		if r.slots[i].used < r.slots[victim].used {
			victim = i
		}
	}
	r.pool.Put(r.slots[victim].buf[:cap(r.slots[victim].buf)])
	r.slots[victim] = entry
}

// withChunk makes chunk idx resident and calls use(buf) with the chunk's
// contents while the cache entry is pinned under mu (use must copy out and
// not retain buf). It joins an in-flight fetch of the same chunk when one
// exists, and starts its own otherwise.
func (r *Reader) withChunk(ctx context.Context, idx int, use func([]byte)) error {
	for {
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			return ErrClosed
		}
		if buf, ok := r.lookupLocked(idx); ok {
			if use != nil {
				use(buf)
			}
			r.mu.Unlock()
			return nil
		}
		if fl := r.inflight[idx]; fl != nil {
			r.mu.Unlock()
			select {
			case <-fl.done:
				// The fetch finished: loop to serve from the cache, or — if
				// it failed or its chunk was already evicted — fetch again
				// under our own context.
				continue
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		fl := &inflightChunk{done: make(chan struct{})}
		r.inflight[idx] = fl
		r.mu.Unlock()

		buf := r.pool.Get(r.chunkLen(idx))
		err := r.f.Fetch(ctx, idx, buf)
		r.mu.Lock()
		delete(r.inflight, idx)
		closed := r.closed
		if err == nil && !closed {
			r.depositLocked(idx, buf, false)
			if use != nil {
				use(buf)
			}
		} else {
			r.pool.Put(buf[:cap(buf)])
		}
		r.mu.Unlock()
		close(fl.done)
		if err != nil {
			return fmt.Errorf("stream: fetching chunk %d: %w", idx, err)
		}
		if closed {
			return ErrClosed
		}
		return nil
	}
}

// copyChunk fills dst with the bytes of chunk idx from offset within on. A
// chunk wanted whole that nobody else has fetched or is fetching is decoded
// straight into dst: the caller holds the bytes, so they take no pooled
// buffer, no second copy and no cache slot. Anything else shares the cache
// and the single-flight map.
func (r *Reader) copyChunk(ctx context.Context, idx, within int, dst []byte) error {
	if within == 0 && len(dst) == r.chunkLen(idx) {
		r.mu.Lock()
		shared := r.closed || r.touchLocked(idx) || r.inflight[idx] != nil
		r.mu.Unlock()
		if !shared {
			if err := r.f.Fetch(ctx, idx, dst); err != nil {
				return fmt.Errorf("stream: fetching chunk %d: %w", idx, err)
			}
			return nil
		}
	}
	return r.withChunk(ctx, idx, func(chunk []byte) { copy(dst, chunk[within:]) })
}

// ReadAt implements io.ReaderAt: it fetches only the chunks covering
// [off, off+len(p)). It is ReadAtContext with a background context; callers
// that can be cancelled should prefer ReadAtContext.
func (r *Reader) ReadAt(p []byte, off int64) (int, error) {
	return r.ReadAtContext(context.Background(), p, off)
}

// ReadAtContext is ReadAt bounded by ctx. The chunks covering the range are
// fetched together (see fetchSpan) and joined before it returns. Cancelling
// ctx aborts the fetches promptly. When the reader was built with readahead,
// a sequential run of reads also prefetches upcoming chunks in the
// background.
func (r *Reader) ReadAtContext(ctx context.Context, p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errors.New("stream: negative offset")
	}
	r.mu.Lock()
	closed := r.closed
	r.mu.Unlock()
	if closed {
		return 0, ErrClosed
	}
	size := r.f.Size()
	if off >= size {
		return 0, io.EOF
	}
	cs := int64(r.f.ChunkSize())
	want := int(min(int64(len(p)), size-off))
	if want == 0 {
		return 0, nil
	}
	// Feed the governor and launch prefetches before fetching the covering
	// chunks: on a sequential scan the upcoming chunks' fetches then overlap
	// the foreground chunks' own fetch, not just their consumption.
	if r.govern != nil {
		r.triggerPrefetch(ctx, off, int64(want), size, cs)
	}
	first, last := int(off/cs), int((off+int64(want)-1)/cs)
	if first == last {
		// A span of one has no sibling to run beside or to cancel.
		if err := r.copyChunk(ctx, first, int(off-int64(first)*cs), p[:want]); err != nil {
			return 0, err
		}
	} else if n, err := r.fetchSpan(ctx, p[:want], off, first, last); err != nil {
		return n, err
	}
	if want < len(p) {
		return want, io.EOF
	}
	return want, nil
}

// fetchSpan fills p, the bytes from off to somewhere in chunk last, by
// fetching chunks first..last together, at most Window of them in flight.
// The first fetch to fail cancels the others, and its error is returned with
// the count of bytes that precede the earliest chunk that did not arrive.
// Every fetch has returned when fetchSpan does.
func (r *Reader) fetchSpan(ctx context.Context, p []byte, off int64, first, last int) (int, error) {
	// The span's context ends with the caller's or at the first failure, not
	// when the read returns: what a fetch leaves running behind a successful
	// return (a fetcher told to let the losers of its quorum race finish) is
	// the fetcher's business.
	sctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	defer context.AfterFunc(ctx, cancel)()
	var (
		cs      = int64(r.f.ChunkSize())
		wg      sync.WaitGroup
		mu      sync.Mutex
		failure error
		failed  = last + 1 // lowest chunk that did not arrive
	)
	fetch := func(idx int) {
		// The chunk's share of p is [lo, hi), from byte within of the chunk.
		lo, within := int64(idx)*cs-off, 0
		if lo < 0 {
			lo, within = 0, int(-lo)
		}
		hi := min(int64(idx+1)*cs-off, int64(len(p)))
		err := sctx.Err()
		if err == nil {
			err = r.copyChunk(sctx, idx, within, p[lo:hi])
		}
		if err == nil {
			return
		}
		mu.Lock()
		if failure == nil {
			failure = err
		}
		failed = min(failed, idx)
		mu.Unlock()
		cancel()
	}
	slots := make(chan struct{}, Window)
	for idx := first; idx <= last; idx++ {
		slots <- struct{}{}
		if idx == last || sctx.Err() != nil {
			// On the caller's goroutine: the last chunk, or the one at which
			// a cancelled span stops launching.
			fetch(idx)
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-slots }()
			fetch(idx)
		}()
	}
	wg.Wait()
	if failure == nil {
		return len(p), nil
	}
	if err := ctx.Err(); err != nil {
		failure = err
	}
	return int(max(int64(failed)*cs-off, 0)), failure
}

// triggerPrefetch feeds the governor with the read being served and starts
// background fetches for the chunks inside the resulting window.
func (r *Reader) triggerPrefetch(ctx context.Context, off, n, size int64, cs int64) {
	window := r.govern.Observe(off, n)
	r.metrics.Window.Set(int64(window))
	if window <= 0 {
		return
	}
	last := int((off + n - 1) / cs)
	maxIdx := int((size - 1) / cs)
	for j := last + 1; j <= last+window && j <= maxIdx; j++ {
		r.startPrefetch(ctx, j)
	}
}

// startPrefetch launches a background fetch of chunk idx unless it is
// cached, already being fetched, or the parallelism bound is reached. The
// fetch is cancelled when the reader closes or the triggering read's
// context is cancelled, and its result lands in the chunk cache for the
// consumer to pick up.
func (r *Reader) startPrefetch(ctx context.Context, idx int) {
	r.mu.Lock()
	if r.closed || r.prefetching >= r.govern.Max() {
		r.mu.Unlock()
		return
	}
	if r.touchLocked(idx) {
		r.mu.Unlock()
		return
	}
	if r.inflight[idx] != nil {
		r.mu.Unlock()
		return
	}
	fl := &inflightChunk{done: make(chan struct{})}
	r.inflight[idx] = fl
	r.prefetching++
	r.prefetchWG.Add(1)
	r.mu.Unlock()
	r.metrics.PrefetchLaunched.Inc()
	r.metrics.Inflight.Add(1)

	// The prefetch runs under the reader's lifetime context (values come
	// from BaseContext, so the prefetch carries the open-time I/O policy)
	// and is additionally cancelled when the read that triggered it is.
	pctx, pcancel := context.WithCancel(r.lifeCtx)
	stop := context.AfterFunc(ctx, pcancel)
	go func() {
		defer r.prefetchWG.Done()
		defer stop()
		defer pcancel()
		buf := r.pool.Get(r.chunkLen(idx))
		err := r.f.Fetch(pctx, idx, buf)
		r.mu.Lock()
		delete(r.inflight, idx)
		r.prefetching--
		r.metrics.Inflight.Add(-1)
		if err == nil && !r.closed {
			r.depositLocked(idx, buf, true)
		} else {
			r.pool.Put(buf[:cap(buf)])
			r.metrics.PrefetchAborted.Inc()
		}
		r.mu.Unlock()
		close(fl.done)
	}()
}

// Read implements io.Reader with an internal sequential offset. The offset
// advance is atomic with the read, so concurrent Reads consume disjoint
// ranges.
func (r *Reader) Read(p []byte) (int, error) {
	r.seqMu.Lock()
	defer r.seqMu.Unlock()
	r.mu.Lock()
	off := r.off
	r.mu.Unlock()
	// io.Reader has no context; cancellable callers use ReadAtContext.
	n, err := r.ReadAtContext(context.Background(), p, off)
	r.mu.Lock()
	r.off = off + int64(n)
	r.mu.Unlock()
	return n, err
}

// Close returns the cached chunks to the pool, aborts outstanding
// prefetches and closes the fetcher. It only returns after every prefetch
// goroutine has finished.
func (r *Reader) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	if r.lifeCancel != nil {
		r.lifeCancel()
	}
	for _, s := range r.slots {
		r.pool.Put(s.buf[:cap(s.buf)])
	}
	r.slots = nil
	r.mu.Unlock()
	r.prefetchWG.Wait()
	return r.f.Close()
}

// Section returns a ReadCloser over [off, off+length) of the reader whose
// reads are bounded by ctx. Closing the section closes the underlying
// reader. Requests beyond the end are truncated.
func (r *Reader) Section(ctx context.Context, off, length int64) io.ReadCloser {
	if off < 0 {
		off = 0
	}
	if max := r.Size() - off; length > max {
		length = max
	}
	if length < 0 {
		length = 0
	}
	bound := &ctxReaderAt{ctx: ctx, r: r}
	return &section{SectionReader: io.NewSectionReader(bound, off, length), r: r}
}

// ctxReaderAt binds a context to a Reader so io.SectionReader (whose ReadAt
// has no context parameter) still propagates cancellation to chunk fetches.
type ctxReaderAt struct {
	ctx context.Context
	r   *Reader
}

// ReadAt implements io.ReaderAt under the bound context.
func (c *ctxReaderAt) ReadAt(p []byte, off int64) (int, error) {
	return c.r.ReadAtContext(c.ctx, p, off)
}

// section is an io.SectionReader that forwards Close to its Reader.
type section struct {
	*io.SectionReader
	r *Reader
}

// Close implements io.Closer.
func (s *section) Close() error { return s.r.Close() }
