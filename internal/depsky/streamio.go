package depsky

// The chunk data plane: the one write pipeline and the one chunk fetch.
//
// Every write consumes its value in fixed-size chunks and overlaps encrypt →
// erasure-encode → per-shard hash → quorum upload across a small window of
// in-flight chunks (see internal/stream), so neither the ciphertext nor the
// erasure shards of a whole value are ever resident — Write differs from
// WriteFrom only in that its caller already holds the plaintext. Every read
// is a stream.Reader over chunkFetcher.Fetch: Read/ReadMatching read all of a
// version into one buffer and verify the value's hash, Open/OpenRange fetch
// — and, under faults, reconstruct — only the chunks covering the requested
// byte range, reusing the coder's cached decode matrices. All chunk, shard and
// frame buffers come from the process-wide stream.Buffers pool.

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"scfs/internal/cloud"
	"scfs/internal/iopolicy"
	"scfs/internal/seccrypto"
	"scfs/internal/secretshare"
	"scfs/internal/stream"
	"scfs/internal/telemetry"
)

// chunkSize returns the configured chunk size of writes, clamped to
// the wire-protocol cap (readers reject metadata declaring more, so a
// larger configured value would write unreadable versions).
func (m *Manager) chunkSize() int {
	cs := m.opts.ChunkSize
	if cs <= 0 {
		return stream.DefaultChunkSize
	}
	return min(cs, MaxChunkSize)
}

// encodedChunk is the output of the encode pipeline stage for one chunk:
// one framed payload per cloud plus the frame hashes recorded in the
// version metadata.
type encodedChunk struct {
	frames [][]byte
	hashes []string
}

// WriteFrom streams r as the next version of unit. At most GOMAXPROCS chunks
// are being encoded and stream.Window encoded chunks are waiting on their
// quorum upload at any moment, so the peak memory of a write is bounded
// regardless of the stream length (see stream.Window), and a value of up to
// stream.Window chunks uploads in one round; per-shard hashing of one chunk
// runs concurrently with the quorum uploads of earlier chunks. The returned
// VersionInfo carries the SHA-256 of the whole plaintext stream, computed
// incrementally.
//
// Like Write, WriteFrom assumes a single writer per data unit (SCFS
// serializes writers via its lock service).
//
// Cancelling ctx aborts the in-flight chunk uploads and returns ctx.Err().
// The version metadata is only written after every chunk reached its quorum,
// so a cancelled WriteFrom never anchors a version whose shards were not
// fully uploaded. The chunk objects of a WriteFrom that is aborted or fails
// before its metadata write are invisible to readers — no metadata lists
// their ID — and are deleted, best effort, before it returns; one whose
// metadata write fails keeps them, because some copies may already list the
// version (see writeVersion).
func (m *Manager) WriteFrom(ctx context.Context, unit string, r io.Reader) (VersionInfo, error) {
	ctx, tr := m.opts.Tracer.Start(ctx, "write.stream", unit)
	defer tr.Finish()
	return m.writeVersion(ctx, unit, r)
}

// uploadChunks runs r through the chunk pipeline, storing chunk idx under
// chunkName(unit, id, idx), and returns once every chunk reached its quorum.
// On failure the returned info still carries how many chunks were started,
// which is what discardObjects needs.
func (m *Manager) uploadChunks(ctx context.Context, unit, id string, r io.Reader) (VersionInfo, error) {
	info := VersionInfo{ID: id, Protocol: m.opts.Protocol, ChunkSize: m.chunkSize()}
	var key []byte
	var shares []secretshare.Share
	if m.opts.Protocol == ProtocolCA {
		var err error
		key, err = seccrypto.NewKey()
		if err != nil {
			return VersionInfo{}, err
		}
		shares, err = secretshare.Split(key, m.N(), m.opts.F+1, nil)
		if err != nil {
			return VersionInfo{}, fmt.Errorf("depsky: secret sharing: %w", err)
		}
	}

	var mu sync.Mutex
	var chunkHashes [][]string
	res, err := stream.Run(ctx, r,
		stream.Config{ChunkSize: info.ChunkSize, Pool: stream.Buffers},
		func(idx int, plain []byte) (encodedChunk, error) {
			return m.encodeChunk(idx, plain, key, shares)
		},
		func(idx int, ec encodedChunk) error {
			// Each cloud's frame is recycled the moment that cloud's upload
			// attempt finishes — and since the quorum verdict cancels the
			// straggling uploads, no cloud pins a frame for longer than the
			// quorum round trip (plus the cancellation delivery).
			err := m.writeQuorumHooked(ctx, m.chunkName(unit, id, idx), "chunk.put",
				func(i int) []byte { return ec.frames[i] },
				func(i int) { stream.Buffers.Put(ec.frames[i]) })
			if err != nil {
				return err
			}
			mu.Lock()
			for len(chunkHashes) <= idx {
				chunkHashes = append(chunkHashes, nil)
			}
			chunkHashes[idx] = ec.hashes
			mu.Unlock()
			return nil
		})
	info.ChunkCount = res.Chunks
	if err != nil {
		return info, err
	}
	info.DataHash = hex.EncodeToString(res.Sum256[:])
	info.Size = int(res.Size)
	info.ChunkHashes = chunkHashes[:res.Chunks]
	return info, nil
}

// encodeChunk builds the per-cloud frames for one plaintext chunk:
// encrypt (CA), erasure-split, frame, hash. Every buffer it touches comes
// from (and returns to) the shared pool; the returned frames are pooled by
// the upload stage once all clouds are done with them.
func (m *Manager) encodeChunk(idx int, plain []byte, key []byte, shares []secretshare.Share) (encodedChunk, error) {
	n := m.N()
	ec := encodedChunk{frames: make([][]byte, n), hashes: make([]string, n)}
	if m.opts.Protocol == ProtocolA {
		for i := 0; i < n; i++ {
			b := block{Full: plain, ShardIdx: i, ChunkIdx: idx, ChunkPlainLen: len(plain)}
			frame := stream.Buffers.Get(frameLen(0, len(plain)))
			encodeFrame(frame, ProtocolA, &b)
			ec.frames[i] = frame
			ec.hashes[i] = seccrypto.Hash(frame)
		}
		return ec, nil
	}

	ctLen := len(plain) + seccrypto.CiphertextOverhead
	ciphertext := stream.Buffers.Get(ctLen)
	defer stream.Buffers.Put(ciphertext)
	if _, err := seccrypto.EncryptInto(ciphertext, key, plain); err != nil {
		return ec, err
	}
	backing := stream.Buffers.Get(m.coder.TotalShards() * m.coder.ShardSize(ctLen))
	defer stream.Buffers.Put(backing)
	shards, err := m.coder.SplitInto(ciphertext, backing)
	if err != nil {
		return ec, fmt.Errorf("depsky: erasure coding chunk %d: %w", idx, err)
	}
	for i := 0; i < n; i++ {
		b := block{
			Shard:         shards[i],
			ShardIdx:      i,
			KeyX:          shares[i].X,
			KeyShare:      shares[i].Data,
			ChunkIdx:      idx,
			ChunkPlainLen: len(plain),
		}
		frame := stream.Buffers.Get(frameLen(len(shares[i].Data), len(shards[i])))
		encodeFrame(frame, ProtocolCA, &b)
		ec.frames[i] = frame
		ec.hashes[i] = seccrypto.Hash(frame)
	}
	return ec, nil
}

// --- ranged reads ---

// Open returns a random-access reader over the newest version of unit,
// fetching only the chunks a read touches. The ctx bounds only the metadata
// lookup performed here; each read through the returned reader carries its
// own context (ReadAtContext / Section).
func (m *Manager) Open(ctx context.Context, unit string) (*stream.Reader, VersionInfo, error) {
	return m.OpenMatching(ctx, unit, "")
}

// OpenMatching is Open for the version whose plaintext hash equals hash
// (the read-by-hash SCFS's consistency anchor needs); an empty hash is Open.
func (m *Manager) OpenMatching(ctx context.Context, unit, hash string) (*stream.Reader, VersionInfo, error) {
	ctx, tr := m.opts.Tracer.Start(ctx, "open", unit)
	defer tr.Finish()
	v, err := m.resolve(ctx, unit, hash)
	if err != nil {
		return nil, VersionInfo{}, err
	}
	return m.openVersion(ctx, unit, v), v.info, nil
}

// ErrWholeObjectOnly is returned by OpenRangedMatching for versions the
// manager cannot serve by per-chunk ranged fetches (entries that are not
// certified): callers should fall back to a whole-value read, which
// verifies the full value hash and can cache the result.
var ErrWholeObjectOnly = errors.New("depsky: version requires the whole-object read path")

// OpenRangedMatching is OpenMatching restricted to genuinely ranged
// serving. The SCFS storage backend uses it so that only reads that
// actually save memory bypass the agent's whole-object caches.
func (m *Manager) OpenRangedMatching(ctx context.Context, unit, hash string) (*stream.Reader, VersionInfo, error) {
	ctx, tr := m.opts.Tracer.Start(ctx, "open", unit)
	defer tr.Finish()
	v, err := m.resolve(ctx, unit, hash)
	if err != nil {
		return nil, VersionInfo{}, err
	}
	if !v.certified {
		return nil, v.info, ErrWholeObjectOnly
	}
	return m.openVersion(ctx, unit, v), v.info, nil
}

// newChunkReader wraps a fetcher in a stream.Reader configured from the
// open-time I/O policy: its chunk limit may narrow the reader's fetches, and
// a readahead request becomes the reader's prefetch window (sized by its
// governor as the access pattern allows). The policy is also stamped on the
// reader's base context, so prefetches issued on the reader's own behalf
// hedge their chunk fan-outs the same way foreground reads do.
func (m *Manager) newChunkReader(ctx context.Context, f stream.Fetcher) *stream.Reader {
	pol := m.policyFor(ctx)
	opts := stream.ReaderOptions{MaxParallel: pol.Limits.MaxParallelChunks}
	if pol.Readahead > 0 {
		opts.Readahead = pol.Readahead
		//scfslint:ignore ctxdiscipline value-only base for prefetches; cancellation comes from the reader lifetime and trigger ctx
		opts.BaseContext = iopolicy.With(context.Background(), pol)
		if m.ins != nil {
			opts.Metrics = m.ins.stream
		}
	}
	return stream.NewReaderOpts(f, stream.Buffers, opts)
}

// OpenRange returns a reader over [off, off+length) of the newest version
// of unit, fetching only the chunks covering that range. Ranges beyond the
// end are truncated. Reads through the returned reader are bounded by ctx.
func (m *Manager) OpenRange(ctx context.Context, unit string, off, length int64) (io.ReadCloser, VersionInfo, error) {
	r, info, err := m.Open(ctx, unit)
	if err != nil {
		return nil, VersionInfo{}, err
	}
	return r.Section(ctx, off, length), info, nil
}

// openVersion builds the stream.Reader for one version. Chunks are served
// individually only for certified entries: the per-chunk path has no
// end-to-end plaintext hash check, so its trust rests on the metadata's
// ChunkHashes, which certification pins to at least one correct cloud. An
// uncertified entry goes through wholeFetcher, which verifies the full value
// against DataHash before serving any byte (trying every metadata variant,
// so a forged uncertified copy costs a retry, not the read). The ctx
// supplies the open-time I/O policy (readahead window, hedging defaults for
// the reader's own prefetches).
func (m *Manager) openVersion(ctx context.Context, unit string, v resolved) *stream.Reader {
	if v.certified {
		return m.newChunkReader(ctx, &chunkFetcher{m: m, unit: unit, info: v.info})
	}
	return stream.NewReader(&wholeFetcher{m: m, unit: unit, info: v.info, variants: v.variants}, stream.Buffers)
}

// readVersion reassembles one version whole — the read under Read,
// ReadMatching and wholeFetcher — and verifies the value's hash. It is one
// read over the version's chunk reader, so whole and ranged reads share one
// chunk fan-out: the chunks are fetched together (stream.Window at a time)
// and decoded straight into the result.
func (m *Manager) readVersion(ctx context.Context, unit string, info VersionInfo) ([]byte, error) {
	if !info.validChunking() {
		return nil, fmt.Errorf("%w: inconsistent chunk geometry (size %d, chunk %d x %d)", ErrIntegrity, info.Size, info.ChunkSize, info.ChunkCount)
	}
	out := make([]byte, info.Size)
	if len(out) > 0 {
		r := m.newChunkReader(ctx, &chunkFetcher{m: m, unit: unit, info: info})
		defer r.Close()
		if _, err := r.ReadAtContext(ctx, out, 0); err != nil {
			return nil, err
		}
	}
	if seccrypto.Hash(out) != info.DataHash {
		return nil, ErrIntegrity
	}
	return out, nil
}

// chunkFetcher decodes individual chunks of a version. The secret-shared
// key is combined once on the first chunk and cached for the rest of the
// read.
type chunkFetcher struct {
	m    *Manager
	unit string
	info VersionInfo

	mu  sync.Mutex
	key []byte
}

// Size implements stream.Fetcher.
func (f *chunkFetcher) Size() int64 { return int64(f.info.Size) }

// ChunkSize implements stream.Fetcher.
func (f *chunkFetcher) ChunkSize() int { return f.info.ChunkSize }

// Close implements stream.Fetcher.
func (f *chunkFetcher) Close() error { return nil }

// cachedKey returns the version key recovered by a previous chunk, if any.
func (f *chunkFetcher) cachedKey() []byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.key
}

// setKey caches the recovered version key.
func (f *chunkFetcher) setKey(key []byte) {
	f.mu.Lock()
	f.key = key
	f.mu.Unlock()
}

// Fetch implements stream.Fetcher: fan the chunk's frame reads over the
// clouds, verify each frame against the metadata hashes, and decode as soon
// as enough verified frames arrived — reconstructing missing shards for
// degraded reads. The moment a decode succeeds the remaining per-cloud
// fetches are cancelled (first quorum wins); cancelling ctx aborts the whole
// fan-out and returns ctx.Err(). Under a hedge policy (carried by ctx) only
// the f+1 preferred clouds are contacted up front, the rest after the
// tracked delay percentile or on a preferred cloud's failure.
func (f *chunkFetcher) Fetch(ctx context.Context, idx int, dst []byte) error {
	m := f.m
	info := f.info
	if idx < 0 || idx >= info.ChunkCount {
		return fmt.Errorf("depsky: chunk %d out of range (version has %d)", idx, info.ChunkCount)
	}
	if len(dst) != info.chunkPlainLen(idx) {
		return fmt.Errorf("depsky: chunk %d buffer is %d bytes, want %d", idx, len(dst), info.chunkPlainLen(idx))
	}
	var hashes []string
	if idx < len(info.ChunkHashes) {
		hashes = info.ChunkHashes[idx]
	}
	pol := m.policyFor(ctx)
	op := m.blockOp(info.Protocol, len(dst))
	gate := m.newHedgeGate(pol, pol.Hedge, m.readNeed(info.Protocol), op)
	tr := telemetry.FromContext(ctx)
	opCtx, cancel := m.quorumCtx(ctx)
	defer cancel()
	name := m.chunkName(f.unit, info.ID, idx)
	type fetched struct {
		blk    *block
		absent bool // the cloud holds no such object (cloud.ErrNotFound)
	}
	results := make(chan fetched, m.N())
	var wg sync.WaitGroup
	for i, c := range m.opts.Clouds {
		wg.Add(1)
		go func(i int, c cloud.ObjectStore) {
			defer wg.Done()
			if !gate.enter(opCtx, i) {
				m.recordGated(tr, "chunk.get", i, gate.hedged(i))
				results <- fetched{}
				return
			}
			start := time.Now()
			var data []byte
			err := m.timedCloudCall(opCtx, pol, i, op, func(ctx context.Context) error {
				var err error
				data, err = c.Get(ctx, name)
				return err
			})
			m.recordSpan(tr, "chunk.get", i, start, gate.hedged(i), err)
			if err != nil {
				results <- fetched{absent: errors.Is(err, cloud.ErrNotFound)}
				return
			}
			// Discard frames whose hash does not match the metadata (this
			// is how silently corrupting clouds are tolerated).
			if i < len(hashes) && hashes[i] != "" && !seccrypto.VerifyHash(data, hashes[i]) {
				results <- fetched{}
				return
			}
			b, err := decodeBlock(data)
			if err != nil || b.ChunkIdx != idx || b.ChunkPlainLen != len(dst) {
				results <- fetched{}
				return
			}
			if b.ShardIdx != i {
				results <- fetched{}
				return
			}
			results <- fetched{blk: b}
		}(i, c)
	}
	go func() { wg.Wait(); close(results) }()

	scratch := &decodeScratch{}
	defer scratch.release()
	blocks := make([]*block, 0, m.N())
	got, absent := 0, 0
	for r := range results {
		if r.blk == nil {
			gate.kick() // unusable response: release one gated cloud
			if r.absent {
				absent++
			}
			continue
		}
		blocks = append(blocks, r.blk)
		got++
		if err := f.decodeChunk(idx, blocks, dst, scratch); err == nil {
			if tr != nil {
				tr.SetVerdict(time.Since(tr.Start))
			}
			cancel() // first quorum wins: abort the redundant fetches
			return nil
		} else if got >= m.readNeed(info.Protocol) {
			gate.kick() // enough frames but no decode yet: pull in another
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := m.shortRead(info.Protocol, got, absent); err != nil {
		return err
	}
	return f.decodeChunk(idx, blocks, dst, scratch)
}

// decodeChunk attempts to decode one chunk into dst from the verified
// frames collected so far.
func (f *chunkFetcher) decodeChunk(idx int, blocks []*block, dst []byte, scratch *decodeScratch) error {
	m := f.m
	scratch.reset()
	if f.info.Protocol == ProtocolA {
		for _, b := range blocks {
			if b.Full != nil && len(b.Full) == len(dst) {
				copy(dst, b.Full)
				return nil
			}
		}
		return ErrQuorumRead
	}

	needed := m.opts.F + 1
	shards := make([][]byte, m.coder.TotalShards())
	var shares []secretshare.Share
	present := 0
	shardSize := 0
	for _, b := range blocks {
		if b.Shard == nil || b.ShardIdx < 0 || b.ShardIdx >= len(shards) {
			continue
		}
		if shards[b.ShardIdx] == nil {
			present++
		}
		shards[b.ShardIdx] = b.Shard
		shardSize = len(b.Shard)
		if b.KeyShare != nil {
			shares = append(shares, secretshare.Share{X: b.KeyX, Data: b.KeyShare})
		}
	}
	key := f.cachedKey()
	if present < needed || (key == nil && len(shares) < needed) {
		return ErrQuorumRead
	}
	if key == nil {
		combined, err := secretshare.Combine(shares, needed)
		if err != nil {
			return fmt.Errorf("depsky: recovering key: %w", err)
		}
		key = combined
		f.setKey(key)
	}

	missingData := 0
	for i := 0; i < m.coder.DataShards; i++ {
		if shards[i] == nil {
			missingData++
		}
	}
	if err := m.coder.ReconstructDataInto(shards, scratch.get(missingData*shardSize)); err != nil {
		return fmt.Errorf("depsky: reconstructing chunk %d: %w", idx, err)
	}
	cipherLen := len(dst) + seccrypto.CiphertextOverhead
	ciphertext := scratch.get(cipherLen)
	if err := m.coder.JoinInto(ciphertext, shards, cipherLen); err != nil {
		return fmt.Errorf("depsky: joining chunk %d: %w", idx, err)
	}
	if _, err := seccrypto.DecryptInto(dst, key, ciphertext); err != nil {
		return fmt.Errorf("depsky: decrypting chunk %d: %w", idx, err)
	}
	return nil
}

// wholeFetcher serves a version whose entry is not certified through
// Open/OpenRange: the full value is fetched and verified end to end once, on
// first access (readVersionAny), and served as one chunk.
type wholeFetcher struct {
	m    *Manager
	unit string
	info VersionInfo
	// variants are the metadata copies to try, best first (see
	// readVersionAny).
	variants []VersionInfo

	mu      sync.Mutex
	fetched bool
	data    []byte
}

// Size implements stream.Fetcher.
func (f *wholeFetcher) Size() int64 { return int64(f.info.Size) }

// ChunkSize implements stream.Fetcher: the whole value is one chunk.
func (f *wholeFetcher) ChunkSize() int {
	if f.info.Size == 0 {
		return 1
	}
	return f.info.Size
}

// Close implements stream.Fetcher.
func (f *wholeFetcher) Close() error { return nil }

// Fetch implements stream.Fetcher. The one whole-value fetch runs under
// the context of whichever read triggers it first; a failed fetch (a
// cancelled caller, a transient quorum shortfall) is not latched, so a
// later read with a live context retries it.
func (f *wholeFetcher) Fetch(ctx context.Context, idx int, dst []byte) error {
	if idx != 0 {
		return fmt.Errorf("depsky: whole-value fetch has one chunk, got request for %d", idx)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.fetched {
		data, err := f.m.readVersionAny(ctx, f.unit, f.variants)
		if err != nil {
			return err
		}
		f.data, f.fetched = data, true
	}
	if len(dst) != len(f.data) {
		return fmt.Errorf("depsky: buffer is %d bytes, value is %d", len(dst), len(f.data))
	}
	copy(dst, f.data)
	return nil
}

// objectNames lists the objects one version occupies on each cloud. The
// caller vouches for info.ChunkCount: a merged entry's passed validChunking,
// a failed write's is its own count.
func (m *Manager) objectNames(unit string, info VersionInfo) []string {
	var names []string
	for idx := 0; idx < info.ChunkCount; idx++ {
		names = append(names, m.chunkName(unit, info.ID, idx))
	}
	return names
}

// orphanCleanupTimeout bounds discardObjects, which must outlive a
// cancelled write but not hang its caller on an unresponsive cloud.
const orphanCleanupTimeout = 2 * time.Second

// discardObjects deletes, best effort, what a failed write stored under its
// own ID: info is the writer's own, with ChunkCount the chunks it started,
// or the zero value if it issued no PUT (then there is nothing to delete and
// no request is made). It runs even when the write failed because ctx was
// cancelled.
func (m *Manager) discardObjects(ctx context.Context, unit string, info VersionInfo) {
	if info.ChunkCount == 0 {
		return
	}
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), orphanCleanupTimeout)
	defer cancel()
	m.deleteObjects(ctx, m.objectNames(unit, info))
}

// deleteObjects deletes names on every cloud, best effort: a failure only
// wastes space.
func (m *Manager) deleteObjects(ctx context.Context, names []string) {
	var wg sync.WaitGroup
	for _, c := range m.opts.Clouds {
		wg.Add(1)
		go func(c cloud.ObjectStore) {
			defer wg.Done()
			for _, name := range names {
				_ = c.Delete(ctx, name)
			}
		}(c)
	}
	wg.Wait()
}
