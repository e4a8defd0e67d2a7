package depsky

// The chunk data plane: the one write pipeline and the one chunk fetch.
//
// Every write consumes its value in fixed-size chunks and overlaps encrypt →
// erasure-encode → per-shard hash → quorum upload across a small window of
// in-flight chunks (see internal/stream), so neither the ciphertext nor the
// erasure shards of a whole value are ever resident — Write differs from
// WriteFrom only in that its caller already holds the plaintext. Every read
// is resolve plus a stream.Reader over chunkFetcher.Fetch, behind one of two
// entries: ReadMatching reads all of a version into one buffer and verifies
// the value's hash, trying every metadata variant; OpenMatching hands out the
// reader itself, which fetches — and, under faults, reconstructs — only the
// chunks covering a requested byte range, reusing the coder's cached decode
// matrices, and for that reason serves certified entries only. All chunk,
// shard and frame buffers come from the process-wide stream.Buffers pool.

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
		shares, err = secretshare.Split(key, m.N(), m.witnessSize(), nil)
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
			err := m.writeQuorum(ctx, m.chunkName(unit, id, idx), "chunk.put",
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

// ErrWholeObjectOnly is returned by OpenMatching for versions the manager
// cannot serve by per-chunk ranged fetches (entries that are not certified):
// callers should fall back to ReadMatching, which verifies the full value
// hash and whose result they can cache.
var ErrWholeObjectOnly = errors.New("depsky: version requires the whole-object read path")

// OpenMatching returns a random-access reader over the version of unit whose
// plaintext hash equals hash (the read-by-hash SCFS's consistency anchor
// needs; the newest version when hash is empty), fetching only the chunks a
// read touches. Chunks are served individually only for certified entries:
// the per-chunk path has no end-to-end plaintext hash check, so its trust
// rests on the metadata's ChunkHashes, which certification pins to at least
// one correct cloud. An uncertified entry is declined with
// ErrWholeObjectOnly.
//
// The ctx bounds the metadata lookup performed here and supplies the
// open-time I/O policy (readahead window, hedging defaults for the reader's
// own prefetches); each read through the returned reader carries its own
// context (ReadAtContext / Section).
func (m *Manager) OpenMatching(ctx context.Context, unit, hash string) (*stream.Reader, VersionInfo, error) {
	ctx, tr := m.opts.Tracer.Start(ctx, "open", unit)
	defer tr.Finish()
	v, err := m.resolve(ctx, unit, hash)
	if err != nil {
		return nil, VersionInfo{}, err
	}
	if !v.certified {
		return nil, v.info, ErrWholeObjectOnly
	}
	return m.newChunkReader(ctx, unit, v.info), v.info, nil
}

// newChunkReader returns the stream.Reader over one version's chunkFetcher,
// configured from the open-time I/O policy: its chunk limit may narrow the
// reader's fetches, and a readahead request becomes the reader's prefetch
// window (sized by its governor as the access pattern allows). The policy is
// also stamped on the reader's base context, so prefetches issued on the
// reader's own behalf hedge their chunk fan-outs the same way foreground
// reads do.
func (m *Manager) newChunkReader(ctx context.Context, unit string, info VersionInfo) *stream.Reader {
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
	return stream.NewReaderOpts(&chunkFetcher{m: m, unit: unit, info: info}, stream.Buffers, opts)
}

// readVersion reassembles one version whole — the read under Read and
// ReadMatching — and verifies the value's hash. It is one read over the
// version's chunk reader, so whole and ranged reads share one chunk fan-out:
// the chunks are fetched together (stream.Window at a time) and decoded
// straight into the result.
func (m *Manager) readVersion(ctx context.Context, unit string, info VersionInfo) ([]byte, error) {
	if !info.validChunking() {
		return nil, fmt.Errorf("%w: inconsistent chunk geometry (size %d, chunk %d x %d)", ErrIntegrity, info.Size, info.ChunkSize, info.ChunkCount)
	}
	out := make([]byte, info.Size)
	if len(out) > 0 {
		r := m.newChunkReader(ctx, unit, info)
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
// the readNeed preferred clouds are contacted up front, the rest after the
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
	name := m.chunkName(f.unit, info.ID, idx)
	need := m.readNeed(info.Protocol)
	rd := startRound(ctx, m, "chunk.get", m.blockOp(info.Protocol, len(dst)), need,
		func(ctx context.Context, _ int, c cloud.ObjectStore) ([]byte, error) { return c.Get(ctx, name) },
		func(i int, data []byte) (*block, error) {
			// Discard frames whose hash does not match the metadata (this
			// is how silently corrupting clouds are tolerated).
			if i < len(hashes) && hashes[i] != "" && !seccrypto.VerifyHash(data, hashes[i]) {
				return nil, ErrIntegrity
			}
			b, err := decodeBlock(data)
			if err != nil || b.ChunkIdx != idx || b.ChunkPlainLen != len(dst) || b.ShardIdx != i {
				return nil, ErrIntegrity
			}
			return b, nil
		})
	defer rd.cancel()

	scratch := &decodeScratch{}
	defer scratch.release()
	blocks := make([]*block, 0, m.N())
	absent := 0 // clouds that hold no such object (cloud.ErrNotFound)
	for range m.N() {
		o := <-rd.outcomes
		if o.err != nil {
			rd.kick() // unusable response: release one gated cloud
			if errors.Is(o.err, cloud.ErrNotFound) {
				absent++
			}
			continue
		}
		blocks = append(blocks, o.val)
		if err := f.decodeChunk(idx, blocks, dst, scratch); err == nil {
			if tr := telemetry.FromContext(ctx); tr != nil {
				tr.SetVerdict(time.Since(tr.Start))
			}
			rd.cancel() // first quorum wins: abort the redundant fetches
			return nil
		} else if len(blocks) >= need {
			rd.kick() // enough frames but no decode yet: pull in another
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := m.shortRead(info.Protocol, len(blocks), absent); err != nil {
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

	needed := m.witnessSize()
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
