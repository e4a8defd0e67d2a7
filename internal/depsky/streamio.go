package depsky

// The chunk data plane: the one write pipeline and the one chunk fetch.
//
// Every write consumes its value in fixed-size chunks and overlaps encrypt →
// erasure-encode → per-shard hash → quorum upload across a small window of
// in-flight chunks (see internal/stream), so neither the ciphertext nor the
// erasure shards of a whole value are ever resident; the descriptor objects
// go up once the chunks are stored, and carry the frames of a value of one
// chunk. Every read starts with locate, which certifies the descriptor (and
// decodes such a value), and continues with a stream.Reader over
// chunkFetcher.Fetch, behind one of two entries: ReadMatching reads all of a
// version into one buffer and verifies the value's hash; OpenMatching hands
// out the reader itself, which fetches — and, under faults, reconstructs —
// only the chunks covering a requested byte range, reusing the coder's cached
// decode matrices. All chunk, shard and frame buffers come from the
// process-wide stream.Buffers pool.

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
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
// the wire-protocol cap (readers reject descriptors declaring more, so a
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
// version's descriptor.
type encodedChunk struct {
	frames [][]byte
	hashes []string
}

// WriteFrom streams r as the version of unit named hash, the caller's
// SHA-256 of the whole stream. At most GOMAXPROCS chunks are being encoded and
// stream.Window encoded chunks are waiting on their quorum upload at any
// moment, so the peak memory of a write is bounded regardless of the stream
// length (see stream.Window); per-shard hashing of one chunk runs
// concurrently with the quorum uploads of earlier chunks. Once every chunk
// has reached n-f clouds, the descriptor objects go up, and the write returns
// when they have reached n-f clouds: a value of one chunk, whose frames ride
// in the descriptor objects, is stored in one cloud round; a value of up to
// stream.Window chunks in two.
//
// A stream that does not hash to hash writes no descriptor and fails with
// ErrIntegrity. A write that fails, or whose ctx is cancelled, before its
// descriptor round deletes, best effort, the chunks it stored under its tag;
// the caller anchors nothing, so no reader looks for them. Once the
// descriptor round has started, the write's objects stay whatever its
// outcome: a reader may already have certified its descriptor.
func (m *Manager) WriteFrom(ctx context.Context, unit, hash string, r io.Reader) (VersionInfo, error) {
	ctx, tr := m.opts.Tracer.Start(ctx, "write", unit)
	defer tr.Finish()
	return m.writeVersion(ctx, unit, hash, r)
}

// writeVersion is WriteFrom's protocol, shared with the register's Write:
// each chunk goes up under chunkName as it is encoded, unless the value is
// one chunk, whose frames wait for the descriptor objects.
func (m *Manager) writeVersion(ctx context.Context, unit, hash string, r io.Reader) (VersionInfo, error) {
	if !validHash(hash) {
		return VersionInfo{}, errBadHash(hash)
	}
	info := VersionInfo{DataHash: hash, Protocol: m.opts.Protocol, ChunkSize: m.chunkSize(), Tag: rand.Text()}
	// Read one byte past the first chunk to tell a value of one chunk.
	peek, past := stream.Buffers.Get(info.ChunkSize), make([]byte, 1)
	defer stream.Buffers.Put(peek)
	n, err := io.ReadFull(r, peek)
	k := 0
	if err == nil {
		k, err = io.ReadFull(r, past)
	}
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return VersionInfo{}, fmt.Errorf("stream: reading chunk 0: %w", err)
	}
	single := k == 0
	r = io.MultiReader(bytes.NewReader(peek[:n]), bytes.NewReader(past[:k]), r)
	var key []byte
	var shares []secretshare.Share
	if m.opts.Protocol == ProtocolCA {
		var err error
		if key, err = seccrypto.NewKey(); err != nil {
			return VersionInfo{}, err
		}
		if shares, err = secretshare.Split(key, m.N(), m.witnessSize(), nil); err != nil {
			return VersionInfo{}, fmt.Errorf("depsky: secret sharing: %w", err)
		}
	}

	var mu sync.Mutex         // guards info.ChunkHashes
	var rounds sync.WaitGroup // the chunk rounds, until their last straggler
	// The frames of a value of one chunk, kept for its descriptor objects.
	first := encodedChunk{frames: make([][]byte, m.N())}
	res, err := stream.Run(ctx, r,
		stream.Config{ChunkSize: info.ChunkSize, Pool: stream.Buffers},
		func(idx int, plain []byte) (encodedChunk, error) {
			ec, err := m.encodeChunk(idx, plain, key, shares)
			if err == nil {
				mu.Lock()
				for len(info.ChunkHashes) <= idx {
					info.ChunkHashes = append(info.ChunkHashes, nil)
				}
				info.ChunkHashes[idx] = ec.hashes
				mu.Unlock()
			}
			return ec, err
		},
		func(idx int, ec encodedChunk) error {
			if single {
				first = ec // Run returns after every store: no lock needed
				return nil
			}
			// Each cloud's frame is recycled the moment that cloud's upload
			// attempt finishes — and since the quorum verdict cancels the
			// straggling uploads, no cloud pins a frame for longer than the
			// quorum round trip (plus the cancellation delivery).
			return m.writeQuorum(ctx, m.chunkName(unit, &info, idx), "chunk.put",
				func(i int) []byte { return ec.frames[i] },
				func(i int) { stream.Buffers.Put(ec.frames[i]) }, &rounds)
		})
	if got := hex.EncodeToString(res.Sum256[:]); err == nil && got != hash {
		err = fmt.Errorf("%w: the stream hashes to %s, not %s", ErrIntegrity, got, hash)
	}
	objects := make([][]byte, m.N())
	if err == nil {
		info.Size, info.ChunkCount, info.ChunkHashes = int(res.Size), res.Chunks, info.ChunkHashes[:res.Chunks]
		desc, _ := json.Marshal(info) // plain fields only: it cannot fail
		for i := range objects {
			objects[i] = descObject(desc, first.frames[i])
		}
	}
	for _, f := range first.frames {
		stream.Buffers.Put(f)
	}
	if err != nil {
		// Delete, best effort, the chunks it stored once the last straggler
		// is done; the caller anchors nothing, so no reader looks for them.
		rounds.Wait()
		ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), orphanCleanupTimeout)
		defer cancel()
		m.eachCloud(func(_ int, c cloud.ObjectStore) {
			for idx := 0; idx < res.Chunks && !single; idx++ {
				_ = c.Delete(ctx, m.chunkName(unit, &info, idx))
			}
		})
		return VersionInfo{}, err
	}
	err = m.writeQuorum(ctx, m.descName(unit, hash), "desc.put",
		func(i int) []byte { return objects[i] },
		func(i int) { stream.Buffers.Put(objects[i]) }, nil)
	if err != nil {
		return VersionInfo{}, err
	}
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

// --- reads ---

// OpenMatching returns a random-access reader over the version of unit whose
// plaintext hash equals hash (the read-by-hash SCFS's consistency anchor
// needs), fetching only the chunks a read touches. The open is one round
// (locate), which certifies the descriptor — and decodes a version of one
// chunk, which the reader then serves from memory; every other chunk's
// frames are checked against the descriptor's hashes.
//
// The ctx bounds the descriptor round performed here and supplies the
// open-time I/O policy (readahead window, hedging defaults for the reader's
// own prefetches); each read through the returned reader carries its own
// context (ReadAtContext / Section).
func (m *Manager) OpenMatching(ctx context.Context, unit, hash string) (*stream.Reader, VersionInfo, error) {
	ctx, tr := m.opts.Tracer.Start(ctx, "open", unit)
	defer tr.Finish()
	f, err := m.locate(ctx, unit, hash)
	if err != nil {
		return nil, VersionInfo{}, err
	}
	return m.newChunkReader(ctx, f), f.info, nil
}

// newChunkReader returns the stream.Reader over one version's chunkFetcher,
// configured from the open-time I/O policy: a readahead request becomes the
// reader's prefetch window (sized by its governor as the access pattern
// allows). The policy is
// also stamped on the reader's base context, so prefetches issued on the
// reader's own behalf hedge their chunk fan-outs the same way foreground
// reads do.
func (m *Manager) newChunkReader(ctx context.Context, f *chunkFetcher) *stream.Reader {
	pol := m.policyFor(ctx)
	var opts stream.ReaderOptions
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

// readVersion reassembles one version whole — a value of one chunk is the
// one locate decoded — and verifies the value's hash. The chunks are one read
// over the version's chunk reader, so whole and ranged reads share one chunk
// fan-out: fetched together (stream.Window at a time) and decoded straight
// into the result.
func (m *Manager) readVersion(ctx context.Context, f *chunkFetcher) ([]byte, error) {
	info := f.info
	if !info.validChunking() {
		return nil, fmt.Errorf("%w: inconsistent chunk geometry (size %d, chunk %d x %d)", ErrIntegrity, info.Size, info.ChunkSize, info.ChunkCount)
	}
	out := f.first
	if out == nil {
		out = make([]byte, info.Size)
		r := m.newChunkReader(ctx, f)
		defer r.Close()
		if _, err := r.ReadAtContext(ctx, out, 0); err != nil && len(out) > 0 {
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
	m     *Manager
	unit  string
	info  VersionInfo
	first []byte // the value, when it is one chunk and locate decoded it

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

// Fetch implements stream.Fetcher. A value of one chunk is the one locate
// decoded.
func (f *chunkFetcher) Fetch(ctx context.Context, idx int, dst []byte) error {
	info := &f.info
	if idx < 0 || idx >= info.ChunkCount {
		return fmt.Errorf("depsky: chunk %d out of range (version has %d)", idx, info.ChunkCount)
	}
	if len(dst) != info.chunkPlainLen(idx) {
		return fmt.Errorf("depsky: chunk %d buffer is %d bytes, want %d", idx, len(dst), info.chunkPlainLen(idx))
	}
	if info.ChunkCount == 1 {
		copy(dst, f.first)
		return nil
	}
	return f.fetch(ctx, idx, dst)
}

// fetch fans chunk idx of a version of more than one chunk over the clouds,
// verifies each frame against the descriptor's hashes, and decodes as soon as
// enough verified frames arrived — reconstructing missing shards for
// degraded reads. The moment a decode succeeds the remaining per-cloud
// fetches are cancelled (first quorum wins); cancelling ctx aborts the whole
// fan-out and returns ctx.Err(). Under a hedge policy (carried by ctx) only
// the readNeed preferred clouds are contacted up front, the rest after the
// tracked delay percentile or on a preferred cloud's failure.
func (f *chunkFetcher) fetch(ctx context.Context, idx int, dst []byte) error {
	m, info := f.m, &f.info
	hashes := info.ChunkHashes[idx]
	name := m.chunkName(f.unit, info, idx)
	need := m.readNeed(info.Protocol)
	rd := startRound(ctx, m, "chunk.get", m.blockOp(info.Protocol, len(dst)), need,
		func(ctx context.Context, _ int, c cloud.ObjectStore) ([]byte, error) { return c.Get(ctx, name) },
		func(i int, data []byte) (*block, error) {
			// Discard frames whose hash does not match the descriptor (this
			// is how silently corrupting clouds are tolerated).
			if !seccrypto.VerifyHash(data, hashes[i]) {
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
	// Too few frames decode. When every cloud that gave none said "no such
	// object", the version is not visible yet or no longer exists (deleted
	// while a lagging cloud still served its descriptor): ErrVersionNotFound,
	// which the consistency-anchor loop retries. An outage or a corrupt frame
	// among the misses is ErrQuorumRead.
	switch err := ctx.Err(); {
	case err != nil:
		return err
	case len(blocks) >= need:
		return f.decodeChunk(idx, blocks, dst, scratch)
	case absent > 0 && len(blocks)+absent == m.N():
		return ErrVersionNotFound
	default:
		return ErrQuorumRead
	}
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

// decode decodes a value of at most one chunk from the frames the
// descriptor's hashes accept (frames[i] is cloud i's, nil if none) into
// f.first, and reports whether enough of them did.
func (f *chunkFetcher) decode(frames []*frame, scratch *decodeScratch) bool {
	if f.info.ChunkCount == 0 {
		f.first = []byte{}
		return true
	}
	hashes, plain := f.info.ChunkHashes[0], f.info.Size
	var blocks []*block
	for i, fr := range frames {
		if fr != nil && fr.hash == hashes[i] && fr.b.ChunkPlainLen == plain {
			blocks = append(blocks, fr.b)
		}
	}
	if len(blocks) < f.m.readNeed(f.info.Protocol) {
		return false
	}
	out := make([]byte, plain)
	if f.decodeChunk(0, blocks, out, scratch) != nil {
		return false
	}
	f.first = out
	return true
}

// objectNames lists the objects one version occupies on each cloud: its
// descriptor object and, unless it holds the value, its chunks. The caller
// vouches for info.ChunkCount and info.Tag, which a certified descriptor's
// passed decodeDescriptor.
func (m *Manager) objectNames(unit string, info VersionInfo) []string {
	names := []string{m.descName(unit, info.DataHash)}
	for idx := 0; idx < info.ChunkCount && info.ChunkCount > 1; idx++ {
		names = append(names, m.chunkName(unit, &info, idx))
	}
	return names
}

// orphanCleanupTimeout bounds the deletes of a failed write, which must
// outlive a cancelled write but not hang its caller on an unresponsive cloud.
const orphanCleanupTimeout = 2 * time.Second

// eachCloud runs fn for every cloud at once and returns when all are done.
func (m *Manager) eachCloud(fn func(i int, c cloud.ObjectStore)) {
	var wg sync.WaitGroup
	for i, c := range m.opts.Clouds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, c)
		}()
	}
	wg.Wait()
}
