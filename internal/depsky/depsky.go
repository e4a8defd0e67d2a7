// Package depsky implements the DepSky cloud-of-clouds storage protocols used
// by the SCFS CoC backend (§3.2, Figure 6): each data unit is stored across
// n = 3f+1 independent cloud providers so that its confidentiality, integrity
// and availability survive f arbitrarily faulty providers.
//
// Two protocols are provided:
//
//   - DepSky-A: plain replication of the value on every cloud (availability
//     and integrity, no confidentiality).
//   - DepSky-CA: the value is encrypted with a fresh random key, the
//     ciphertext is erasure-coded into n blocks of which any f+1 reconstruct
//     it, and the key is split with secret sharing so that no single cloud
//     can decrypt the data. This is the protocol SCFS uses.
//
// A version is named by the SHA-256 of its plaintext, the hash SCFS's
// consistency anchor already holds (§3.2: readers fetch "the version with a
// given hash"). It has one layout on the clouds, whatever its size: the value
// is cut into chunks of Options.ChunkSize plaintext bytes and each chunk is
// dispersed on its own (every layout is in wire.go). Cloud i stores one
// descriptor object, "dsky/<unit>/<hash>/desc", holding the version's
// descriptor (its VersionInfo), and its frame of every chunk j as
// "dsky/<unit>/<hash>/<tag>/c<j>", where the tag is drawn afresh by each
// write — or, for a value of one chunk, its frame inside the descriptor
// object. A reader trusts a descriptor only when f+1 clouds return it
// byte-identical, and checks every frame against the descriptor's per-cloud
// hashes.
//
// A write PUTs the descriptor objects only once its chunks have reached n-f
// clouds: a value of one chunk is one cloud round, a larger one two. So every
// certified descriptor names chunks that are stored, and a write of bytes
// already stored — each write draws a fresh key — never overwrites the frames
// another descriptor names: the tags keep chunks apart, and a cloud's
// descriptor and embedded frame change together. A read of a one-chunk value
// is one round (the descriptor objects); a larger one fetches its chunks in a
// second. Nothing is read, merged and written back, and a delete removes
// names under one version's prefix.
//
// WriteFrom, ReadMatching, OpenMatching, ListVersions and DeleteVersion work
// by hash. Write and Read keep a newest-version register for callers that
// have no anchor of their own (register.go). Every exchange with the clouds
// is one round launched by startRound (dispatch.go).
package depsky

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"scfs/internal/cloud"
	"scfs/internal/erasure"
	"scfs/internal/iopolicy"
	"scfs/internal/pricing"
	"scfs/internal/seccrypto"
	"scfs/internal/stream"
	"scfs/internal/telemetry"
)

// Protocol selects how data is dispersed across the clouds.
type Protocol int

const (
	// ProtocolCA is encrypt + erasure-code + secret-share (the default).
	ProtocolCA Protocol = iota
	// ProtocolA is full replication on every cloud.
	ProtocolA
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	if p == ProtocolA {
		return "DepSky-A"
	}
	return "DepSky-CA"
}

// Errors returned by the manager.
var (
	ErrNotEnoughClouds = errors.New("depsky: need at least 3f+1 clouds")
	ErrQuorumWrite     = errors.New("depsky: could not write to a quorum of clouds")
	ErrQuorumRead      = errors.New("depsky: could not read from enough clouds")
	ErrVersionNotFound = errors.New("depsky: version not found")
	ErrUnitNotFound    = errors.New("depsky: data unit not found")
	ErrIntegrity       = errors.New("depsky: integrity verification failed")
)

// VersionInfo is a version's descriptor: what a reader needs to fetch and
// check it. It is stored in the version's descriptor objects (wire.go).
type VersionInfo struct {
	// DataHash is the SHA-256 of the original (plaintext) value, in hex; it
	// is the hash SCFS stores in its consistency anchor, and it names the
	// version's objects.
	DataHash string
	// Size is the length of the original value.
	Size int
	// Protocol records how the version was encoded.
	Protocol Protocol
	// ChunkSize is the plaintext bytes per chunk the writer cut the value
	// into; every chunk but the last holds exactly that many.
	ChunkSize int
	// ChunkCount is the number of chunks: ceil(Size/ChunkSize), so 0 for an
	// empty value and 1 for one of at most ChunkSize bytes.
	ChunkCount int
	// ChunkHashes[j][i] is the SHA-256 of chunk j's frame on cloud i,
	// allowing the reader to discard corrupted frames.
	ChunkHashes [][]string
	// Tag is the writer's random name for its chunk frames (rand.Text: 26
	// characters of the base32 alphabet), so that two writes of the same
	// bytes store them apart.
	Tag string
}

// MaxChunkSize is the largest chunk a version may declare (256 MiB); a
// wire-protocol constant, not a tuning knob. Writers clamp their configured
// chunk size to it; readers reject descriptors beyond it. With the cap,
// reassembling a version allocates at most len(ChunkHashes) x MaxChunkSize —
// linear in descriptor bytes the writer must actually store — instead of any
// six-byte integer commanding a terabyte make().
const MaxChunkSize = 256 << 20

// validChunking reports whether the chunk geometry is internally
// consistent, so that nothing slices a buffer, bounds a loop or sizes an
// allocation by the arithmetic of a corrupt descriptor.
func (v *VersionInfo) validChunking() bool {
	if v.ChunkSize <= 0 || v.ChunkSize > MaxChunkSize || v.Size < 0 || v.ChunkCount < 0 {
		return false
	}
	wantChunks := (v.Size + v.ChunkSize - 1) / v.ChunkSize
	return v.ChunkCount == wantChunks && len(v.ChunkHashes) == v.ChunkCount
}

// validHash reports whether h is a SHA-256 in lowercase hex, the only form a
// hash may take before it is spliced into an object name: a hash comes from a
// record another writer may have set, and a "/" or ".." in it could aim a GET
// or a DELETE outside its version's prefix.
func validHash(h string) bool { return len(h) == 64 && onlyOf(h, "0123456789abcdef") }

// validTag reports whether t is a tag rand.Text drew.
func validTag(t string) bool { return len(t) == 26 && onlyOf(t, "ABCDEFGHIJKLMNOPQRSTUVWXYZ234567") }

// onlyOf reports whether every byte of s is one of set's.
func onlyOf(s, set string) bool {
	for i := 0; i < len(s); i++ {
		if strings.IndexByte(set, s[i]) < 0 {
			return false
		}
	}
	return true
}

// chunkPlainLen returns the plaintext length of chunk idx.
func (v *VersionInfo) chunkPlainLen(idx int) int {
	rem := v.Size - idx*v.ChunkSize
	if rem > v.ChunkSize {
		return v.ChunkSize
	}
	return rem
}

// block is one cloud's frame of one chunk of a version, decoded (wire.go):
// this cloud's share of the version key and the chunk's payload.
type block struct {
	KeyX     byte
	ShardIdx int
	// ChunkIdx and ChunkPlainLen locate the frame within its version: the
	// chunk's index and how many plaintext bytes it carries.
	ChunkIdx      int
	ChunkPlainLen int
	KeyShare      []byte
	// Payload is the chunk's erasure-coded shard of ciphertext under
	// DepSky-CA, and the whole chunk under DepSky-A.
	Payload []byte
}

// Options configures a Manager.
type Options struct {
	// Clouds are the per-provider object-store clients (all owned by the
	// same principal). len(Clouds) must be >= 3F+1.
	Clouds []cloud.ObjectStore
	// F is the number of faulty clouds tolerated, at least 0 (1 under
	// DepSky-CA). F = 0 over one cloud with DepSky-A is the single-provider
	// deployment (the paper's SCFS-AWS): every threshold is 1 and a corrupt
	// copy is detected, not masked.
	F int
	// Protocol selects DepSky-CA (default) or DepSky-A.
	Protocol Protocol
	// ChunkSize is the plaintext bytes per chunk of the versions this
	// manager writes. Defaults to stream.DefaultChunkSize (1 MiB); values
	// above MaxChunkSize are clamped to it (wire-protocol cap).
	ChunkSize int
	// DisableQuorumCancel lets the losers of every quorum race run to
	// completion instead of cancelling them at the verdict: a benchmark hook
	// that measures the cost of redundant RPCs. Production leaves it false.
	DisableQuorumCancel bool
	// Pricing maps each cloud's provider name to its price card; the cost
	// model converts footprints into dollars with it, and the metered spend
	// gauges price each cloud's usage. The zero Table prices every provider
	// with pricing.DefaultRates.
	Pricing pricing.Table
	// Breakers tunes the per-(cloud, direction) circuit breakers of the
	// manager's scoreboard, fed by every per-cloud RPC attempt. The zero
	// value keeps the default threshold and cooldown; see
	// iopolicy.BreakerPolicy.
	Breakers iopolicy.BreakerPolicy
	// Metrics, when non-nil, receives the dispatch layer's counters and
	// latency histograms: per-(cloud, op-class) RPC outcomes, hedge
	// fire/suppress/kick, retry attempts, breaker skips and transitions,
	// plus pull gauges for each metered cloud's usage and dollar spend.
	// All instruments are resolved once here; nil disables metering with a
	// single nil check per RPC.
	Metrics *telemetry.Registry
	// Tracer, when non-nil, records one trace per client operation: the
	// quorum fan-out tree of per-cloud attempts (timings, winners,
	// cancelled stragglers, suppressed hedges) and the quorum verdict
	// latency. nil disables tracing.
	Tracer *telemetry.Tracer
}

// Manager reads and writes data units spread over the configured clouds.
// A Manager is safe for concurrent use by multiple goroutines as long as
// different goroutines operate on different data units (SCFS guarantees a
// single writer per file via its lock service).
type Manager struct {
	opts       Options
	coder      *erasure.Coder
	score      *iopolicy.Scoreboard
	rates      []pricing.Rates
	mean       pricing.Rates // rate card averaged across the clouds
	cloudNames []string
	ins        *instruments // nil when Options.Metrics is nil
}

// New validates the options and creates a manager.
func New(opts Options) (*Manager, error) {
	if opts.F < 0 || (opts.F < 1 && opts.Protocol == ProtocolCA) {
		return nil, fmt.Errorf("depsky: f = %d, want f >= 0 for %s and f >= 1 for %s (f+1 key shares)", opts.F, ProtocolA, ProtocolCA)
	}
	need := 3*opts.F + 1
	if len(opts.Clouds) < need {
		return nil, fmt.Errorf("%w: have %d, need %d for f=%d", ErrNotEnoughClouds, len(opts.Clouds), need, opts.F)
	}
	rates := opts.Pricing.Resolve(opts.Clouds)
	names := cloudLabels(opts.Clouds)
	m := &Manager{
		opts:       opts,
		rates:      rates,
		mean:       meanRates(rates),
		cloudNames: names,
		ins:        newInstruments(opts.Metrics, names),
	}
	// Any witnessSize shards rebuild a chunk's ciphertext.
	var err error
	if m.coder, err = erasure.New(m.witnessSize(), m.N()-m.witnessSize()); err != nil {
		return nil, fmt.Errorf("depsky: building erasure coder: %w", err)
	}
	m.score = iopolicy.NewScoreboard(m.N(), opts.Breakers, func(cloud int, class iopolicy.OpClass, _, to iopolicy.BreakerState) {
		m.ins.at(cloud, class).breakerTo[to].Inc()
	})
	if m.ins != nil {
		m.registerUsageGauges(opts.Metrics)
	}
	return m, nil
}

// N returns the number of clouds.
func (m *Manager) N() int { return len(m.opts.Clouds) }

// F returns the number of tolerated faulty clouds.
func (m *Manager) F() int { return m.opts.F }

// The protocol's two thresholds, each stated here and nowhere else (Alpos &
// Cachin, PAPERS.md: a quorum system is a predicate, not arithmetic repeated
// at its call sites).

// QuorumSize returns n-f, a quorum: all an asynchronous system may wait for
// with f clouds silent, and enough that any two quorums share a correct
// cloud. Head reads stop at a quorum of answers, writes at a quorum of
// acknowledgements.
func (m *Manager) QuorumSize() int { return m.N() - m.opts.F }

// witnessSize returns f+1, the fewest clouds sure to include a correct one
// (a kernel of the quorum system: it meets every quorum). That many
// identical copies certify a descriptor, that many shards and key shares
// decode a DepSky-CA chunk, and that many failed uploads leave too few
// clouds for a write quorum.
func (m *Manager) witnessSize() int { return m.opts.F + 1 }

// unitPrefix is the prefix of every object of unit.
func (m *Manager) unitPrefix(unit string) string { return "dsky/" + unit + "/" }

// versionPrefix is the prefix of every object of the version of unit named
// hash; hash must have passed validHash.
func (m *Manager) versionPrefix(unit, hash string) string { return m.unitPrefix(unit) + hash + "/" }

// chunkName is the per-cloud object name of chunk idx of the version info
// describes, whose Tag came from rand.Text or passed decodeDescriptor.
func (m *Manager) chunkName(unit string, info *VersionInfo, idx int) string {
	return m.versionPrefix(unit, info.DataHash) + info.Tag + "/c" + strconv.Itoa(idx)
}

// descName is the object name of a version's descriptor object, which also
// holds the cloud's frame of a value of one chunk.
func (m *Manager) descName(unit, hash string) string { return m.versionPrefix(unit, hash) + "desc" }

// ballot counts the descriptor copies of one version as clouds return them.
type ballot map[string]int

// vote adds one cloud's copy; it returns the descriptor the moment f+1
// clouds have returned it byte-identical. A forged copy can live on at most
// the f faulty clouds, so f+1 identical copies mean a correct cloud stored it.
func (m *Manager) vote(b ballot, copy []byte, hash string) (VersionInfo, bool) {
	b[string(copy)]++
	if b[string(copy)] != m.witnessSize() {
		return VersionInfo{}, false
	}
	return decodeDescriptor(copy, hash, m.N())
}

// writeQuorum writes per-cloud payloads (payload(i) for cloud i) and waits
// for n-f successes; the verdict cancels the remaining uploads, so the
// stragglers neither bill upload traffic nor keep goroutines alive.
// onCloudDone, when non-nil, is called as soon as cloud i's attempt has
// finished, however it ended (the pipeline recycles that cloud's frame
// buffer); rounds, when non-nil, counts the round until its last straggler
// has finished, so that a failed write deletes its frames after them.
//
// Under a WriteHedge policy only the preferred n-f clouds upload at once
// (Basil-style hedged writes); a spare launches when the tracked upload
// latency percentile elapses without a verdict or a preferred upload fails.
// The paper's quorum math only promises the preferred n-f copies: with f
// faults among them, f+1 intact shards and f+1 identical descriptors remain.
// Cancelling ctx aborts every in-flight upload and returns ctx.Err().
func (m *Manager) writeQuorum(ctx context.Context, name, kind string, payload func(i int) []byte, onCloudDone func(i int), rounds *sync.WaitGroup) error {
	n := m.N()
	rd := startRound[struct{}](ctx, m, kind, iopolicy.PutOp(len(payload(0))), m.QuorumSize(),
		func(ctx context.Context, i int, c cloud.ObjectStore) ([]byte, error) {
			return nil, c.Put(ctx, name, payload(i))
		}, nil)
	tr := telemetry.FromContext(ctx)
	verdict := make(chan error, 1)
	if rounds != nil {
		rounds.Add(1)
	}
	go func() {
		defer rd.cancel()
		if rounds != nil {
			defer rounds.Done()
		}
		successes, failures, decided := 0, 0, false
		for i := 0; i < n; i++ {
			o := <-rd.outcomes
			if onCloudDone != nil {
				onCloudDone(o.cloud)
			}
			if o.err == nil {
				successes++
			} else {
				failures++
				// A failed preferred upload releases one gated spare at
				// once, so the quorum can still be assembled without
				// waiting out the hedge delay.
				rd.kick()
			}
			if decided {
				continue
			}
			switch {
			case successes >= m.QuorumSize():
				if tr != nil {
					tr.SetVerdict(time.Since(tr.Start))
				}
				verdict <- nil
				decided = true
				rd.cancel() // quorum reached: abort the redundant uploads
			case failures >= m.witnessSize():
				verdict <- cmp.Or(ctx.Err(), fmt.Errorf("%w: %d failures out of %d clouds", ErrQuorumWrite, failures, n))
				decided = true
				rd.cancel()
			}
		}
		if !decided {
			verdict <- cmp.Or(ctx.Err(), fmt.Errorf("%w: only %d acks", ErrQuorumWrite, successes))
		}
	}()
	return <-verdict
}

// --- public API ---

// errBadHash is what every entry point answers for a hash that cannot name a
// version (see validHash).
func errBadHash(hash string) error {
	return fmt.Errorf("%w: %q is not a hex SHA-256", ErrIntegrity, hash)
}

// ReadMatching returns the version of unit whose plaintext hash equals hash,
// verified end to end: the operation added to DepSky for SCFS's consistency
// anchor. A value of at most one chunk is read in one cloud round (locate);
// the chunks after the first follow in a second, fetched together.
func (m *Manager) ReadMatching(ctx context.Context, unit, hash string) ([]byte, VersionInfo, error) {
	ctx, tr := m.opts.Tracer.Start(ctx, "read", unit)
	defer tr.Finish()
	return m.readMatching(ctx, unit, hash)
}

func (m *Manager) readMatching(ctx context.Context, unit, hash string) ([]byte, VersionInfo, error) {
	f, err := m.locate(ctx, unit, hash)
	if err != nil {
		return nil, VersionInfo{}, err
	}
	data, err := m.readVersion(ctx, f)
	return data, f.info, err
}

// frame is one cloud's answer to a chunk GET: its hash, and the block it
// decodes to.
type frame struct {
	hash string
	b    *block
}

// descCopy is one cloud's descriptor object, split: the descriptor, and the
// cloud's frame of a value of one chunk (nil if it has none that decodes).
type descCopy struct {
	desc  []byte
	frame *frame
}

// splitCopy splits cloud i's descriptor object. Its frame counts only as
// cloud i's frame of chunk 0.
func splitCopy(i int, data []byte) (descCopy, error) {
	desc, raw, ok := splitDescObject(data)
	if !ok {
		return descCopy{}, ErrIntegrity
	}
	dc := descCopy{desc: desc}
	if b, err := decodeBlock(raw); err == nil && b.ChunkIdx == 0 && b.ShardIdx == i {
		dc.frame = &frame{seccrypto.Hash(raw), b}
	}
	return dc, nil
}

// locate runs a read's first round, the GETs of the descriptor objects, and
// returns the fetcher of the first descriptor f+1 clouds return
// byte-identical — for a value of one chunk, the first whose frames (which
// ride in the same objects) also decode, the value in the fetcher's first.
//
// A cloud's descriptor and frame come from one object, so they are of one
// write. Two writes of the same bytes may each leave theirs on some clouds,
// and two descriptors may be certified; among the 2f+1 correct clouds one
// write's copies are f+1, whichever way they split, and the round hears every
// cloud before it gives up. The chunks of a larger value are stored before
// its descriptor.
//
// No certified descriptor while some cloud answered "no such object" is
// ErrVersionNotFound — not visible yet, or deleted — which the
// consistency-anchor loop retries; otherwise ErrQuorumRead.
func (m *Manager) locate(ctx context.Context, unit, hash string) (*chunkFetcher, error) {
	if !validHash(hash) {
		return nil, errBadHash(hash)
	}
	name := m.descName(unit, hash)
	rd := startRound(ctx, m, "desc.get", iopolicy.GetOp(0), m.witnessSize(),
		func(ctx context.Context, _ int, c cloud.ObjectStore) ([]byte, error) { return c.Get(ctx, name) },
		splitCopy)
	defer rd.cancel()

	votes, copies, absent := ballot{}, 0, 0
	var certified []*chunkFetcher
	frames := make([]*frame, m.N())
	scratch := &decodeScratch{}
	defer scratch.release()
	for range m.N() {
		o := <-rd.outcomes
		if o.err != nil {
			rd.kick()
			if errors.Is(o.err, cloud.ErrNotFound) {
				absent++
			}
			continue
		}
		copies++
		frames[o.cloud] = o.val.frame
		if info, ok := m.vote(votes, o.val.desc, hash); ok {
			certified = append(certified, &chunkFetcher{m: m, unit: unit, info: info})
		}
		for _, f := range certified {
			if f.info.ChunkCount > 1 || f.decode(frames, scratch) {
				if tr := telemetry.FromContext(ctx); tr != nil {
					tr.SetVerdict(time.Since(tr.Start))
				}
				return f, nil
			}
		}
		if copies >= m.witnessSize() {
			rd.kick() // nothing decodes from the copies so far: hear another cloud
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(certified) == 0 && absent > 0 {
		return nil, ErrVersionNotFound
	}
	return nil, ErrQuorumRead
}

// ListVersions returns the hashes of the versions of unit whose descriptor
// f+1 clouds list, in order. A version one cloud lists alone — a cloud that
// lags a delete, or lies — is not reported.
func (m *Manager) ListVersions(ctx context.Context, unit string) ([]string, error) {
	prefix := m.unitPrefix(unit)
	listings := make([][]cloud.ObjectInfo, m.N())
	// A cloud that fails to list lists nothing: it vouches for no version.
	m.eachCloud(func(i int, c cloud.ObjectStore) { listings[i], _ = c.List(ctx, prefix) })
	count := make(map[string]int)
	for _, objs := range listings {
		seen := make(map[string]bool)
		for _, o := range objs {
			h, ok := strings.CutSuffix(strings.TrimPrefix(o.Name, prefix), "/desc")
			if ok && validHash(h) && !seen[h] && strings.HasPrefix(o.Name, prefix) {
				seen[h] = true
				count[h]++
			}
		}
	}
	var hashes []string
	for h, n := range count {
		if n >= m.witnessSize() {
			hashes = append(hashes, h)
		}
	}
	slices.Sort(hashes)
	return hashes, ctx.Err()
}

// DeleteVersion removes the version of unit named hash and returns its
// descriptor. Every cloud is asked for its descriptor object, and the GETs
// still in flight are cancelled once f+1 clouds returned the descriptor
// byte-identical: a one-chunk version's object carries its data, which is
// about to be deleted (a GET cut during its transfer is billed all the
// same). Then each cloud deletes the descriptor object, the chunks a
// certified descriptor names (a listing may lag a write) and what it lists
// under the version's prefix — the chunks other writes of the same bytes
// stored under their tags. A version of one chunk f+1 clouds vouch for has
// no other object, and takes no listing. Without f+1 identical descriptors
// — a version still inside its consistency window, or one cloud's leftover
// — the answer is ErrVersionNotFound, after the deletes: nothing f+1 clouds
// vouch for was there to be priced. Every name
// lies inside the version's prefix, so no cloud's answer aims a delete
// elsewhere; and nothing is read, modified and written back, so a delete
// cannot drop a version another writer stored meanwhile.
func (m *Manager) DeleteVersion(ctx context.Context, unit, hash string) (VersionInfo, error) {
	if !validHash(hash) {
		return VersionInfo{}, errBadHash(hash)
	}
	ctx, tr := m.opts.Tracer.Start(ctx, "delete", unit)
	defer tr.Finish()
	prefix := m.versionPrefix(unit, hash)
	getCtx, cancelGets := context.WithCancel(ctx)
	defer cancelGets()
	var mu sync.Mutex // guards info, certified and votes
	var info VersionInfo
	certified, votes := false, ballot{}
	// Every cloud's GET is issued, whenever its goroutine runs; one that
	// fails to answer contributes no copy to the vote.
	m.eachCloud(func(_ int, c cloud.ObjectStore) {
		raw, err := c.Get(getCtx, prefix+"desc")
		desc, _, ok := splitDescObject(raw)
		mu.Lock()
		defer mu.Unlock()
		if err == nil && ok && !certified {
			if info, certified = m.vote(votes, desc, hash); certified && !m.opts.DisableQuorumCancel {
				cancelGets()
			}
		}
	})
	known := []string{prefix + "desc"}
	if certified {
		known = m.objectNames(unit, info)
	}
	m.eachCloud(func(_ int, c cloud.ObjectStore) {
		names := slices.Clone(known)
		if !certified || info.ChunkCount > 1 { // else the descriptor object is all
			objs, _ := c.List(ctx, prefix) // a failed listing adds no names
			for _, o := range objs {
				if strings.HasPrefix(o.Name, prefix) && !slices.Contains(known, o.Name) {
					names = append(names, o.Name)
				}
			}
		}
		for _, name := range names {
			_ = c.Delete(ctx, name)
		}
	})
	if err := ctx.Err(); err != nil || !certified {
		return VersionInfo{}, cmp.Or(err, ErrVersionNotFound)
	}
	return info, nil
}

// decodeScratch hands out pooled buffers that are reused across the decode
// attempts of one chunk fetch (decodeChunk runs once per arriving frame, and
// a 1 MiB degraded read used to allocate ~5 MB across those attempts).
// Buffers are recycled by position: attempt k asks for the same sequence of
// sizes as attempt k-1, so reset() lets the next attempt reuse them in place.
type decodeScratch struct {
	bufs []([]byte)
	next int
}

// reset restarts buffer handout for a new decode attempt.
func (s *decodeScratch) reset() { s.next = 0 }

// get returns a pooled buffer of length n, reusing the buffer handed out at
// the same position of a previous attempt when it is large enough.
func (s *decodeScratch) get(n int) []byte {
	if s.next == len(s.bufs) {
		s.bufs = append(s.bufs, stream.Buffers.Get(n))
	} else if cap(s.bufs[s.next]) < n {
		stream.Buffers.Put(s.bufs[s.next])
		s.bufs[s.next] = stream.Buffers.Get(n)
	}
	s.next++
	return s.bufs[s.next-1][:n]
}

// release returns every scratch buffer to the shared pool.
func (s *decodeScratch) release() {
	for _, b := range s.bufs {
		stream.Buffers.Put(b)
	}
	s.bufs = nil
	s.next = 0
}
