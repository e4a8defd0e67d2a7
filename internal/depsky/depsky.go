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
// Every version of a data unit is recorded in a metadata object replicated on
// all clouds. SCFS's consistency-anchor algorithm needs to read "the version
// with a given hash" rather than "the newest version" — the extension
// described in §3.2 of the paper — so both read entries take a hash:
// ReadMatching returns the whole value, verified end to end against that hash
// (Read is its empty-hash form, the newest version), and OpenMatching returns
// a random-access reader that fetches only the chunks a read covers, for
// entries f+1 clouds agree on. Under both sits one lookup (resolve) and one
// chunk fetch (chunkFetcher.Fetch); and every exchange with the clouds, read
// or write, is one round launched by startRound (dispatch.go).
//
// A version has one layout on the clouds, whatever its size and whichever
// entry point wrote it: the value is cut into chunks of Options.ChunkSize
// plaintext bytes, each chunk is dispersed on its own, and cloud i stores
// chunk j's frame as "<prefix>dsky/<unit>/<id>/c<j>" in the binary framing
// documented in wire.go. A value of at most one chunk is a one-chunk
// version, an empty one a version of no chunks. Only the small metadata
// objects use JSON.
package depsky

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"scfs/internal/cloud"
	"scfs/internal/erasure"
	"scfs/internal/iopolicy"
	"scfs/internal/pricing"
	"scfs/internal/resilience"
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

// VersionInfo describes one stored version of a data unit.
type VersionInfo struct {
	// Number is the monotonically increasing version number.
	Number uint64 `json:"number"`
	// ID names the version's objects on the clouds (chunkName).
	// The writer draws it at random before it knows Number, so the upload
	// never waits for the metadata read that yields the number; it is part
	// of the entry the f+1 certification vote compares.
	ID string `json:"id"`
	// DataHash is the SHA-256 of the original (plaintext) value; it is the
	// hash SCFS stores in its consistency anchor.
	DataHash string `json:"data_hash"`
	// Size is the length of the original value.
	Size int `json:"size"`
	// Protocol records how the version was encoded.
	Protocol Protocol `json:"protocol"`

	// ChunkSize is the plaintext bytes per chunk the writer cut the value
	// into; every chunk but the last holds exactly that many.
	ChunkSize int `json:"chunk_size,omitempty"`
	// ChunkCount is the number of chunks: ceil(Size/ChunkSize), so 0 for an
	// empty value and 1 for one of at most ChunkSize bytes.
	ChunkCount int `json:"chunk_count,omitempty"`
	// ChunkHashes[j][i] is the SHA-256 of chunk j's frame on cloud i,
	// allowing the reader to discard corrupted frames.
	ChunkHashes [][]string `json:"chunk_hashes,omitempty"`
}

// MaxChunkSize is the largest chunk a version may declare (256 MiB); a
// wire-protocol constant, not a tuning knob. Writers clamp their configured
// chunk size to it; readers reject metadata beyond it. The cap is what
// bounds a reader's allocations against forged metadata: VersionInfo is
// JSON from possibly-corrupt clouds, and before certification or the
// end-to-end hash check its Size/ChunkSize fields are attacker-chosen. With
// the cap, reassembling a forged variant can allocate at most
// len(ChunkHashes) x MaxChunkSize — linear in metadata bytes the attacker
// must actually store — instead of any 17-byte JSON integer commanding a
// terabyte make().
const MaxChunkSize = 256 << 20

// validChunking reports whether the chunk geometry is internally
// consistent. mergeMetadata drops entries where it is not (one without a
// chunk size, say), so nothing slices a buffer, bounds a loop or builds an
// object name by the chunk arithmetic of a corrupt cloud's metadata (nor
// sizes an unbounded allocation — see MaxChunkSize).
func (v *VersionInfo) validChunking() bool {
	if v.ChunkSize <= 0 || v.ChunkSize > MaxChunkSize || v.Size < 0 || v.ChunkCount < 0 {
		return false
	}
	wantChunks := (v.Size + v.ChunkSize - 1) / v.ChunkSize
	return v.ChunkCount == wantChunks && len(v.ChunkHashes) == v.ChunkCount
}

// objectIDLen is the length of a VersionInfo.ID: 16 random bytes in
// lowercase hex.
const objectIDLen = 32

// newObjectID draws the ID a write stores its objects under.
func newObjectID() string {
	var b [objectIDLen / 2]byte
	_, _ = rand.Read(b[:]) // crypto/rand.Read never fails (go 1.24)
	return hex.EncodeToString(b[:])
}

// validObjectID reports whether id has the exact form newObjectID produces.
// An ID read from a cloud is attacker-chosen, and it is spliced into object
// names: anything but fixed-length lowercase hex (a "/", a "..", another
// unit's path) could aim a GET or a DELETE outside "dsky/<unit>/".
func validObjectID(id string) bool {
	if len(id) != objectIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		if c := id[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
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

// unitMetadata is the metadata object replicated on every cloud.
type unitMetadata struct {
	Unit     string        `json:"unit"`
	Versions []VersionInfo `json:"versions"`

	// certified marks version numbers whose entry was found byte-identical
	// on at least f+1 clouds during the merge (so at least one correct
	// cloud vouches for it). Populated by mergeMetadata, never serialized.
	certified map[uint64]bool
	// variants holds, per version number, every distinct copy seen during
	// the merge, best first (the certified or richest one — the same entry
	// that lands in Versions). The end-to-end-verified read tries them in
	// order (readVersionAny): its hash check exposes a forged best variant,
	// and the next variant restores availability. Populated by
	// mergeMetadata, never serialized.
	variants map[uint64][]VersionInfo
}

func (m *unitMetadata) find(hash string) *VersionInfo {
	for i := range m.Versions {
		if m.Versions[i].DataHash == hash {
			return &m.Versions[i]
		}
	}
	// The best variant of a number may be a forged copy with a rewritten
	// hash; a read-by-hash must still find the version through the other
	// variants (the end-to-end hash check decides who was right).
	for _, vs := range m.variants {
		for i := range vs {
			if vs[i].DataHash == hash {
				return &vs[i]
			}
		}
	}
	return nil
}

// variantsOf returns every distinct copy of one version number seen during
// the merge, best first.
func (m *unitMetadata) variantsOf(number uint64) []VersionInfo {
	if vs := m.variants[number]; len(vs) > 0 {
		return vs
	}
	for i := range m.Versions {
		if m.Versions[i].Number == number {
			return m.Versions[i : i+1]
		}
	}
	return nil
}

func (m *unitMetadata) newest() *VersionInfo {
	if len(m.Versions) == 0 {
		return nil
	}
	best := &m.Versions[0]
	for i := range m.Versions {
		if m.Versions[i].Number > best.Number {
			best = &m.Versions[i]
		}
	}
	return best
}

// block is what gets stored on one cloud for one chunk of a version (CA
// protocol): an erasure-coded shard of the chunk's ciphertext plus this
// cloud's share of the key. It is serialized with the compact binary framing
// in wire.go, not JSON.
type block struct {
	Shard    []byte
	ShardIdx int
	KeyX     byte
	KeyShare []byte
	// Full holds the whole chunk for the replication protocol (DepSky-A).
	Full []byte
	// ChunkIdx and ChunkPlainLen locate the frame within its version: the
	// chunk's index and how many plaintext bytes it carries.
	ChunkIdx      int
	ChunkPlainLen int
}

// Options configures a Manager.
type Options struct {
	// Clouds are the per-provider object-store clients (all owned by the
	// same principal). len(Clouds) must be >= 3F+1.
	Clouds []cloud.ObjectStore
	// F is the number of faulty clouds tolerated.
	F int
	// Protocol selects DepSky-CA (default) or DepSky-A.
	Protocol Protocol
	// Prefix namespaces every object written by this manager.
	Prefix string
	// ChunkSize is the plaintext bytes per chunk of the versions this
	// manager writes. Defaults to stream.DefaultChunkSize (1 MiB); values
	// above MaxChunkSize are clamped to it (wire-protocol cap).
	ChunkSize int
	// DisableQuorumCancel preserves the pre-context behaviour where the
	// losers of every quorum race run to completion in the background
	// (wasting bandwidth and per-request fees, and leaving per-cloud
	// goroutines alive until the straggler finishes). It exists as an
	// experiment/benchmark hook so the cost of redundant RPCs can be
	// measured; production code should leave it false, which makes every
	// quorum operation cancel its redundant per-cloud RPCs the moment the
	// quorum verdict is known.
	DisableQuorumCancel bool
	// Policy is the manager-wide default I/O policy (hedged reads and
	// writes, readahead, pinned cloud order, retries, breaker mode). A
	// per-operation policy carried by the operation's context
	// (iopolicy.With) is overlaid on top of it. The zero value keeps the
	// immediate full fan-out and no readahead.
	Policy iopolicy.Policy
	// Pricing maps each cloud's provider name to its price card; the cost
	// model converts footprints into dollars with it, and the metered spend
	// gauges price each cloud's usage. The zero Table prices every provider
	// with pricing.DefaultRates.
	Pricing pricing.Table
	// Breakers tunes the per-(cloud, direction) circuit breakers fed by
	// every per-cloud RPC. The zero value enables them with the default
	// threshold and cooldown; see resilience.BreakerPolicy.
	Breakers resilience.BreakerPolicy
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
	tracker    *iopolicy.Tracker
	board      *resilience.Board
	rates      []pricing.Rates
	mean       pricing.Rates // rate card averaged across the clouds
	cloudNames []string
	ins        *instruments // nil when Options.Metrics is nil
}

// New validates the options and creates a manager.
func New(opts Options) (*Manager, error) {
	if opts.F < 1 {
		opts.F = 1
	}
	need := 3*opts.F + 1
	if len(opts.Clouds) < need {
		return nil, fmt.Errorf("%w: have %d, need %d for f=%d", ErrNotEnoughClouds, len(opts.Clouds), need, opts.F)
	}
	rates := opts.Pricing.Resolve(opts.Clouds)
	names := cloudLabels(opts.Clouds)
	m := &Manager{
		opts:       opts,
		tracker:    iopolicy.NewTracker(len(opts.Clouds)),
		board:      resilience.NewBoard(len(opts.Clouds), opts.Breakers),
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
	if m.ins != nil {
		if m.board != nil {
			ins := m.ins
			m.board.SetObserver(func(cloud, class int, _, to resilience.BreakerState) {
				ins.breakerTo[cloud][class][to].Inc()
			})
		}
		m.tracker.SetObservationCounter(opts.Metrics.Counter("tracker_observations_total"))
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
// cloud. Metadata reads stop at a quorum of answers, writes at a quorum of
// acknowledgements.
func (m *Manager) QuorumSize() int { return m.N() - m.opts.F }

// witnessSize returns f+1, the fewest clouds sure to include a correct one
// (a kernel of the quorum system: it meets every quorum). That many
// identical copies certify a metadata entry, that many shards and key shares
// decode a DepSky-CA chunk, and that many failed uploads leave too few
// clouds for a write quorum.
func (m *Manager) witnessSize() int { return m.opts.F + 1 }

func (m *Manager) metaName(unit string) string {
	return m.opts.Prefix + "dsky/" + unit + "/metadata"
}

// chunkName is the per-cloud object name of chunk idx of a version. It is
// keyed by the version's ID, never its number, and is the only place a
// payload object name is built; id must have passed validObjectID
// (mergeMetadata drops entries whose ID has not).
func (m *Manager) chunkName(unit, id string, idx int) string {
	return m.opts.Prefix + "dsky/" + unit + "/" + id + "/c" + strconv.Itoa(idx)
}

// --- metadata quorum operations ---

// readMetadata fetches unit's metadata object from the clouds and merges the
// copies (mergeMetadata). Per the DepSky read protocol it waits for the first
// n-f responses — a quorum is all an asynchronous system may wait for — then
// cancels the remaining fetches: one straggling cloud no longer adds its
// full round trip to every metadata operation. Any version anchored by a
// write quorum overlaps any n-f responders in at least one correct cloud,
// so the merged union still contains everything a reader is entitled to see.
// A cloud that failed, was never contacted or holds no metadata contributes
// no copy.
//
// Under a hedge policy only the n-f preferred clouds are contacted
// immediately (startRound) — in the common case the straggler's RPC is never
// issued at all.
func (m *Manager) readMetadata(ctx context.Context, unit string) *unitMetadata {
	name := m.metaName(unit)
	op := iopolicy.GetOp(0) // a metadata object: a small, RTT-dominated download
	rd := startRound(ctx, m, "meta.get", op, m.QuorumSize(),
		func(ctx context.Context, _ int, c cloud.ObjectStore) ([]byte, error) { return c.Get(ctx, name) },
		func(_ int, data []byte) (*unitMetadata, error) { return decodeUnitMetadata(data, unit), nil })
	defer rd.cancel()
	copies := make([]*unitMetadata, m.N())
	for responded := 1; responded <= m.N(); responded++ {
		o := <-rd.outcomes
		copies[o.cloud] = o.val
		if o.val == nil {
			// A failed (or absent) copy releases one gated cloud so the
			// quorum of responses can still be assembled promptly.
			rd.kick()
		}
		if responded >= m.QuorumSize() {
			rd.cancel() // quorum of responses in hand: abort the stragglers
			if !m.opts.DisableQuorumCancel {
				break
			}
		}
	}
	return m.mergeMetadata(unit, copies)
}

// decodeUnitMetadata parses one cloud's copy of unit's metadata object; nil
// when it is not that.
func decodeUnitMetadata(data []byte, unit string) *unitMetadata {
	var md unitMetadata
	if json.Unmarshal(data, &md) != nil || md.Unit != unit {
		return nil
	}
	return &md
}

// mergeMetadata combines per-cloud metadata copies, keeping the union of
// versions (a version written to a quorum appears in at least one correct
// copy, so the union preserves the paper's availability: reads succeed as
// long as any correct copy plus f+1 block holders are reachable).
//
// Additionally, every version entry found byte-identical on at least f+1
// clouds is marked certified: a forged entry can live on at most the f
// faulty clouds, so f+1 identical copies imply at least one correct cloud
// vouches for it. Whole-value reads verify the final plaintext hash and
// do not need certification, but the ranged read path trusts the per-chunk
// frame hashes in the metadata with no end-to-end check — it only serves
// certified entries and sends its caller to the verified whole-value read
// otherwise (see OpenMatching). Among conflicting uncertified variants of
// one number, the copy carrying more integrity hashes wins.
//
// An entry whose ID is not well formed or whose chunk geometry is
// inconsistent is dropped here, before anything can build an object name
// from it or slice a buffer by it (see validObjectID, validChunking).
func (m *Manager) mergeMetadata(unit string, copies []*unitMetadata) *unitMetadata {
	merged := &unitMetadata{Unit: unit, certified: make(map[uint64]bool), variants: make(map[uint64][]VersionInfo)}
	type candidate struct {
		info  VersionInfo
		votes int
	}
	// votes[number][canonical-encoding] counts identical copies.
	votes := make(map[uint64]map[string]*candidate)
	for _, c := range copies {
		if c == nil {
			continue
		}
		for _, v := range c.Versions {
			if !validObjectID(v.ID) || !v.validChunking() {
				continue
			}
			enc, err := json.Marshal(v)
			if err != nil {
				continue
			}
			byEnc := votes[v.Number]
			if byEnc == nil {
				byEnc = make(map[string]*candidate)
				votes[v.Number] = byEnc
			}
			if cand := byEnc[string(enc)]; cand != nil {
				cand.votes++
			} else {
				byEnc[string(enc)] = &candidate{info: v, votes: 1}
			}
		}
	}
	for number, byEnc := range votes {
		var best *candidate
		for _, cand := range byEnc {
			// A certified variant always wins; at most one can reach f+1
			// votes (two would require two correct clouds to disagree about
			// a single-writer register). Otherwise prefer the richest copy.
			switch {
			case cand.votes >= m.witnessSize():
				best = cand
				merged.certified[number] = true
			case merged.certified[number]:
				// keep the certified best
			case best == nil || versionRichness(cand.info) > versionRichness(best.info):
				best = cand
			}
		}
		merged.Versions = append(merged.Versions, best.info)
		// Record every distinct copy, best first: an uncertified best may
		// turn out to be a forged copy (it fails the end-to-end hash
		// check), and readers then retry with the runners-up.
		vs := make([]VersionInfo, 0, len(byEnc))
		vs = append(vs, best.info)
		for _, cand := range byEnc {
			if cand != best {
				vs = append(vs, cand.info)
			}
		}
		sort.SliceStable(vs[1:], func(i, j int) bool {
			return versionRichness(vs[1+i]) > versionRichness(vs[1+j])
		})
		merged.variants[number] = vs
	}
	sort.Slice(merged.Versions, func(i, j int) bool { return merged.Versions[i].Number < merged.Versions[j].Number })
	return merged
}

// versionRichness orders conflicting uncertified copies of one version
// number: the copy carrying more integrity hashes is the more complete one.
func versionRichness(v VersionInfo) int {
	n := 0
	for _, h := range v.ChunkHashes {
		n += len(h)
	}
	return n
}

// writeMetadataQuorum pushes the metadata object to all clouds and returns
// nil once n-f acknowledged.
func (m *Manager) writeMetadataQuorum(ctx context.Context, md *unitMetadata) error {
	payload, err := json.Marshal(md)
	if err != nil {
		return fmt.Errorf("depsky: encoding metadata: %w", err)
	}
	return m.writeQuorum(ctx, m.metaName(md.Unit), "meta.put", func(int) []byte { return payload }, nil)
}

// writeQuorum writes per-cloud payloads (payload(i) for cloud i) and waits
// for n-f successes. Once the verdict is known the remaining uploads are
// cancelled: the preferred quorum of n-f clouds (the one the paper's cost
// analysis charges for) holds the version, and the stragglers neither bill
// upload traffic nor keep goroutines alive.
//
// onCloudDone, when non-nil, is called (from the collector goroutine) as
// soon as cloud i's upload attempt has finished, whether it succeeded,
// failed, was cancelled by the quorum verdict, or was never issued at all
// (hedged writes). The streaming pipeline uses it to recycle each cloud's
// frame buffer the moment that cloud is done with it.
//
// Under a WriteHedge policy the fan-out is preferred-set-first (Basil-style
// hedged writes): only the preferred n-f clouds upload immediately; the
// spares sit behind the hedge gate and launch only if the tracked percentile
// of the preferred set's upload latency elapses without a verdict, or a
// preferred upload fails. On a stable deployment the spare uploads are never
// issued, so the write ships (n-f)/n of the full fan-out's ingress bytes and
// PUT fees at equal durability: the paper's quorum math only ever promises
// the preferred n-f copies (a reader tolerating f faults among them still
// finds n-2f = f+1 intact shards), and the metadata union certifies any
// entry that f+1 of the n-f metadata responders agree on, which the
// preferred quorum guarantees.
//
// Cancelling ctx aborts every in-flight upload and returns ctx.Err(). The
// collector goroutine always drains all n outcomes, but after the verdict
// the losers are already cancelled (and the gated spares release without
// touching the network), so it exits promptly rather than living as long
// as the slowest cloud.
func (m *Manager) writeQuorum(ctx context.Context, name, kind string, payload func(i int) []byte, onCloudDone func(i int)) error {
	n := m.N()
	rd := startRound[struct{}](ctx, m, kind, iopolicy.PutOp(len(payload(0))), m.QuorumSize(),
		func(ctx context.Context, i int, c cloud.ObjectStore) ([]byte, error) {
			return nil, c.Put(ctx, name, payload(i))
		}, nil)
	tr := telemetry.FromContext(ctx)
	verdict := make(chan error, 1)
	go func() {
		defer rd.cancel()
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
				if cerr := ctx.Err(); cerr != nil {
					verdict <- cerr
				} else {
					verdict <- fmt.Errorf("%w: %d failures out of %d clouds", ErrQuorumWrite, failures, n)
				}
				decided = true
				rd.cancel()
			}
		}
		if !decided {
			if cerr := ctx.Err(); cerr != nil {
				verdict <- cerr
			} else {
				verdict <- fmt.Errorf("%w: only %d acks", ErrQuorumWrite, successes)
			}
		}
	}()
	return <-verdict
}

// --- public API ---

// Write stores data as the next version of unit and returns its version info.
// SCFS serializes writers per file (via locks), matching DepSky's
// single-writer register semantics. Cancelling ctx aborts the quorum
// uploads; because the metadata anchoring the version is only written after
// every chunk reached a quorum, a cancelled write never leaves a partially
// visible version. It is WriteFrom over bytes already in memory: the same
// pipeline, the same layout on the clouds.
func (m *Manager) Write(ctx context.Context, unit string, data []byte) (VersionInfo, error) {
	ctx, tr := m.opts.Tracer.Start(ctx, "write", unit)
	defer tr.Finish()
	return m.writeVersion(ctx, unit, bytes.NewReader(data))
}

// writeVersion is the write protocol of Write and WriteFrom, in two
// sequential cloud rounds instead of three. Objects are named by an ID the
// writer draws itself, so the upload (which stores them under that ID) does
// not need the unit's metadata: the metadata quorum read runs beside it, and
// the two are joined only to number the version after the newest one listed
// and to write the metadata. The order DepSky's safety rests on is kept: the
// metadata that lists a version is written after its objects reached their
// quorum.
//
// The chunk objects are deleted, best effort, if the write fails before the
// metadata PUT is issued — the upload itself, or a ctx cancelled by the join:
// nothing lists them, and unlike a number an ID is never reused, so nothing
// would overwrite them. Once the metadata PUT has been attempted they are
// kept even if it fails: a failed quorum write can still have landed on up to
// n-f-1 clouds, f+1 copies certify the entry, and Read has no older version
// to fall back to when the newest listed one has no objects.
func (m *Manager) writeVersion(ctx context.Context, unit string, r io.Reader) (VersionInfo, error) {
	readCtx, cancelRead := context.WithCancel(ctx)
	defer cancelRead()
	read := make(chan *unitMetadata, 1)
	go func() { read <- m.readMetadata(readCtx, unit) }()

	info, err := m.uploadChunks(ctx, unit, newObjectID(), r)
	if err != nil {
		cancelRead()
	}
	merged := <-read
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		m.discardObjects(ctx, unit, info)
		return VersionInfo{}, err
	}
	info.Number = 1
	if newest := merged.newest(); newest != nil {
		info.Number = newest.Number + 1
	}
	merged.Versions = append(merged.Versions, info)
	if err := m.writeMetadataQuorum(ctx, merged); err != nil {
		return VersionInfo{}, err
	}
	return info, nil
}

// resolved is one version picked out of a unit's merged metadata.
type resolved struct {
	info VersionInfo
	// certified reports that f+1 clouds agree on the entry.
	certified bool
	// variants are the distinct copies of the entry's number to read by,
	// best first (see readVersionAny); for a lookup by hash, only the copies
	// carrying that hash.
	variants []VersionInfo
}

// resolve reads unit's metadata quorum and picks the version a read entry
// point serves: the newest one listed when hash is empty (none:
// ErrUnitNotFound; no version hashes to ""), else the one whose plaintext
// hash equals hash (none: ErrVersionNotFound). It is the one place the
// quorum read, the merge, the lookup and the choice of variants meet.
func (m *Manager) resolve(ctx context.Context, unit, hash string) (resolved, error) {
	merged := m.readMetadata(ctx, unit)
	info, notFound := merged.newest(), ErrUnitNotFound
	if hash != "" {
		info, notFound = merged.find(hash), ErrVersionNotFound
	}
	if info == nil {
		if err := ctx.Err(); err != nil {
			return resolved{}, err
		}
		return resolved{}, notFound
	}
	v := resolved{info: *info, certified: merged.certified[info.Number], variants: merged.variantsOf(info.Number)}
	if hash != "" {
		var matching []VersionInfo
		for _, c := range v.variants {
			if c.DataHash == hash {
				matching = append(matching, c)
			}
		}
		v.variants = matching
	}
	return v, nil
}

// Read returns the newest version of unit.
func (m *Manager) Read(ctx context.Context, unit string) ([]byte, VersionInfo, error) {
	return m.ReadMatching(ctx, unit, "")
}

// ReadMatching returns the version of unit whose plaintext hash equals hash
// (the newest one when hash is empty: Read). This is the operation added to
// DepSky for SCFS's consistency anchor.
func (m *Manager) ReadMatching(ctx context.Context, unit, hash string) ([]byte, VersionInfo, error) {
	ctx, tr := m.opts.Tracer.Start(ctx, "read", unit)
	defer tr.Finish()
	v, err := m.resolve(ctx, unit, hash)
	if err != nil {
		return nil, VersionInfo{}, err
	}
	data, err := m.readVersionAny(ctx, unit, v.variants)
	return data, v.info, err
}

// readVersionAny tries each metadata variant of one version, best first,
// until one decodes and verifies end-to-end. Distinct variants only exist
// when faulty clouds rewrote their metadata copies; the honest variant's
// hashes then let the read succeed where the forged one fails integrity.
func (m *Manager) readVersionAny(ctx context.Context, unit string, variants []VersionInfo) ([]byte, error) {
	var lastErr error
	for _, v := range variants {
		data, err := m.readVersion(ctx, unit, v)
		if err == nil {
			return data, nil
		}
		// "Not visible" is the weakest verdict: a variant that failed for a
		// harder reason (outage, integrity) keeps it.
		if lastErr == nil || errors.Is(lastErr, ErrVersionNotFound) {
			lastErr = err
		}
		if ctx.Err() != nil {
			break
		}
	}
	if lastErr == nil {
		lastErr = ErrVersionNotFound
	}
	return nil, lastErr
}

// ListVersions returns all known versions of a unit, oldest first.
func (m *Manager) ListVersions(ctx context.Context, unit string) ([]VersionInfo, error) {
	merged := m.readMetadata(ctx, unit)
	if len(merged.Versions) == 0 {
		return nil, ctx.Err()
	}
	return merged.Versions, nil
}

// DeleteVersion removes one version (see DeleteVersions); it returns
// ErrVersionNotFound when the unit lists no such number.
func (m *Manager) DeleteVersion(ctx context.Context, unit string, number uint64) error {
	n, err := m.DeleteVersions(ctx, unit, []uint64{number})
	if err == nil && n == 0 {
		err = ErrVersionNotFound
	}
	return err
}

// DeleteVersions drops the listed versions numbered numbers from unit's
// metadata and removes their objects (see deleteWhere). It returns how many
// of the requested versions were listed and dropped; absent numbers are
// skipped silently.
func (m *Manager) DeleteVersions(ctx context.Context, unit string, numbers []uint64) (int, error) {
	doomed := make(map[uint64]bool, len(numbers))
	for _, n := range numbers {
		doomed[n] = true
	}
	n, _, err := m.deleteWhere(ctx, unit, func(v VersionInfo) bool { return doomed[v.Number] })
	return n, err
}

// DeleteMatching drops every listed version of unit whose plaintext hash is
// one of hashes — the SCFS garbage collector names versions by hash — and
// removes their objects (see deleteWhere). It returns how many entries it
// dropped and the ones among them whose objects it deleted: what the sweep
// actually freed.
func (m *Manager) DeleteMatching(ctx context.Context, unit string, hashes []string) (int, []VersionInfo, error) {
	doomed := make(map[string]bool, len(hashes))
	for _, h := range hashes {
		doomed[h] = true
	}
	return m.deleteWhere(ctx, unit, func(v VersionInfo) bool { return doomed[v.DataHash] })
}

// deleteWhere drops the versions of unit that doomed selects from its
// metadata in one metadata round trip — one quorum read, one quorum write —
// then removes their objects from all clouds, and returns how many entries it
// dropped and the ones whose objects it removed.
//
// Objects are removed only on the authority of an entry f+1 clouds agree on.
// An entry's ID decides which objects a delete hits, and an uncertified
// entry may be one faulty cloud's invention — the doomed number paired with
// a live version's ID. Such an entry is dropped from the metadata and its
// objects are left alone: the worst a forged copy can cost is space.
func (m *Manager) deleteWhere(ctx context.Context, unit string, doomed func(VersionInfo) bool) (int, []VersionInfo, error) {
	ctx, tr := m.opts.Tracer.Start(ctx, "delete", unit)
	defer tr.Finish()
	merged := m.readMetadata(ctx, unit)
	var removed, freed []VersionInfo
	kept := merged.Versions[:0]
	for _, v := range merged.Versions {
		if doomed(v) {
			removed = append(removed, v)
		} else {
			kept = append(kept, v)
		}
	}
	if len(removed) == 0 {
		return 0, nil, ctx.Err()
	}
	merged.Versions = kept
	if err := m.writeMetadataQuorum(ctx, merged); err != nil {
		return 0, nil, err
	}
	var names []string
	for _, v := range removed {
		if merged.certified[v.Number] {
			freed = append(freed, v)
			names = append(names, m.objectNames(unit, v)...)
		}
	}
	m.deleteObjects(ctx, names)
	return len(removed), freed, nil
}

// DeleteUnit removes every version and the metadata of the unit.
func (m *Manager) DeleteUnit(ctx context.Context, unit string) error {
	versions, err := m.ListVersions(ctx, unit)
	if err != nil {
		return err
	}
	numbers := make([]uint64, 0, len(versions))
	for _, v := range versions {
		numbers = append(numbers, v.Number)
	}
	if _, err := m.DeleteVersions(ctx, unit, numbers); err != nil {
		return err
	}
	m.deleteObjects(ctx, []string{m.metaName(unit)})
	return nil
}

// shortRead classifies a chunk fan-out that ended with got usable frames of
// a listed version, absent of the n clouds having answered
// cloud.ErrNotFound. When too few frames arrived and every cloud that gave
// none said "no such object", the version is not visible yet (the metadata
// became visible at some cloud before the chunk did at enough) or no longer
// exists (a deleted version a lagging metadata copy still lists):
// ErrVersionNotFound, which the consistency-anchor loop retries. An outage
// or a corrupt frame among the misses is ErrQuorumRead.
func (m *Manager) shortRead(p Protocol, got, absent int) error {
	switch {
	case got >= m.readNeed(p):
		return nil
	case absent > 0 && got+absent == m.N():
		return ErrVersionNotFound
	default:
		return ErrQuorumRead
	}
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
	if s.next < len(s.bufs) {
		if cap(s.bufs[s.next]) >= n {
			b := s.bufs[s.next][:n]
			s.next++
			return b
		}
		stream.Buffers.Put(s.bufs[s.next])
		s.bufs[s.next] = stream.Buffers.Get(n)
		b := s.bufs[s.next]
		s.next++
		return b
	}
	b := stream.Buffers.Get(n)
	s.bufs = append(s.bufs, b)
	s.next++
	return b
}

// release returns every scratch buffer to the shared pool.
func (s *decodeScratch) release() {
	for _, b := range s.bufs {
		stream.Buffers.Put(b)
	}
	s.bufs = nil
	s.next = 0
}
