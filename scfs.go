// Package scfs is the public facade of the SCFS shared cloud-backed file
// system (Bessani et al., USENIX ATC'14): a POSIX-like file system whose
// data lives in a cloud-of-clouds, surviving f arbitrarily faulty providers,
// with strong consistency anchored in a fault-tolerant coordination service.
//
// It is the only package a user needs to import. A mount is created with
// functional options and used with context-first operations:
//
//	mount, err := scfs.New(ctx, scfs.WithMode(scfs.Blocking))
//	if err != nil { ... }
//	defer mount.Close(context.Background())
//
//	if err := scfs.WriteFile(ctx, mount, "/docs/report.txt", data); err != nil { ... }
//	data, err := scfs.ReadFile(ctx, mount, "/docs/report.txt")
//
// Every operation takes a context.Context that bounds that call: cancelling
// it aborts the quorum fan-out down to the individual per-cloud RPCs and
// returns ctx.Err() promptly, even when one cloud is a multi-second
// straggler. The losers of a quorum race are cancelled the moment the quorum
// verdict is known, so a cancelled (or simply completed) operation leaves no
// redundant RPCs running.
//
// Beyond cancellation, each call can carry its own I/O policy: variadic
// CallOptions (or a WithPolicy context) tune how that one operation spends
// the cloud-of-clouds' redundancy. WithHedge(p) turns its quorum reads into
// hedged reads — only the fastest quorum is contacted up front, stragglers
// only after the tracked p-th latency percentile elapses — and
// WithReadahead(n) gives its sequential scans an n-chunk prefetch pipeline:
//
//	data, err := scfs.ReadFile(ctx, mount, "/idx/key", scfs.WithHedge(0.95))
//	n, err := scfs.ReadFileTo(ctx, mount, "/logs/big.bin", w, scfs.WithReadahead(4))
//
// For interoperability with the standard library, IOFS adapts a mount to
// io/fs: fs.WalkDir, testing/fstest.TestFS and http.FileServer (via http.FS)
// all work against it; pass a WithPolicy context to IOFS to tune the
// adapter's reads.
package scfs

import (
	"context"
	"io"

	"scfs/internal/cloud"
	"scfs/internal/core"
	"scfs/internal/fsapi"
	"scfs/internal/telemetry"
)

// Re-exported types: the facade is intentionally a thin skin over the
// internal layers, so the types flowing through it are aliases, not copies.
type (
	// FileInfo describes a namespace entry.
	FileInfo = fsapi.FileInfo
	// FileType distinguishes files, directories and symlinks.
	FileType = fsapi.FileType
	// OpenFlag mirrors the subset of POSIX open(2) flags SCFS supports.
	OpenFlag = fsapi.OpenFlag
	// Permission is what an ACL entry grants.
	Permission = fsapi.Permission
	// ACLEntry grants a permission to a user.
	ACLEntry = fsapi.ACLEntry
	// Handle is an open file.
	Handle = fsapi.Handle
	// Mode selects the consistency/durability tradeoff of the mount.
	Mode = core.Mode
	// GCPolicy configures the multi-version garbage collector.
	GCPolicy = core.GCPolicy
	// Stats aggregates the mount's activity counters.
	Stats = core.Stats
	// CostReport is the mount's cloud-spend snapshot (see FS.CostReport).
	CostReport = core.CostReport
	// GCReport summarizes one garbage-collection run, including the
	// $/month of storage spend it reclaimed.
	GCReport = core.GCReport
	// ObjectStore is the per-account client view of one cloud provider;
	// custom backends implement it and are mounted with WithClouds.
	ObjectStore = cloud.ObjectStore
	// MetricsSnapshot is a point-in-time copy of the mount's metrics
	// registry, carried by Stats().Telemetry on mounts built WithMetrics.
	MetricsSnapshot = telemetry.Snapshot
	// HistogramSnapshot is one latency histogram inside a MetricsSnapshot.
	HistogramSnapshot = telemetry.HistogramSnapshot
	// ProviderSpend is one provider's metered usage priced in dollars,
	// carried by Stats().Spend.
	ProviderSpend = core.ProviderSpend
	// Trace is one client operation's recorded quorum fan-out (see
	// WithTracing and FS.Traces).
	Trace = telemetry.Trace
	// Span is one per-cloud RPC attempt inside a Trace.
	Span = telemetry.Span
	// TraceID is a trace's identity (W3C trace-id shaped), as the event log
	// and the debug server's trace listings print it.
	TraceID = telemetry.TraceID
	// FlightRecorder retains exemplar traces — the slow tail and every
	// faulted operation (see WithFlightRecorder and FS.FlightRecorder).
	FlightRecorder = telemetry.FlightRecorder
	// FlightStats summarizes a FlightRecorder's retention activity.
	FlightStats = telemetry.FlightStats
)

// Open flags.
const (
	ReadOnly  = fsapi.ReadOnly
	WriteOnly = fsapi.WriteOnly
	ReadWrite = fsapi.ReadWrite
	Create    = fsapi.Create
	Truncate  = fsapi.Truncate
	Exclusive = fsapi.Exclusive
)

// Modes of operation (§3.1 of the paper).
const (
	// Blocking waits for data and metadata to be safely in the cloud(s)
	// before Close returns.
	Blocking = core.Blocking
	// NonBlocking returns from Close once the data is locally durable and
	// queued for upload.
	NonBlocking = core.NonBlocking
	// NonSharing dispenses with the coordination service entirely.
	NonSharing = core.NonSharing
)

// ACL permissions.
const (
	PermNone      = fsapi.PermNone
	PermRead      = fsapi.PermRead
	PermReadWrite = fsapi.PermReadWrite
)

// File types.
const (
	TypeFile    = fsapi.TypeFile
	TypeDir     = fsapi.TypeDir
	TypeSymlink = fsapi.TypeSymlink
)

// Sentinel errors. They wrap their io/fs counterparts, so
// errors.Is(err, fs.ErrNotExist) and friends work too.
var (
	ErrNotExist   = fsapi.ErrNotExist
	ErrExist      = fsapi.ErrExist
	ErrIsDir      = fsapi.ErrIsDir
	ErrNotDir     = fsapi.ErrNotDir
	ErrNotEmpty   = fsapi.ErrNotEmpty
	ErrPermission = fsapi.ErrPermission
	ErrLocked     = fsapi.ErrLocked
	ErrReadOnly   = fsapi.ErrReadOnly
	ErrClosed     = fsapi.ErrClosed
	ErrInvalid    = fsapi.ErrInvalid
)

// FS is a mounted SCFS file system. It wraps the SCFS agent (the client-side
// component the paper runs under FUSE) together with the backend stack the
// options assembled: simulated or caller-provided clouds, a coordination
// service, and the DepSky cloud-of-clouds dispersal. All methods are safe
// for concurrent use.
type FS struct {
	agent   *core.Agent
	metrics *telemetry.Registry
	tracer  *telemetry.Tracer
	flight  *telemetry.FlightRecorder
	debug   *debugServer
	cleanup func() // stops build-owned resources (coordination replica groups)
}

// New mounts an SCFS file system. With no options it assembles a fully
// simulated deployment: four in-process cloud providers (tolerating f=1
// faulty), a DepSpace coordination service replicated on four in-process BFT
// replicas (tolerating f=1 Byzantine) behind a pipelined client, and the
// DepSky-CA dispersal protocol — useful for tests, examples and
// experimentation. Use WithClouds to mount over real (or differently
// simulated) providers and WithCoordination to bring another coordination
// service.
//
// ctx bounds the mount itself; the mounted file system outlives it and runs
// until Close / Unmount.
func New(ctx context.Context, opts ...Option) (*FS, error) {
	cfg := defaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	agent, tel, cleanup, err := cfg.build(ctx)
	if err != nil {
		return nil, err
	}
	m := &FS{agent: agent, metrics: tel.metrics, tracer: tel.tracer, flight: tel.flight, cleanup: cleanup}
	if cfg.debugSet {
		dbg, err := startDebugServer(cfg.debugAddr, m)
		if err != nil {
			_ = agent.Unmount(context.Background())
			if cleanup != nil {
				cleanup()
			}
			return nil, err
		}
		m.debug = dbg
	}
	return m, nil
}

// Agent exposes the underlying SCFS agent for advanced use (stats,
// garbage-collection control, durability introspection).
func (m *FS) Agent() *core.Agent { return m.agent }

// Stats returns a snapshot of the mount's activity counters. On mounts
// built WithMetrics it includes the full telemetry snapshot (per-cloud RPC
// counters and latency histograms, hedge and breaker activity, readahead
// pipeline state, per-provider metered spend) under Stats.Telemetry and
// Stats.Spend.
func (m *FS) Stats() Stats { return m.agent.Stats() }

// Traces returns up to n recently completed operation traces, newest first
// (n <= 0 returns the whole ring). Empty unless the mount was built
// WithTracing (or WithDebugServer).
func (m *FS) Traces(n int) []*Trace { return m.tracer.Recent(n) }

// FlightRecorder returns the mount's flight recorder, or nil unless the
// mount was built WithFlightRecorder (or WithDebugServer). Where Traces
// holds the most *recent* operations, the recorder holds the most
// *exemplary* ones: the slowest of each operation class and everything
// that erred, hit an open breaker, or crossed a view change.
func (m *FS) FlightRecorder() *FlightRecorder { return m.flight }

// traced starts a facade-level trace for one metadata operation. An
// operation arriving with a trace already on its context — an io/fs walk
// inside a traced read — joins it instead (tr is then nil and its
// SetError/Finish no-op), so exactly one trace covers each client-visible
// operation.
func (m *FS) traced(ctx context.Context, op, unit string) (context.Context, *telemetry.Trace) {
	return m.tracer.Start(ctx, op, unit)
}

// DebugAddr returns the listen address of the mount's debug server, or ""
// when WithDebugServer was not used. With WithDebugServer(":0") this is how
// the ephemeral port is discovered.
func (m *FS) DebugAddr() string {
	if m.debug == nil {
		return ""
	}
	return m.debug.addr
}

// Open opens (or with Create, creates) a file. CallOptions set the I/O
// policy of the open and of the returned handle's reads: WithReadahead
// configures the handle's prefetch pipeline at open time, WithHedge and
// WithReadPreference shape the open's quorum reads (pass a WithPolicy
// context to the handle's ReadAt to hedge individual reads).
func (m *FS) Open(ctx context.Context, path string, flags OpenFlag, opts ...CallOption) (Handle, error) {
	ctx, tr := m.traced(callCtx(ctx, opts), "open", path)
	h, err := m.agent.Open(ctx, path, flags)
	tr.SetError(err)
	tr.Finish()
	return h, err
}

// Mkdir creates a directory (parents must exist).
func (m *FS) Mkdir(ctx context.Context, path string) error {
	ctx, tr := m.traced(ctx, "mkdir", path)
	err := m.agent.Mkdir(ctx, path)
	tr.SetError(err)
	tr.Finish()
	return err
}

// Rmdir removes an empty directory.
func (m *FS) Rmdir(ctx context.Context, path string) error {
	ctx, tr := m.traced(ctx, "rmdir", path)
	err := m.agent.Rmdir(ctx, path)
	tr.SetError(err)
	tr.Finish()
	return err
}

// Unlink removes a file (its versions are reclaimed by the garbage
// collector).
func (m *FS) Unlink(ctx context.Context, path string) error {
	ctx, tr := m.traced(ctx, "unlink", path)
	err := m.agent.Unlink(ctx, path)
	tr.SetError(err)
	tr.Finish()
	return err
}

// Rename moves a file or directory (and its subtree).
func (m *FS) Rename(ctx context.Context, oldPath, newPath string) error {
	ctx, tr := m.traced(ctx, "rename", oldPath)
	err := m.agent.Rename(ctx, oldPath, newPath)
	tr.SetError(err)
	tr.Finish()
	return err
}

// Stat returns metadata for a path.
func (m *FS) Stat(ctx context.Context, path string) (FileInfo, error) {
	ctx, tr := m.traced(ctx, "stat", path)
	fi, err := m.agent.Stat(ctx, path)
	tr.SetError(err)
	tr.Finish()
	return fi, err
}

// ReadDir lists a directory.
func (m *FS) ReadDir(ctx context.Context, path string) ([]FileInfo, error) {
	ctx, tr := m.traced(ctx, "readdir", path)
	out, err := m.agent.ReadDir(ctx, path)
	tr.SetError(err)
	tr.Finish()
	return out, err
}

// SetFacl grants or revokes a user's permission on a path.
func (m *FS) SetFacl(ctx context.Context, path, user string, perm Permission) error {
	ctx, tr := m.traced(ctx, "setfacl", path)
	err := m.agent.SetFacl(ctx, path, user, perm)
	tr.SetError(err)
	tr.Finish()
	return err
}

// GetFacl returns the ACL entries of a path.
func (m *FS) GetFacl(ctx context.Context, path string) ([]ACLEntry, error) {
	ctx, tr := m.traced(ctx, "getfacl", path)
	out, err := m.agent.GetFacl(ctx, path)
	tr.SetError(err)
	tr.Finish()
	return out, err
}

// Unmount flushes all state and releases resources (including the debug
// server, when one was started). Cancelling ctx forces the unmount,
// aborting pending background uploads.
func (m *FS) Unmount(ctx context.Context) error {
	if m.debug != nil {
		m.debug.shutdown(ctx)
	}
	err := m.agent.Unmount(ctx)
	if m.cleanup != nil {
		// The final flush may still have needed coordination, so the replica
		// groups stop only after the agent is down. Idempotent.
		m.cleanup()
	}
	return err
}

// Close is Unmount, under the name Go readers expect on a resource.
func (m *FS) Close(ctx context.Context) error { return m.Unmount(ctx) }

// WaitForUploads blocks until the background uploads queued so far have been
// processed (non-blocking and non-sharing modes), or until ctx is done.
func (m *FS) WaitForUploads(ctx context.Context) error { return m.agent.WaitForUploads(ctx) }

// Collect runs one synchronous garbage-collection pass. The report carries
// what was reclaimed along every axis of the cloud cost model, including
// the $/month of storage spend the run stopped accruing.
func (m *FS) Collect(ctx context.Context) (core.GCReport, error) { return m.agent.Collect(ctx) }

// CostReport prices the mount's current cloud footprint: files, versions
// and objects resident across the clouds, the recurring $/month they cost
// under the mount's price table (WithPriceTable), and what reading or
// reclaiming them would spend. It issues one batched metadata listing and
// moves no payload bytes.
func (m *FS) CostReport(ctx context.Context) (CostReport, error) { return m.agent.CostReport(ctx) }

// ReadFile opens path, reads it fully and closes it. A large file served by
// ranged cloud reads is asked for in one piece, so the chunks it spans are
// fetched together (up to 8 at a time) and nothing is prefetched on a guess;
// it needs no WithReadahead. CallOptions tune the read's I/O policy (hedged
// quorum reads; WithLimits may narrow the chunk fetches).
func ReadFile(ctx context.Context, m *FS, path string, opts ...CallOption) ([]byte, error) {
	return fsapi.ReadFile(callCtx(ctx, opts), m.agent, path)
}

// WriteFile creates (or truncates) path with the given contents. CallOptions
// tune the write's I/O policy.
func WriteFile(ctx context.Context, m *FS, path string, data []byte, opts ...CallOption) error {
	return fsapi.WriteFile(callCtx(ctx, opts), m.agent, path, data)
}

// WriteFileFrom streams r into path with bounded memory and returns how many
// bytes were written. CallOptions tune the write's I/O policy.
func WriteFileFrom(ctx context.Context, m *FS, path string, r io.Reader, opts ...CallOption) (int64, error) {
	return fsapi.WriteFileFrom(callCtx(ctx, opts), m.agent, path, r)
}

// ReadFileTo streams the contents of path into w through a buffer of one
// chunk and returns how many bytes were copied. CallOptions tune the read's
// I/O policy — it can only ask for one chunk at a time, so WithReadahead is
// what turns its sequential copy of a cold large file into a pipelined scan
// that prefetches upcoming chunks while the current one drains into w.
func ReadFileTo(ctx context.Context, m *FS, path string, w io.Writer, opts ...CallOption) (int64, error) {
	return fsapi.ReadFileTo(callCtx(ctx, opts), m.agent, path, w)
}
