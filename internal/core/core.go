// Package core implements the SCFS Agent, the client-side component that
// provides the shared cloud-backed file system of the paper: a POSIX-like
// API (internal/fsapi) with consistency-on-close semantics, whole-file
// caching in memory and on local disk, metadata and locks kept in a
// fault-tolerant coordination service, file data pushed to a single cloud or
// to a cloud-of-clouds backend, private name spaces for non-shared files,
// multi-versioning with a configurable garbage collector, and three modes of
// operation (blocking, non-blocking, non-sharing).
package core

import (
	"cmp"
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"os"
	"sync"
	"time"

	"scfs/internal/cache"
	"scfs/internal/clock"
	"scfs/internal/coord"
	"scfs/internal/depsky"
	"scfs/internal/fsapi"
	"scfs/internal/fsmeta"
	"scfs/internal/storage"
	"scfs/internal/telemetry"
)

// Mode selects the consistency/durability tradeoff of the agent (§3.1).
type Mode int

const (
	// Blocking waits for data and metadata to be safely in the cloud(s)
	// before close returns (durability level 2/3, strongest sharing
	// guarantees).
	Blocking Mode = iota
	// NonBlocking returns from close once the data is on the local disk and
	// queued for upload; metadata is updated and the lock released only
	// after the upload completes, so mutual exclusion is preserved.
	NonBlocking
	// NonSharing dispenses with the coordination service entirely: all
	// metadata lives in the user's private name space and uploads happen in
	// the background (a design similar to S3QL, but optionally over a
	// cloud-of-clouds).
	NonSharing
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if names := [...]string{Blocking: "blocking", NonBlocking: "non-blocking", NonSharing: "non-sharing"}; m >= 0 && int(m) < len(names) {
		return names[m]
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// GCPolicy configures the garbage collector (§2.5.3).
type GCPolicy struct {
	// TriggerBytes starts a collection after this many bytes have been
	// written by the agent (the paper's W parameter). Zero disables the
	// automatic trigger (Collect can still be called explicitly).
	TriggerBytes int64
	// KeepVersions is the number of most recent versions preserved per file
	// (the paper's V parameter). Minimum 1.
	KeepVersions int
}

// Options configures an Agent.
type Options struct {
	// User is the SCFS principal mounting the file system.
	User string
	// AgentID uniquely identifies this mount (lock ownership). Defaults to
	// User plus a random suffix.
	AgentID string
	// Mode selects blocking, non-blocking or non-sharing operation.
	Mode Mode
	// Coordination is the coordination service; required unless Mode is
	// NonSharing.
	Coordination coord.Service
	// Storage is the cloud storage backend: a storage.CloudOfClouds over one
	// cloud at f = 0 or over 3f+1 or more.
	Storage storage.VersionedStore
	// PNSStorage persists the user's private name space in the cloud; it is
	// required when UsePNS is true or Mode is NonSharing.
	PNSStorage storage.PNSStore

	// MemoryCacheBytes bounds the main-memory cache of open files
	// (default 256 MiB).
	MemoryCacheBytes int64
	// DiskCacheDir and DiskCacheBytes configure the local disk cache
	// (default: a temporary directory, 1 GiB).
	DiskCacheDir   string
	DiskCacheBytes int64
	// MetadataCacheTTL is the expiration of the short-lived metadata cache
	// (500 ms in the paper's experiments; 0 disables it).
	MetadataCacheTTL time.Duration
	// LockTTL is the lease attached to ephemeral write locks (default 60s).
	LockTTL time.Duration

	// UsePNS keeps the metadata of non-shared files in a private name space
	// instead of the coordination service (§2.7).
	UsePNS bool

	// GC configures garbage collection.
	GC GCPolicy

	// Telemetry, when set, is the mount's metrics registry: the agent
	// registers pull gauges for its own state (upload queue depth, open
	// files, cache hits) and Stats embeds a full registry snapshot, so one
	// call answers both the file-system-level and the dispatch-level
	// questions.
	Telemetry *telemetry.Registry
	// Metered, when set, reports the per-provider metered consumption and
	// dollar spend of the storage backend; Stats surfaces it verbatim. The
	// facade wires it to the cloud-of-clouds manager's meters.
	Metered func() []ProviderSpend

	// Clock defaults to the real clock.
	Clock clock.Clock
}

// ProviderSpend is one storage provider's metered consumption priced under
// its rate card, as surfaced by Stats: the backend's own usage report.
type ProviderSpend = depsky.ProviderUsage

func (o Options) withDefaults() (Options, error) {
	if o.User == "" {
		return o, fmt.Errorf("core: Options.User is required")
	}
	if o.Storage == nil {
		return o, fmt.Errorf("core: Options.Storage is required")
	}
	if o.Mode != NonSharing && o.Coordination == nil {
		return o, fmt.Errorf("core: Options.Coordination is required in %s mode", o.Mode)
	}
	if (o.Mode == NonSharing || o.UsePNS) && o.PNSStorage == nil {
		return o, fmt.Errorf("core: Options.PNSStorage is required when private name spaces are used")
	}
	if o.AgentID == "" {
		o.AgentID = o.User + "-" + randomID()
	}
	if o.MemoryCacheBytes <= 0 {
		o.MemoryCacheBytes = 256 << 20
	}
	if o.DiskCacheBytes <= 0 {
		o.DiskCacheBytes = 1 << 30
	}
	if o.LockTTL <= 0 {
		o.LockTTL = 60 * time.Second
	}
	if o.GC.KeepVersions < 1 {
		o.GC.KeepVersions = 1
	}
	if o.Clock == nil {
		o.Clock = clock.Real()
	}
	return o, nil
}

func randomID() string {
	b := make([]byte, 6)
	rand.Read(b) // it never fails: it crashes the program instead
	return hex.EncodeToString(b)
}

// Stats aggregates the agent's activity counters; experiments use them to
// attribute latency and cost.
type Stats struct {
	CloudReads     int64
	CloudWrites    int64
	CloudBytesUp   int64
	CloudBytesDown int64

	CoordAccesses int64

	MemCacheHits    int64
	MemCacheMisses  int64
	DiskCacheHits   int64
	DiskCacheMisses int64
	MetaCacheHits   int64
	MetaCacheMisses int64

	FilesOpened   int64
	FilesClosed   int64
	BytesWritten  int64
	GCsTriggered  int64
	UploadsQueued int64
	UploadErrors  int64
	// WastedUploads counts the versions WriteFile uploaded beside its open
	// that no close anchored (see WriteFile). Their objects stay in the
	// clouds: the prefix may hold a live version of the same bytes.
	WastedUploads int64

	// Telemetry is a snapshot of the mount's metrics registry (empty when
	// the mount was built without one). It carries the dispatch-level
	// counters — per-cloud RPCs, hedges, retries, breaker transitions,
	// readahead activity — that the flat fields above do not.
	Telemetry telemetry.Snapshot
	// Spend is the per-provider metered consumption and priced dollar spend
	// of the storage backend, when it exposes meters.
	Spend []ProviderSpend
}

// Agent is the SCFS client mounted at a user machine. It implements
// fsapi.FileSystem.
type Agent struct {
	opts Options
	clk  clock.Clock

	// baseCtx scopes the agent's background work (the upload worker, GC
	// runs it starts itself) to the mount's lifetime; cancelling a single
	// operation's ctx never kills them, a forced Unmount does.
	baseCtx    context.Context
	cancelBase context.CancelFunc

	memCache  *cache.Memory
	diskCache *cache.Disk
	metaCache *cache.Metadata
	// fileIDs maps a path to the file ID of the live record last seen there:
	// the hint WriteFile names its early upload by (remember keeps it).
	fileIDs  *cache.Memory
	pnsLease *coord.Lease // the PNS lock, held until Unmount

	// mu protects the namespace maps and counters below.
	mu        sync.Mutex
	openFiles map[string]*openFile
	pns       *fsmeta.PNS
	pnsDirty  bool
	closed    bool

	bytesSinceGC int64
	gcRunning    bool

	stats struct {
		sync.Mutex
		s Stats
	}

	// Background uploader (non-blocking and non-sharing modes).
	uploadCh chan uploadTask
	uploadWG sync.WaitGroup
}

var _ fsapi.FileSystem = (*Agent)(nil)

// residencyBound is the size above which a read-only open no longer holds a
// version whole: it attaches a ranged reader, and ReadAt fetches only the
// chunks it covers. Every other open fetches the version whole. It chooses
// memory residency only; how a version is laid out in the clouds is the
// backend's business.
const residencyBound = 1 << 20

// fileIDHintBytes bounds the file-ID hint by the bytes of the IDs it holds:
// some tens of thousands of paths.
const fileIDHintBytes = 512 << 10

// New mounts an SCFS agent with the given options. The ctx bounds only the
// mount itself (loading the private name space, acquiring the PNS lock);
// the mounted agent is independent of it and lives until Unmount.
func New(ctx context.Context, opts Options) (*Agent, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	diskDir := opts.DiskCacheDir
	if diskDir == "" {
		if diskDir, err = os.MkdirTemp("", "scfs-cache-"); err != nil {
			return nil, fmt.Errorf("core: creating disk cache directory: %w", err)
		}
	}
	disk, err := cache.NewDisk(diskDir, opts.DiskCacheBytes)
	if err != nil {
		return nil, err
	}
	// With metrics on, every coordination access is also exported as a
	// coord_ops_total{op} counter (satisfying the paper's §4 focus on
	// coordination accesses as the dominant metadata cost).
	if opts.Telemetry != nil && opts.Coordination != nil {
		opts.Coordination = coord.Instrument(opts.Coordination, opts.Telemetry)
	}
	// The agent's background workers outlive any single caller; their root
	// is the mount lifetime, torn down by Close/Unmount via cancelBase.
	baseCtx, cancelBase := context.WithCancel(context.Background())
	a := &Agent{
		opts:       opts,
		clk:        opts.Clock,
		baseCtx:    baseCtx,
		cancelBase: cancelBase,
		memCache:   cache.NewMemory(opts.MemoryCacheBytes),
		diskCache:  disk,
		metaCache:  cache.NewMetadata(opts.MetadataCacheTTL, opts.Clock),
		fileIDs:    cache.NewMemory(fileIDHintBytes),
		openFiles:  make(map[string]*openFile),
		uploadCh:   make(chan uploadTask, 1024),
	}
	// Evicted open-file contents fall back to the disk cache.
	a.memCache.OnEvict = func(key string, value []byte) {
		_ = a.diskCache.Put(key, value)
	}
	if opts.Telemetry != nil {
		a.registerGauges(opts.Telemetry)
	}
	if opts.UsePNS || opts.Mode == NonSharing {
		if err := a.loadPNS(ctx); err != nil {
			a.pnsLease.Release(ctx) // the next mount need not wait out the lease
			cancelBase()
			return nil, err
		}
	}
	a.uploadWG.Add(1)
	go a.uploadWorker()
	return a, nil
}

// Stats returns a snapshot of the activity counters, merging in the
// coordination-service access count and cache statistics.
func (a *Agent) Stats() Stats {
	a.stats.Lock()
	s := a.stats.s
	a.stats.Unlock()
	if a.opts.Coordination != nil {
		s.CoordAccesses = a.opts.Coordination.Stats().Total()
	}
	s.MemCacheHits, s.MemCacheMisses = a.memCache.Stats()
	s.DiskCacheHits, s.DiskCacheMisses = a.diskCache.Stats()
	s.MetaCacheHits, s.MetaCacheMisses = a.metaCache.Stats()
	if a.opts.Telemetry != nil {
		s.Telemetry = a.opts.Telemetry.Snapshot()
	}
	if a.opts.Metered != nil {
		s.Spend = a.opts.Metered()
	}
	return s
}

// registerGauges publishes the agent's own state as pull gauges: values are
// read at snapshot time, so the file-system hot path is untouched.
func (a *Agent) registerGauges(reg *telemetry.Registry) {
	reg.RegisterGauge("agent_upload_queue_depth", func() int64 {
		return int64(len(a.uploadCh))
	})
	reg.RegisterGauge("agent_open_files", func() int64 {
		a.mu.Lock()
		defer a.mu.Unlock()
		return int64(len(a.openFiles))
	})
	stat := func(pick func(Stats) int64) func() int64 {
		return func() int64 {
			a.stats.Lock()
			defer a.stats.Unlock()
			return pick(a.stats.s)
		}
	}
	reg.RegisterGauge("agent_gcs_triggered_total", stat(func(s Stats) int64 { return s.GCsTriggered }))
	reg.RegisterGauge("agent_uploads_queued_total", stat(func(s Stats) int64 { return s.UploadsQueued }))
	reg.RegisterGauge("agent_upload_errors_total", stat(func(s Stats) int64 { return s.UploadErrors }))
	reg.RegisterGauge("agent_bytes_written_total", stat(func(s Stats) int64 { return s.BytesWritten }))
	reg.RegisterGauge("agent_cloud_reads_total", stat(func(s Stats) int64 { return s.CloudReads }))
	reg.RegisterGauge("agent_cloud_writes_total", stat(func(s Stats) int64 { return s.CloudWrites }))
	cachePair := func(name string, stats func() (int64, int64)) {
		reg.RegisterGauge(telemetry.Name(name, "result", "hit"), func() int64 { h, _ := stats(); return h })
		reg.RegisterGauge(telemetry.Name(name, "result", "miss"), func() int64 { _, m := stats(); return m })
	}
	cachePair("agent_mem_cache_lookups", a.memCache.Stats)
	cachePair("agent_disk_cache_lookups", a.diskCache.Stats)
	cachePair("agent_meta_cache_lookups", a.metaCache.Stats)
}

func (a *Agent) addStat(f func(*Stats)) {
	a.stats.Lock()
	f(&a.stats.s)
	a.stats.Unlock()
}

// Unmount flushes pending uploads and the private name space, releases the
// name space's lock, then releases resources. The agent must not be used
// afterwards. Cancelling ctx turns the graceful drain into a forced one:
// the in-flight background uploads are aborted (their versions stay
// unanchored and will be re-uploaded by a future mount's dirty-cache
// recovery or simply superseded) and Unmount returns ctx.Err().
func (a *Agent) Unmount(ctx context.Context) error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil
	}
	a.closed = true
	a.mu.Unlock()

	close(a.uploadCh)
	drained := make(chan struct{})
	go func() { a.uploadWG.Wait(); close(drained) }()
	var forced error
	flushCtx := ctx
	select {
	case <-drained:
	case <-ctx.Done():
		forced = ctx.Err()
		a.cancelBase() // abort the in-flight uploads
		<-drained
		// The caller's ctx is dead, but the private name space should not
		// be lost if it can still be flushed quickly: give the final flush
		// its own short deadline.
		var cancelFlush context.CancelFunc
		flushCtx, cancelFlush = context.WithTimeout(context.Background(), 5*time.Second)
		defer cancelFlush()
	}
	a.cancelBase()

	// Final PNS flush, then its lock goes: the user's next mount need not
	// wait out the lease.
	err := a.flushPNS(flushCtx)
	a.pnsLease.Release(flushCtx)
	return cmp.Or(err, forced)
}

// isShared decides whether a path's metadata must live in the coordination
// service (shared) or may live in the PNS (private).
func (a *Agent) isShared(md *fsmeta.Metadata) bool {
	if a.opts.Mode == NonSharing {
		return false
	}
	if !a.opts.UsePNS {
		return true // without PNS every entry goes to the coordination service
	}
	return md.IsShared()
}

func (a *Agent) checkOpen(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return fsapi.ErrClosed
	}
	return nil
}
