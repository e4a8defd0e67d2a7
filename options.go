package scfs

import (
	"context"
	"fmt"
	"log/slog"
	"time"

	"scfs/internal/cloudsim"
	"scfs/internal/coord"
	"scfs/internal/core"
	"scfs/internal/depsky"
	"scfs/internal/depspace"
	"scfs/internal/iopolicy"
	"scfs/internal/metashard"
	"scfs/internal/pricing"
	"scfs/internal/resilience"
	"scfs/internal/storage"
	"scfs/internal/telemetry"
)

// Pricing types, re-exported so mounts can bring their own price tables.
type (
	// PriceTable maps provider names to their rate cards; it prices the
	// metered spend, the dollars the garbage collector reports reclaimed
	// and CostReport.
	PriceTable = pricing.Table
	// CloudRates is the price card of one provider.
	CloudRates = pricing.Rates
)

// DefaultPriceTable returns the bundled price table for the simulated
// providers (realistic list prices for the paper's four clouds; see
// internal/pricing).
func DefaultPriceTable() PriceTable { return pricing.DefaultTable() }

// Option configures a mount created by New.
type Option func(*config)

// config collects the functional options before build assembles the stack.
type config struct {
	user   string
	mode   Mode
	f      int
	gc     GCPolicy
	usePNS bool

	clouds       []ObjectStore
	simLatency   float64
	coordination coord.Service
	coordShards  int

	memCacheBytes   int64
	diskCacheBytes  int64
	diskCacheDir    string
	metadataTTL     time.Duration
	streamThreshold int64
	lockTTL         time.Duration
	ioPolicy        iopolicy.Policy
	breakers        resilience.BreakerPolicy
	pricing         pricing.Table
	pricingSet      bool

	metrics   bool
	tracing   bool
	traceCap  int
	flight    bool
	eventLog  slog.Handler
	debugAddr string
	debugSet  bool
}

func defaultConfig() config {
	return config{
		user:            "user",
		mode:            Blocking,
		f:               1,
		simLatency:      0,
		streamThreshold: 0, // 0 = core default (1 MiB)
	}
}

// WithUser sets the SCFS principal mounting the file system (default
// "user").
func WithUser(user string) Option { return func(c *config) { c.user = user } }

// WithMode selects blocking, non-blocking or non-sharing operation (default
// Blocking).
func WithMode(mode Mode) Option { return func(c *config) { c.mode = mode } }

// WithClouds mounts over the given object stores instead of simulated
// providers. One store selects the single-cloud backend; 3f+1 or more select
// the DepSky cloud-of-clouds.
func WithClouds(stores ...ObjectStore) Option {
	return func(c *config) { c.clouds = append([]ObjectStore(nil), stores...) }
}

// WithFaultTolerance sets f, the number of arbitrarily faulty clouds the
// cloud-of-clouds tolerates (default 1, requiring 3f+1 clouds).
func WithFaultTolerance(f int) Option { return func(c *config) { c.f = f } }

// WithSimulatedLatency scales the simulated providers' network latency:
// 0 (the default) mounts instant in-process clouds, 1.0 reproduces the
// paper's measured RTT magnitudes. Ignored when WithClouds is used.
func WithSimulatedLatency(scale float64) Option { return func(c *config) { c.simLatency = scale } }

// WithCoordination replaces the default coordination service, DepSpace on
// four in-process BFT replicas (ignored in NonSharing mode, which uses
// none).
func WithCoordination(svc coord.Service) Option { return func(c *config) { c.coordination = svc } }

// WithCoordShards partitions the metadata namespace across n coordination
// service instances by stable key hash — the scale-out the paper proposes
// for going beyond one coordination service. Single-key operations route to
// one shard, listings fan out and merge deterministically, and concurrent
// updates of one key keep hitting the same shard, preserving conditional
// update semantics. Each shard is its own four-replica DepSpace group.
// Applies to the default coordination service; ignored when WithCoordination
// supplies a custom service (shard externally with internal/metashard in
// that case) and in NonSharing mode.
func WithCoordShards(n int) Option { return func(c *config) { c.coordShards = n } }

// WithGC configures the multi-version garbage collector.
func WithGC(policy GCPolicy) Option { return func(c *config) { c.gc = policy } }

// WithPrivateNameSpaces keeps the metadata of non-shared files in the user's
// private name space (§2.7 of the paper) instead of the coordination
// service.
func WithPrivateNameSpaces() Option { return func(c *config) { c.usePNS = true } }

// WithMemoryCache bounds the in-memory cache of open files.
func WithMemoryCache(bytes int64) Option { return func(c *config) { c.memCacheBytes = bytes } }

// WithDiskCache places the local disk cache in dir with the given size
// bound. An empty dir uses a temporary directory.
func WithDiskCache(dir string, bytes int64) Option {
	return func(c *config) { c.diskCacheDir, c.diskCacheBytes = dir, bytes }
}

// WithMetadataCacheTTL sets the expiry of the short-lived metadata cache
// (0 disables it; the paper's experiments use 500ms).
func WithMetadataCacheTTL(ttl time.Duration) Option { return func(c *config) { c.metadataTTL = ttl } }

// WithStreamThreshold sets the size above which a file is no longer held
// whole in the mount's caches: read-only opens of larger files are served by
// ranged cloud reads, and larger queued uploads stream from the disk cache.
// It chooses memory residency, not the cloud layout — mounts with different
// thresholds read each other's files the same way. Negative disables both;
// 0 keeps the default (1 MiB).
func WithStreamThreshold(bytes int64) Option { return func(c *config) { c.streamThreshold = bytes } }

// WithLockTTL sets the lease attached to ephemeral write locks.
func WithLockTTL(ttl time.Duration) Option { return func(c *config) { c.lockTTL = ttl } }

// WithPriceTable replaces the bundled per-provider price table (matched by
// ObjectStore.Provider() name). The table prices the metered spend, the
// dollars the garbage collector reports reclaimed, and CostReport. Mounts
// without this option use DefaultPriceTable.
func WithPriceTable(t PriceTable) Option {
	return func(c *config) { c.pricing, c.pricingSet = t, true }
}

// WithDefaultIOPolicy sets the mount-wide default I/O policy from the same
// CallOptions used per call: every operation behaves as if the options were
// passed to it, and per-call options (or a WithPolicy context) are overlaid
// on top. Use it to make hedged reads or readahead the mount's default:
//
//	mount, _ := scfs.New(ctx, scfs.WithDefaultIOPolicy(scfs.WithHedge(0.95)))
func WithDefaultIOPolicy(opts ...CallOption) Option {
	return func(c *config) { c.ioPolicy = applyCallOptions(c.ioPolicy, opts) }
}

// BreakerPolicy tunes the cloud-of-clouds' per-(cloud, op-class) circuit
// breakers: how many consecutive transient failures mark a cloud suspected
// and how long it stays demoted before a recovery probe. The zero value
// keeps the defaults (4 failures, 2s cooldown); Disable mounts without
// breakers. How a given operation treats suspected clouds is the per-call
// WithBreaker option.
type BreakerPolicy = resilience.BreakerPolicy

// WithBreakerPolicy tunes (or disables) the mount's circuit breakers.
func WithBreakerPolicy(pol BreakerPolicy) Option {
	return func(c *config) { c.breakers = pol }
}

// WithMetrics gives the mount a metrics registry. Every layer of the stack
// instruments itself against it — per-cloud RPC counts and latency
// histograms, hedge fires and suppressions, retries, breaker transitions,
// readahead pipeline activity, cache hits, upload queue depth, and each
// provider's metered usage priced in dollars. Stats().Telemetry carries a
// full snapshot; a disabled mount (the default) pays nothing beyond a nil
// check on the hot path.
func WithMetrics() Option { return func(c *config) { c.metrics = true } }

// WithTracing gives the mount a request tracer: every client operation
// (read, write, open, delete) gets a trace recording one span per per-cloud
// RPC of its quorum fan-outs — which clouds were contacted, which were
// hedged, which answered, which were cancelled as losers — plus the quorum
// verdict latency. The last capacity completed traces are kept in a ring
// (capacity <= 0 keeps 64); read them with FS.Traces.
func WithTracing(capacity int) Option {
	return func(c *config) { c.tracing, c.traceCap = true, capacity }
}

// WithFlightRecorder keeps exemplar traces past the tracer's recency ring:
// the slowest traces of every operation class plus every errored,
// breaker-skipped or view-change-crossing operation, within a bounded span
// budget — so when a tail-latency spike is noticed minutes later, the traces
// explaining it are still there. Latency histograms gain exemplar trace IDs
// linking their tail buckets to the retained traces. Implies WithTracing;
// read it back with FS.FlightRecorder, or over HTTP via /debug/slow and
// /debug/flight on mounts that also use WithDebugServer.
func WithFlightRecorder() Option {
	return func(c *config) {
		c.flight = true
		c.tracing = true
	}
}

// WithEventLog streams one structured record per completed operation trace
// to the given slog handler (op, unit, duration, verdict latency, spans).
// Implies WithTracing if no capacity was set.
func WithEventLog(h slog.Handler) Option {
	return func(c *config) {
		c.eventLog = h
		c.tracing = true
	}
}

// WithDebugServer serves the mount's runtime introspection over HTTP on
// addr (use ":0" for an ephemeral port, read it back with FS.DebugAddr):
// GET /metrics in Prometheus text format, /debug/stats as JSON,
// /debug/traces as recent operation traces, /debug/slow and /debug/flight
// as the flight recorder's retained exemplars, and the net/http/pprof
// profiles under /debug/pprof/. Implies WithMetrics, WithTracing and
// WithFlightRecorder. The server is shut down by Close/Unmount.
func WithDebugServer(addr string) Option {
	return func(c *config) {
		c.debugAddr, c.debugSet = addr, true
		c.metrics = true
		c.tracing = true
		c.flight = true
	}
}

// mountTelemetry bundles the observability handles build assembles so the
// facade can serve them (FS.Traces, the debug server).
type mountTelemetry struct {
	metrics *telemetry.Registry
	tracer  *telemetry.Tracer
	flight  *telemetry.FlightRecorder
}

// build assembles the provider, coordination and storage stack and mounts
// the agent. The returned cleanup (which may be nil) releases resources the
// agent does not own — the in-process coordination replica groups — and must
// run after the agent unmounts.
func (c *config) build(ctx context.Context) (*core.Agent, mountTelemetry, func(), error) {
	var tel mountTelemetry
	if c.metrics {
		tel.metrics = telemetry.NewRegistry()
	}
	if c.tracing {
		tel.tracer = telemetry.NewTracer(c.traceCap)
		if c.eventLog != nil {
			tel.tracer.SetHandler(c.eventLog)
		}
		if c.flight {
			tel.flight = telemetry.NewFlightRecorder(0, 0, 0)
			tel.tracer.SetRecorder(tel.flight)
		}
	}
	if c.f < 1 {
		c.f = 1
	}
	clouds := c.clouds
	if len(clouds) == 0 {
		// Fully simulated deployment: the paper's four-cloud setup, extended
		// with additional generic providers when f > 1 asks for more than
		// 3*1+1 clouds.
		for _, p := range cloudsim.NewCoCProviders(c.simLatency, nil, 1) {
			clouds = append(clouds, p.MustClient(p.CreateAccount(c.user)))
		}
		for i := len(clouds); i < 3*c.f+1; i++ {
			p := cloudsim.NewProviderKind(cloudsim.ProviderKind(fmt.Sprintf("sim-extra-%d", i)), c.simLatency, nil, int64(i))
			clouds = append(clouds, p.MustClient(p.CreateAccount(c.user)))
		}
	}

	prices := c.pricing
	if !c.pricingSet {
		prices = pricing.DefaultTable()
	}

	var (
		store   storage.VersionedStore
		pns     storage.PNSStore
		metered func() []core.ProviderSpend
	)
	switch {
	case len(clouds) == 1:
		sc, err := storage.NewSingleCloud(clouds[0], true)
		if err != nil {
			return nil, tel, nil, fmt.Errorf("scfs: building single-cloud backend: %w", err)
		}
		sc.SetRates(prices.For(clouds[0].Provider()))
		store = sc
		pns = storage.NewSingleCloudPNS(clouds[0])
	case len(clouds) >= 3*c.f+1:
		mgr, err := depsky.New(depsky.Options{
			Clouds:   clouds,
			F:        c.f,
			Policy:   c.ioPolicy,
			Pricing:  prices,
			Breakers: c.breakers,
			Metrics:  tel.metrics,
			Tracer:   tel.tracer,
		})
		if err != nil {
			return nil, tel, nil, fmt.Errorf("scfs: building cloud-of-clouds backend: %w", err)
		}
		store = storage.NewCloudOfClouds(mgr)
		pns = storage.NewCoCPNS(mgr)
		// Spend only surfaces on metered mounts: keeping Stats() free of
		// meter polling is part of the "disabled telemetry costs nothing"
		// contract (plain mounts still have CostReport).
		if c.metrics {
			metered = func() []core.ProviderSpend {
				usage := mgr.MeteredUsage()
				out := make([]core.ProviderSpend, len(usage))
				for i, u := range usage {
					out[i] = core.ProviderSpend{Provider: u.Provider, Usage: u.Usage, Dollars: u.Dollars}
				}
				return out
			}
		}
	default:
		return nil, tel, nil, fmt.Errorf("scfs: need 1 cloud or at least %d (3f+1 with f=%d), have %d", 3*c.f+1, c.f, len(clouds))
	}

	coordination := c.coordination
	var cleanup func()
	if coordination == nil && c.mode != NonSharing {
		var err error
		coordination, cleanup, err = c.buildCoordination()
		if err != nil {
			return nil, tel, nil, err
		}
	}

	agent, err := core.New(ctx, core.Options{
		User:                 c.user,
		Mode:                 c.mode,
		Coordination:         coordination,
		Storage:              store,
		PNSStorage:           pns,
		UsePNS:               c.usePNS,
		GC:                   c.gc,
		MemoryCacheBytes:     c.memCacheBytes,
		DiskCacheDir:         c.diskCacheDir,
		DiskCacheBytes:       c.diskCacheBytes,
		MetadataCacheTTL:     c.metadataTTL,
		StreamThresholdBytes: c.streamThreshold,
		LockTTL:              c.lockTTL,
		Telemetry:            tel.metrics,
		Metered:              metered,
	})
	if err != nil {
		if cleanup != nil {
			cleanup()
		}
		return nil, tel, nil, err
	}
	return agent, tel, cleanup, nil
}

// buildCoordination assembles the default coordination service as the
// paper deploys it: one BFT-replicated DepSpace group (depspace.NewGroup:
// four replicas, f = 1) for each of the WithCoordShards shards,
// metashard-partitioned when there are several. The returned stop shuts
// every group down and may run more than once.
func (c *config) buildCoordination() (coord.Service, func(), error) {
	shards := make([]coord.Service, max(c.coordShards, 1))
	var groups []*depspace.Group
	stop := func() {
		for _, g := range groups {
			g.Stop()
		}
	}
	for i := range shards {
		g, err := depspace.NewGroup(fmt.Sprintf("%s-coord-%d", c.user, i))
		if err != nil {
			stop()
			return nil, nil, fmt.Errorf("scfs: building coordination shard %d: %w", i, err)
		}
		groups = append(groups, g)
		shards[i] = coord.NewDepSpaceService(depspace.NewClient(g.Invoker, c.user, nil))
	}
	if len(shards) == 1 {
		return shards[0], stop, nil
	}
	sharded, err := metashard.New(shards)
	if err != nil {
		stop()
		return nil, nil, err
	}
	return sharded, stop, nil
}
