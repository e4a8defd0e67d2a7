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
	"scfs/internal/pricing"
	"scfs/internal/resilience"
	"scfs/internal/storage"
	"scfs/internal/telemetry"
)

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
	coordination coord.Service

	memCacheBytes   int64
	diskCacheBytes  int64
	diskCacheDir    string
	metadataTTL     time.Duration
	streamThreshold int64
	ioPolicy        iopolicy.Policy
	breakers        resilience.BreakerPolicy

	metrics   bool
	tracing   bool
	eventLog  slog.Handler
	debugAddr string
	debugSet  bool
}

func defaultConfig() config {
	return config{
		user:            "user",
		mode:            Blocking,
		f:               1,
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
// providers. One store is DepSky-A at f = 0 (the paper's SCFS-AWS: the
// provider holds the contents as written); 3f+1 or more disperse them with
// DepSky-CA. Either way the mount streams large writes, serves ranged reads
// and reports metered spend.
func WithClouds(stores ...ObjectStore) Option {
	return func(c *config) { c.clouds = append([]ObjectStore(nil), stores...) }
}

// WithFaultTolerance sets f, the number of arbitrarily faulty clouds the
// cloud-of-clouds tolerates (default 1, requiring 3f+1 clouds). f is taken
// as given: New refuses f < 1 over more than one cloud, since DepSky-CA
// needs f+1 key shares. A single store always runs at f = 0.
func WithFaultTolerance(f int) Option { return func(c *config) { c.f = f } }

// WithCoordination replaces the default coordination service, DepSpace on
// four in-process BFT replicas (ignored in NonSharing mode, which uses
// none).
func WithCoordination(svc coord.Service) Option { return func(c *config) { c.coordination = svc } }

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
// (0 disables it). Default mounts run with the cache off, unlike the
// paper's experiments, which use 500ms.
func WithMetadataCacheTTL(ttl time.Duration) Option { return func(c *config) { c.metadataTTL = ttl } }

// WithStreamThreshold sets the size above which a file is no longer held
// whole in the mount's caches: read-only opens of larger files are served by
// ranged cloud reads, and larger queued uploads stream from the disk cache.
// It chooses memory residency, not the cloud layout — mounts with different
// thresholds read each other's files the same way. Negative disables both;
// 0 keeps the default (1 MiB).
func WithStreamThreshold(bytes int64) Option { return func(c *config) { c.streamThreshold = bytes } }

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
// (read, write, stat, readdir, ...) gets one trace recording a span per
// per-cloud RPC of its quorum fan-outs — which clouds were contacted, which
// were hedged, which answered, which were cancelled as losers — and per smr
// invocation of its coordination accesses, plus the quorum verdict latency.
//
// Finished traces go to the mount's flight recorder, its one trace store:
// per operation class the slowest traces plus every errored,
// breaker-skipped or view-change-crossing operation, within a fixed span
// budget, so when a tail-latency spike is noticed minutes later the traces
// explaining it are still there. Latency histograms gain exemplar trace IDs
// linking their tail buckets to the retained traces. Read it back with
// FS.FlightRecorder, or over HTTP at /debug/flight on mounts that also use
// WithDebugServer.
func WithTracing() Option { return func(c *config) { c.tracing = true } }

// WithEventLog streams one structured record per completed operation trace
// to the given slog handler (trace ID, op, unit, duration, verdict latency,
// spans). Implies WithTracing.
func WithEventLog(h slog.Handler) Option {
	return func(c *config) {
		c.eventLog = h
		c.tracing = true
	}
}

// WithDebugServer serves the mount's runtime introspection over HTTP on
// addr (use ":0" for an ephemeral port, read it back with FS.DebugAddr):
// GET /metrics in Prometheus text format, /debug/stats as JSON,
// /debug/flight as the flight recorder's retained traces, and the
// net/http/pprof profiles under /debug/pprof/. Implies WithMetrics and
// WithTracing. The server is shut down by Close/Unmount.
func WithDebugServer(addr string) Option {
	return func(c *config) {
		c.debugAddr, c.debugSet = addr, true
		c.metrics = true
		c.tracing = true
	}
}

// mountTelemetry bundles the observability handles build assembles so the
// facade can serve them (FS.FlightRecorder, the debug server).
type mountTelemetry struct {
	metrics *telemetry.Registry
	tracer  *telemetry.Tracer
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
		tel.tracer = telemetry.NewTracer(c.eventLog)
	}
	clouds := c.clouds
	if len(clouds) == 0 {
		// Fully simulated deployment: the paper's four-cloud setup, extended
		// with additional generic providers when f > 1 asks for more than
		// 3*1+1 clouds.
		for _, p := range cloudsim.NewCoCProviders(1, nil, 1) {
			clouds = append(clouds, p.MustClient(p.CreateAccount(c.user)))
		}
		for i := len(clouds); i < 3*c.f+1; i++ {
			p := cloudsim.NewProviderKind(cloudsim.ProviderKind(fmt.Sprintf("sim-extra-%d", i)), 1, nil, int64(i))
			clouds = append(clouds, p.MustClient(p.CreateAccount(c.user)))
		}
	}

	// One cloud is DepSky at f = 0: every key a second agent fetches sits at
	// that provider, so DepSky-A, which stores the value as is (the paper's
	// SCFS-AWS), serves it; more clouds disperse it with DepSky-CA.
	f, protocol := c.f, depsky.ProtocolCA
	if len(clouds) == 1 {
		f, protocol = 0, depsky.ProtocolA
	}
	mgr, err := depsky.New(depsky.Options{
		Clouds:   clouds,
		F:        f,
		Protocol: protocol,
		Policy:   c.ioPolicy,
		Pricing:  pricing.DefaultTable(),
		Breakers: c.breakers,
		Metrics:  tel.metrics,
		Tracer:   tel.tracer,
	})
	if err != nil {
		return nil, tel, nil, fmt.Errorf("scfs: building the storage backend over %d clouds: %w", len(clouds), err)
	}
	// Spend only surfaces on metered mounts: keeping Stats() free of meter
	// polling is part of the "disabled telemetry costs nothing" contract
	// (plain mounts still have CostReport).
	var metered func() []core.ProviderSpend
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
		Storage:              storage.NewCloudOfClouds(mgr),
		PNSStorage:           storage.NewCoCPNS(mgr),
		UsePNS:               c.usePNS,
		GC:                   c.gc,
		MemoryCacheBytes:     c.memCacheBytes,
		DiskCacheDir:         c.diskCacheDir,
		DiskCacheBytes:       c.diskCacheBytes,
		MetadataCacheTTL:     c.metadataTTL,
		StreamThresholdBytes: c.streamThreshold,
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
// four replicas, f = 1). The returned stop shuts the group down and may run
// more than once.
func (c *config) buildCoordination() (coord.Service, func(), error) {
	g, err := depspace.NewGroup(c.user + "-coord")
	if err != nil {
		return nil, nil, fmt.Errorf("scfs: building the coordination service: %w", err)
	}
	return coord.NewDepSpaceService(depspace.NewClient(g.Invoker, c.user, nil)), g.Stop, nil
}
