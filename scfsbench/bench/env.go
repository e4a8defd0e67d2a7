package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"scfs"
	"scfs/internal/clock"
	"scfs/internal/cloud"
	"scfs/internal/cloudsim"
	"scfs/internal/coord"
	"scfs/internal/core"
	"scfs/internal/depsky"
	"scfs/internal/depspace"
	"scfs/internal/fsapi"
	"scfs/internal/pricing"
	"scfs/internal/smr"
	"scfs/internal/storage"
	"scfs/scfsbench/spans"
)

// User is the principal every mount of the benchmark acts as. The two agents
// of a workload are the same user with their own caches and agent IDs.
const User = "bench"

// gateClock is the clock handed to the simulators. While fast is set their
// latency sleeps return at once and move the clock forward by what they would
// have slept, so preloading and warming the namespace cost processor time
// only while consistency windows still pass in simulated time.
type gateClock struct {
	fast    atomic.Bool
	skipped atomic.Int64 // nanoseconds of sleep not slept
}

var _ clock.Clock = (*gateClock)(nil)

func (g *gateClock) Now() time.Time {
	return time.Now().Add(time.Duration(g.skipped.Load()))
}

func (g *gateClock) Since(t time.Time) time.Duration { return g.Now().Sub(t) }

func (g *gateClock) Sleep(d time.Duration) {
	if g.fast.Load() {
		g.skipped.Add(int64(d))
		return
	}
	time.Sleep(d)
}

func (g *gateClock) After(d time.Duration) <-chan time.Time {
	if !g.fast.Load() {
		return time.After(d)
	}
	g.skipped.Add(int64(d))
	ch := make(chan time.Time, 1)
	ch <- g.Now()
	return ch
}

// mount is what the clients need from a mounted file system. The untraced
// pass satisfies it with the scfs facade, the traced pass with a core.Agent
// assembled from tapped parts.
type mount interface {
	Open(ctx context.Context, path string, flags fsapi.OpenFlag) (fsapi.Handle, error)
	Mkdir(ctx context.Context, path string) error
	Unlink(ctx context.Context, path string) error
	Rename(ctx context.Context, oldPath, newPath string) error
	Stat(ctx context.Context, path string) (fsapi.FileInfo, error)
	ReadDir(ctx context.Context, path string) ([]fsapi.FileInfo, error)
	ReadFile(ctx context.Context, path string) ([]byte, error)
	WriteFile(ctx context.Context, path string, data []byte) error
	Collect(ctx context.Context) (core.GCReport, error)
	Stats() core.Stats
	Close(ctx context.Context) error
}

// facadeMount adapts the facade, whose Open and file helpers take call
// options; every other method is the facade's own.
type facadeMount struct{ *scfs.FS }

func (m facadeMount) Open(ctx context.Context, path string, flags fsapi.OpenFlag) (fsapi.Handle, error) {
	return m.FS.Open(ctx, path, flags)
}
func (m facadeMount) ReadFile(ctx context.Context, path string) ([]byte, error) {
	return scfs.ReadFile(ctx, m.FS, path)
}
func (m facadeMount) WriteFile(ctx context.Context, path string, data []byte) error {
	return scfs.WriteFile(ctx, m.FS, path, data)
}

type agentMount struct{ *core.Agent }

func (m agentMount) ReadFile(ctx context.Context, path string) ([]byte, error) {
	return fsapi.ReadFile(ctx, m.Agent, path)
}
func (m agentMount) WriteFile(ctx context.Context, path string, data []byte) error {
	return fsapi.WriteFile(ctx, m.Agent, path, data)
}
func (m agentMount) Close(ctx context.Context) error { return m.Agent.Unmount(ctx) }

// taps are the recording wrappers of one traced deployment.
type taps struct {
	rec     *spans.Recorder
	coord   *coordTap
	upper   *invokerTap // one invocation per tuple-space command
	lower   *invokerTap // below the coalescer: one per consensus round; nil without one
	storage []*storageTap
	clouds  []*cloudTap
}

// Env is one assembled deployment: simulated clouds and coordination, and
// the two agents mounted on them.
type Env struct {
	W    Workload
	A, B mount

	clk      *gateClock
	accounts []cloud.ObjectStore // the simulators' own clients, for metering
	stops    []func()
	dirs     []string
	taps     *taps         // nil on the untraced pass
	fast     bool          // Mode.Fast
	window   time.Duration // the longest consistency window of any cloud
	clients  []*client
}

// Mode selects how Setup assembles the two agents. The zero Mode is the
// untraced pass: scfs.New and no wrapper anywhere.
type Mode struct {
	// Taps puts the wrappers around the coordination service, the invokers
	// and the clouds. Without Record they only count.
	Taps bool
	// Core, which needs Taps, assembles with core.New from the parts
	// config.build in options.go uses: the only way to put a wrapper around
	// the storage.VersionedStore as well.
	Core bool
	// Record makes the wrappers record spans.
	Record bool
	// Fast keeps the simulators' latency off after set-up too. Tests use it
	// to replay a WAN workload without waiting.
	Fast bool
}

// Setup builds the deployment of a workload, preloads its namespace through
// a separate loader mount, mounts the two agents and reads the hot set once.
// Everything it does is the benchmark's set-up time.
func Setup(ctx context.Context, w Workload, seed int64, scratch string, mode Mode) (*Env, error) {
	e := &Env{W: w, clk: &gateClock{}, fast: mode.Fast}
	e.clk.fast.Store(true)
	if mode.Taps {
		e.taps = &taps{}
		if mode.Record {
			e.taps.rec = spans.NewRecorder()
		}
	}
	ok := false
	defer func() {
		if !ok {
			e.Close(ctx)
		}
	}()

	for i, kind := range cloudsim.CoCKinds() {
		opts := cloudsim.DefaultProfiles()[kind]
		opts.LatencyScale = w.Regime.LatencyScale()
		if win := time.Duration(float64(opts.ConsistencyWindow) * opts.LatencyScale); win > e.window {
			e.window = win
		}
		opts.Clock = e.clk
		opts.Seed = seed*16 + int64(i)
		p := cloudsim.NewProvider(opts)
		e.accounts = append(e.accounts, p.MustClient(p.CreateAccount(User)))
	}

	svc, err := e.coordination(seed)
	if err != nil {
		return nil, err
	}
	agentSvc := svc
	if e.taps != nil {
		e.taps.coord = &coordTap{Service: svc, rec: e.taps.rec}
		agentSvc = e.taps.coord
	}

	loader, err := e.facade(ctx, svc, e.accounts, scratch)
	if err != nil {
		return nil, err
	}
	if err := preload(ctx, loader, w.Layout, seed); err != nil {
		loader.Close(ctx)
		return nil, fmt.Errorf("preloading: %w", err)
	}
	if err := loader.Close(ctx); err != nil {
		return nil, fmt.Errorf("closing the loader mount: %w", err)
	}
	e.Settle()

	for _, m := range []*mount{&e.A, &e.B} {
		if mode.Core {
			*m, err = e.assembled(ctx, agentSvc, scratch)
		} else {
			*m, err = e.facade(ctx, agentSvc, e.clouds(), scratch)
		}
		if err != nil {
			return nil, err
		}
	}
	for c := 0; c < Clients; c++ {
		for i := 0; i < w.Layout.Hot; i++ {
			if _, err := e.A.ReadFile(ctx, hotPath(c, i)); err != nil {
				return nil, fmt.Errorf("warming %s: %w", hotPath(c, i), err)
			}
		}
	}
	e.clk.fast.Store(e.fast)
	ok = true
	return e, nil
}

// coordination builds the workload's coordination service. When there are
// taps it puts one on the invoker the tuple-space client calls and, where
// there is a coalescer, one below it.
func (e *Env) coordination(seed int64) (coord.Service, error) {
	tap := func(inv smr.Invoker, name string) (smr.Invoker, *invokerTap) {
		if e.taps == nil {
			return inv, nil
		}
		t := &invokerTap{inner: inv, rec: e.taps.rec, name: name}
		return t, t
	}
	var (
		inv          smr.Invoker = &depspace.LocalInvoker{Space: depspace.NewSpace()}
		upper, lower *invokerTap
	)
	if e.W.Regime == BFT {
		ids := []int{0, 1, 2, 3}
		cfg := smr.Config{ReplicaIDs: ids, Model: smr.ByzantineFaults}
		net := smr.NewNetwork()
		e.stops = append(e.stops, net.Close)
		for _, id := range ids {
			r, err := smr.NewReplica(id, cfg, smr.NewBatchApplication(depspace.NewSpace()), net)
			if err != nil {
				return nil, fmt.Errorf("building coordination replica %d: %w", id, err)
			}
			r.Start()
			e.stops = append(e.stops, r.Stop)
		}
		cli := smr.NewClient(User+"-coord-0", cfg, net)
		e.stops = append(e.stops, cli.Close)
		inv, lower = tap(cli, "consensus")
		inv = smr.NewCoalescer(inv)
	}
	inv, upper = tap(inv, "invoke")
	if e.taps != nil {
		e.taps.upper, e.taps.lower = upper, lower
	}
	var svc coord.Service = coord.NewDepSpaceService(depspace.NewClient(inv, User, nil))
	if e.W.Regime != BFT {
		lat := coord.DefaultCoCLatency()
		lat.Scale = e.W.Regime.LatencyScale()
		lat.Clock = e.clk
		lat.Seed = seed
		svc = coord.WithLatency(svc, lat)
	}
	return svc, nil
}

func (e *Env) cacheDir(scratch string) (string, error) {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(scratch, "cache-")
	if err != nil {
		return "", err
	}
	e.dirs = append(e.dirs, dir)
	return dir, nil
}

var gcPolicy = core.GCPolicy{KeepVersions: 1}

// facade mounts through the public scfs package, with facade defaults for
// everything the workload does not state.
func (e *Env) facade(ctx context.Context, svc coord.Service, clouds []cloud.ObjectStore, scratch string) (mount, error) {
	dir, err := e.cacheDir(scratch)
	if err != nil {
		return nil, err
	}
	fs, err := scfs.New(ctx,
		scfs.WithUser(User),
		scfs.WithClouds(clouds...),
		scfs.WithCoordination(svc),
		scfs.WithMemoryCache(MemCacheBytes),
		scfs.WithDiskCache(dir, e.W.diskCacheBytes()),
		scfs.WithGC(gcPolicy),
	)
	if err != nil {
		return nil, err
	}
	return facadeMount{fs}, nil
}

// clouds returns the object stores an agent mounts over: the simulators'
// clients, behind the cloud taps when there are taps.
func (e *Env) clouds() []cloud.ObjectStore {
	if e.taps == nil {
		return e.accounts
	}
	if e.taps.clouds == nil {
		for _, a := range e.accounts {
			e.taps.clouds = append(e.taps.clouds, &cloudTap{inner: a, rec: e.taps.rec})
		}
	}
	out := make([]cloud.ObjectStore, len(e.taps.clouds))
	for i, t := range e.taps.clouds {
		out[i] = t
	}
	return out
}

// assembled mounts with core.New from the parts config.build in options.go
// uses, because the facade cannot take a storage.VersionedStore.
func (e *Env) assembled(ctx context.Context, svc coord.Service, scratch string) (mount, error) {
	dir, err := e.cacheDir(scratch)
	if err != nil {
		return nil, err
	}
	mgr, err := depsky.New(depsky.Options{Clouds: e.clouds(), F: 1, Pricing: pricing.DefaultTable()})
	if err != nil {
		return nil, err
	}
	st := &storageTap{CloudOfClouds: storage.NewCloudOfClouds(mgr), rec: e.taps.rec}
	e.taps.storage = append(e.taps.storage, st)
	agent, err := core.New(ctx, core.Options{
		User:             User,
		Mode:             core.Blocking,
		Coordination:     svc,
		Storage:          st,
		PNSStorage:       storage.NewCoCPNS(mgr),
		GC:               gcPolicy,
		MemoryCacheBytes: MemCacheBytes,
		DiskCacheDir:     dir,
		DiskCacheBytes:   e.W.diskCacheBytes(),
	})
	if err != nil {
		return nil, err
	}
	return agentMount{agent}, nil
}

// Settle waits until everything written so far is visible at every cloud.
// Set-up does it before anything reads the preloaded files, and the harness
// before every mount.Collect: on the seed, a collection that runs inside the
// consistency window of an overwrite reads the unit's old metadata, writes it
// back without the new version, and the file is unreadable from then on.
func (e *Env) Settle() { e.clk.Sleep(e.window) }

// Usage returns the metered consumption of the benchmark's account at each
// provider, in cloudsim.CoCKinds order.
func (e *Env) Usage() []cloud.Usage {
	out := make([]cloud.Usage, len(e.accounts))
	for i, a := range e.accounts {
		out[i] = a.(cloud.Meter).Usage()
	}
	return out
}

// Close unmounts the agents, stops the coordination replicas and removes the
// cache directories. It is safe on a partly built Env.
func (e *Env) Close(ctx context.Context) error {
	var first error
	for _, m := range []mount{e.A, e.B} {
		if m != nil {
			if err := m.Close(ctx); err != nil && first == nil {
				first = err
			}
		}
	}
	for i := len(e.stops) - 1; i >= 0; i-- {
		e.stops[i]()
	}
	for _, d := range e.dirs {
		if err := os.RemoveAll(d); err != nil && first == nil {
			first = err
		}
	}
	e.A, e.B, e.stops, e.dirs = nil, nil, nil, nil
	return first
}

// Paths of the preloaded namespace.

func nsDir(d int) string { return fmt.Sprintf("/ns/d%02d", d) }
func nsPath(i int, l Layout) string {
	return fmt.Sprintf("%s/e%02d", nsDir(i/l.EntriesPerDir), i%l.EntriesPerDir)
}
func clientDir(c int) string          { return fmt.Sprintf("/c%d", c) }
func scratchDir(c int) string         { return filepath.ToSlash(filepath.Join(clientDir(c), "tmp")) }
func smallPath(c, i int) string       { return fmt.Sprintf("/c%d/ws%02d", c, i) }
func largePath(c, i int) string       { return fmt.Sprintf("/c%d/wl%02d", c, i) }
func coldSmallPath(c, i int) string   { return fmt.Sprintf("/c%d/cs%02d", c, i) }
func coldLargePath(c, i int) string   { return fmt.Sprintf("/c%d/cl%02d", c, i) }
func hotPath(c, i int) string         { return fmt.Sprintf("/c%d/hot%02d", c, i) }
func sharePath(c, i int) string       { return fmt.Sprintf("/c%d/sh%02d", c, i) }
func scratchPath(c int, n int) string { return fmt.Sprintf("/c%d/tmp/n%07d", c, n) }
func renamedPath(c int, n int) string { return fmt.Sprintf("/c%d/tmp/r%07d", c, n) }
