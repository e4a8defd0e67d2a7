// Package scenario is the chaos-scenario harness of SCFS: a driver that
// replays named fault scenarios — provider outages mid-write, gray
// failures, corrupting clouds, flapping providers, breaker recovery —
// against a real mounted scfs instance backed by simulated clouds, and
// asserts the invariants the paper's design promises under each:
//
//   - Availability: client operations keep succeeding while up to f clouds
//     misbehave arbitrarily.
//   - Consistency: whatever a read returns is a complete, integrity-checked
//     version some write produced — never a torn or corrupted mix.
//   - Resource hygiene: a fault burst leaks no goroutines and the retry
//     layer's extra requests stay inside the configured budgets (faults
//     must not balloon the dollar cost of the workload).
//
// Scenarios are data (see All): each names its fault schedule, mount
// configuration, and assertions, and the Run harness wraps every scenario
// with the invariants that always hold — the goroutine-leak check and a
// cost-accounting probe on the degraded mount. The package is exercised by
// `go test ./internal/scenario/...`, which CI runs with -race; scenarios
// marked Long are skipped in -short mode.
package scenario

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"scfs"
	"scfs/internal/cloudsim"
	"scfs/internal/coord"
	"scfs/internal/depspace"
	"scfs/internal/smr"
)

// bg is the harness's root context: the scenarios are the outermost caller.
var bg = context.Background()

// counterSum sums every counter of the snapshot whose fully qualified name
// starts with prefix — e.g. counterSum(s, `breaker_open_total{cloud="c0"`)
// totals one cloud's breaker trips across op classes.
func counterSum(s scfs.MetricsSnapshot, prefix string) int64 {
	var sum int64
	for name, v := range s.Counters {
		if strings.HasPrefix(name, prefix) {
			sum += v
		}
	}
	return sum
}

// waitRPCsDrained polls until none of cloud's per-cloud round goroutines is
// in flight — rpc_inflight counts those, including the ones that outlive
// their operation's quorum verdict — and returns the snapshot that saw the
// gauge at zero, in which every attempt they made is already recorded.
func waitRPCsDrained(t *testing.T, env *Env, cloud string) scfs.MetricsSnapshot {
	t.Helper()
	gauge := `rpc_inflight{cloud="` + cloud + `"}`
	deadline := time.Now().Add(5 * time.Second)
	for {
		tel := env.FS.Stats().Telemetry
		if n := tel.Gauge(gauge); n == 0 {
			return tel
		} else if time.Now().After(deadline) {
			t.Fatalf("%s = %d: round goroutines never drained", gauge, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// Env is the deployment a scenario runs against: a mounted scfs instance
// over four simulated clouds (f=1) whose fault schedules the scenario
// scripts via the providers.
type Env struct {
	FS        *scfs.FS
	Providers []*cloudsim.Provider
	// Replicas are the members of a scenario-built coordination group (see
	// Scenario.Coord), indexed by replica ID. It is nil for scenarios on
	// the mount's default coordination service, whose four replicas the
	// mount does not expose.
	Replicas []*smr.Replica

	stopCoord func()
}

// Requests snapshots every provider's served-request counter; diff two
// snapshots to bound how much traffic a fault phase generated.
func (e *Env) Requests() []int64 {
	out := make([]int64, len(e.Providers))
	for i, p := range e.Providers {
		out[i] = p.TotalRequests()
	}
	return out
}

// Scenario is one named chaos experiment.
type Scenario struct {
	// Name identifies the scenario (kebab-case; used as the subtest name).
	Name string
	// Description is one sentence of what is injected and what must hold.
	Description string
	// Long marks scenarios skipped in -short mode (CI's chaos job runs the
	// short subset under -race; `go test ./internal/scenario/` runs all).
	Long bool
	// RTTs gives each cloud a fixed round-trip latency (nil = instant).
	RTTs []time.Duration
	// Mount appends mount options (breaker tuning, default I/O policy).
	Mount []scfs.Option
	// Coord optionally builds the BFT replica group the mount coordinates
	// through, so the scenario can delay its network or crash its members.
	// The harness stops the group after unmount and before the
	// goroutine-leak check, so a group that strands replica or client
	// goroutines fails the scenario.
	Coord func(t *testing.T) *depspace.Group
	// Run scripts the faults and asserts the scenario's own invariants.
	Run func(t *testing.T, env *Env)
}

// Run executes one scenario under the harness-level invariants: the mount
// is built fresh, the scenario runs, cost accounting must still answer on
// the (possibly degraded) mount, and after unmount the process must return
// to its goroutine baseline — a fault burst that strands fan-out goroutines
// fails here even if every operation succeeded.
func Run(t *testing.T, s Scenario) {
	if s.Long && testing.Short() {
		t.Skip("long scenario skipped in -short mode")
	}
	baseline := runtime.NumGoroutine()

	env := newEnv(t, s)
	s.Run(t, env)

	// The dollar ledger must stay available and sane on a degraded mount:
	// chaos that silently duplicated uploads would surface as runaway
	// objects here.
	report, err := env.FS.CostReport(bg)
	if err != nil {
		t.Fatalf("CostReport on post-scenario mount: %v", err)
	}
	if report.Files > 0 && report.CloudObjects <= 0 {
		t.Fatalf("cost report lost the cloud footprint: %+v", report)
	}

	// One Stats() call must still tell the whole story of the run: which
	// clouds served RPCs and what the workload cost in dollars. A scenario
	// whose faults silently disabled instrumentation fails here.
	stats := env.FS.Stats()
	if stats.Telemetry.Total("rpc_total") == 0 {
		t.Fatal("telemetry recorded no RPCs over a full chaos scenario")
	}
	var dollars float64
	for _, ps := range stats.Spend {
		dollars += ps.Dollars
	}
	if dollars <= 0 {
		t.Fatalf("metered spend is empty after a workload: %+v", stats.Spend)
	}

	if err := env.FS.Close(bg); err != nil {
		t.Fatalf("unmount after scenario: %v", err)
	}
	if env.stopCoord != nil {
		env.stopCoord()
	}
	waitGoroutineBaseline(t, baseline)
}

// newEnv builds the scenario's deployment: four simulated clouds (f=1)
// with the scenario's latency profile, mounted with a local disk cache.
func newEnv(t *testing.T, s Scenario) *Env {
	t.Helper()
	providers := make([]*cloudsim.Provider, 4)
	stores := make([]scfs.ObjectStore, 4)
	for i := range providers {
		o := cloudsim.Options{Name: fmt.Sprintf("c%d", i), Seed: int64(i + 1)}
		if i < len(s.RTTs) {
			o.Latency = cloudsim.LatencyProfile{RTT: s.RTTs[i]}
		}
		providers[i] = cloudsim.NewProvider(o)
		stores[i] = providers[i].MustClient(providers[i].CreateAccount("user"))
	}
	opts := append([]scfs.Option{
		scfs.WithClouds(stores...),
		scfs.WithDiskCache(t.TempDir(), 0),
		scfs.WithMetrics(),
	}, s.Mount...)
	env := &Env{Providers: providers}
	if s.Coord != nil {
		g := s.Coord(t)
		env.Replicas, env.stopCoord = g.Replicas, g.Stop
		// The requester must match the mount's principal ("user"): metadata
		// tuples are ACL'd to their owner.
		opts = append(opts, scfs.WithCoordination(
			coord.NewDepSpaceService(depspace.NewClient(g.Invoker, "user", nil))))
		// Safety net for scenarios aborted by t.Fatal before the harness's
		// ordered teardown: the group still comes down with the subtest.
		t.Cleanup(g.Stop)
	}
	m, err := scfs.New(bg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	env.FS = m
	return env
}

// waitGoroutineBaseline polls until the goroutine count settles back to (or
// below) the pre-scenario baseline, with slack for runtime housekeeping.
// Fan-out goroutines parked on hedge gates or hung RPCs show up here.
func waitGoroutineBaseline(t *testing.T, baseline int) {
	t.Helper()
	const slack = 3
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline+slack {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d goroutines, baseline %d\n%s",
				n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
