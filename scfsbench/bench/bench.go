package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"scfs/scfsbench/spans"
)

// Result is what a run reports on the last line of its output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Record is a Result with the run it came from and the sample count behind
// each timing; scfs-bench -o appends one per run and -report reads them.
type Record struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Traced   bool           `json:"traced"`
	Samples  map[string]int `json:"samples"`
	// Tallies counts the script steps of each kind: attempted, failed with an
	// error, failed with stale bytes. A traced record sums both its replays.
	Tallies map[string]Tally `json:"tallies"`
	Result  Result           `json:"result"`
}

// Setups is how many times an untraced run sets up its deployment. It
// reports the median as setup_s and measures on the last.
const Setups = 3

// Config is one run of one workload.
type Config struct {
	Workload Workload
	Seed     int64
	Duration time.Duration
	// Rounds, when not zero, also ends a replay after that many whole
	// rounds, and Fast keeps the simulators' latency off; tests set both to
	// replay every workload in little time.
	Rounds  int
	Fast    bool
	Scratch string    // directory for disk caches
	Out     string    // directory for the span file of a traced run
	Log     io.Writer // the human-readable account
}

// add counts a replay's steps into the record. Stale bytes make it incorrect.
func (r *Record) add(p *Pass) {
	if r.Tallies == nil {
		r.Tallies = make(map[string]Tally, numKinds)
	}
	for k, t := range p.Tallies {
		sum := r.Tallies[Kind(k).String()]
		sum.Attempted += t.Attempted
		sum.Errors += t.Errors
		sum.Stale += t.Stale
		r.Tallies[Kind(k).String()] = sum
		r.Result.Attempted += t.Attempted
		r.Result.Failed += t.Errors + t.Stale
		if t.Stale > 0 {
			r.Result.Correct = false
		}
	}
}

func sampleCounts(p *Pass) map[string]int {
	out := make(map[string]int, numClasses)
	for c, s := range p.Samples {
		out[Class(c).String()] = len(s)
	}
	return out
}

// RunEndToEnd is the untraced pass: every operation goes through the public
// scfs facade, and the end-to-end metrics come from here only.
func RunEndToEnd(ctx context.Context, cfg Config) (Record, error) {
	rec := Record{Workload: cfg.Workload.Name, Seed: cfg.Seed, Seconds: cfg.Duration.Seconds()}
	script := Generate(cfg.Workload, cfg.Seed)
	var (
		env   *Env
		times []float64
	)
	for i := 0; i < Setups; i++ {
		if env != nil {
			if err := env.Close(ctx); err != nil {
				return rec, err
			}
		}
		start := time.Now()
		var err error
		if env, err = Setup(ctx, cfg.Workload, cfg.Seed, cfg.Scratch, Mode{Fast: cfg.Fast}); err != nil {
			return rec, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	defer env.Close(ctx)
	if err := WarmUp(ctx, env, script, cfg.Seed); err != nil {
		return rec, err
	}
	// The discarded deployments are garbage now; collect it here so that it
	// is not collected inside the timed phase.
	runtime.GC()

	pass := Replay(ctx, env, script, cfg.Seed, Limit{Duration: cfg.Duration, Rounds: cfg.Rounds})
	fmt.Fprintf(cfg.Log, "set-up: %d times, median %.3f s %.3v\n", Setups, Median(times), times)
	PrintPass(cfg.Log, cfg.Workload.Name, pass)

	rec.Samples = sampleCounts(pass)
	rec.Result = Result{Correct: true, Metrics: EndToEndMetrics(pass, Median(times))}
	rec.add(pass)
	for _, d := range EndToEnd {
		if x := rec.Result.Metrics[d.Name].Value; math.IsNaN(x) || x <= 0 {
			return rec, fmt.Errorf("end-to-end metric %s has no value: the run was too short for a sample of every class", d.Name)
		}
	}
	return rec, nil
}

// Shares of a traced run's time. The reference replay gives the untraced
// medians the tracing overhead is measured against, and the process's own
// consumption; the immediate-read probe comes last.
const (
	referenceShare = 0.4
	tracedShare    = 0.5
	immediateShare = 0.1
)

// RunTraced is the traced pass: the same script on a deployment assembled
// with core.New and recording wrappers at the five layer boundaries.
func RunTraced(ctx context.Context, cfg Config) (Record, error) {
	rec := Record{Workload: cfg.Workload.Name, Seed: cfg.Seed, Seconds: cfg.Duration.Seconds(), Traced: true}
	script := Generate(cfg.Workload, cfg.Seed)
	part := func(share float64) time.Duration { return time.Duration(float64(cfg.Duration) * share) }
	t := &TracedRun{Live: cfg.Workload.Layout.LiveBytes()}

	env, err := Setup(ctx, cfg.Workload, cfg.Seed, cfg.Scratch, Mode{Fast: cfg.Fast})
	if err != nil {
		return rec, fmt.Errorf("set-up of the reference pass: %w", err)
	}
	if err := WarmUp(ctx, env, script, cfg.Seed); err != nil {
		return rec, err
	}
	runtime.GC()
	before := ReadProc()
	t.Reference = Replay(ctx, env, script, cfg.Seed, Limit{Duration: part(referenceShare), Rounds: cfg.Rounds})
	t.RefProc = ReadProc().Sub(before)
	if err := env.Close(ctx); err != nil {
		return rec, err
	}
	PrintPass(cfg.Log, cfg.Workload.Name+" (untraced reference)", t.Reference)

	if env, err = Setup(ctx, cfg.Workload, cfg.Seed, cfg.Scratch, Mode{Core: true, Taps: true, Record: true, Fast: cfg.Fast}); err != nil {
		return rec, fmt.Errorf("set-up of the traced pass: %w", err)
	}
	defer env.Close(ctx)
	if err := WarmUp(ctx, env, script, cfg.Seed); err != nil {
		return rec, err
	}
	runtime.GC()
	env.taps.reset()
	t.Pass = Replay(ctx, env, script, cfg.Seed, Limit{Duration: part(tracedShare), Rounds: cfg.Rounds})
	t.Spans = env.taps.rec.Spans()
	t.Counts = env.taps.counts()
	PrintPass(cfg.Log, cfg.Workload.Name+" (traced)", t.Pass)

	// What is resident once garbage collection has caught up.
	env.Settle()
	if _, err := env.A.Collect(ctx); err != nil {
		return rec, fmt.Errorf("final collect: %w", err)
	}
	for _, u := range env.Usage() {
		t.Stored += u.StoredBytes
	}
	t.Immediate = ImmediateReads(ctx, env, cfg.Seed, part(immediateShare))
	fmt.Fprintf(cfg.Log, "immediate reads on agent B: %d, %d met a version not yet visible, %d failed, %d stale\n",
		t.Immediate.Reads, t.Immediate.Retried, t.Immediate.Errors, t.Immediate.Stale)

	if t.Probes, err = Probes(ctx, cfg.Seed, cfg.Scratch); err != nil {
		return rec, err
	}
	if err := writeSpans(cfg.Out, cfg.Workload.Name, t.Spans); err != nil {
		return rec, err
	}

	rec.Samples = sampleCounts(t.Pass)
	rec.Result = Result{Correct: t.Immediate.Stale == 0}
	rec.add(t.Reference)
	rec.add(t.Pass)
	if rec.Result.Metrics, err = PerLayerMetrics(t); err != nil {
		return rec, err
	}
	printBudgets(cfg.Log, t.Pass, rec.Result.Metrics)
	return rec, nil
}

// printBudgets shows, for each budgeted class, that the four self times add
// up to the class's median duration.
func printBudgets(w io.Writer, p *Pass, m map[string]Metric) {
	fmt.Fprintf(w, "  %-12s %10s %10s %10s %10s %10s %10s\n", "budget, us", "core", "coord", "depsky", "cloud", "sum", "p50")
	for _, c := range budgetClasses {
		pre := "budget." + c.String() + "."
		part := func(name string) float64 { return m[pre+name].Value }
		sum := part("core_us") + part("coord_us") + part("depsky_us") + part("cloud_us")
		fmt.Fprintf(w, "  %-12s %10.0f %10.0f %10.0f %10.0f %10.0f %10.0f\n", c,
			part("core_us"), part("coord_us"), part("depsky_us"), part("cloud_us"), sum, Quantile(p.Samples[c], 0.5)*1e3)
	}
}

func writeSpans(dir, workload string, all []spans.Span) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".json"))
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, f.Close()) }()
	return spans.WriteJSON(f, all)
}
