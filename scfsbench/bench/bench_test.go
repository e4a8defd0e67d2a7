package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// tiny shrinks a workload so that a test can set it up and replay it in
// well under a second: a few files per pool, and rounds of one deck that
// holds one step of each kind.
func tiny(w Workload) Workload {
	w.DecksPerRound = 1
	for k := range w.Mix {
		w.Mix[k] = 1
	}
	w.Layout = Layout{
		Dirs: 4, EntriesPerDir: 5,
		SmallTargets: 4, LargeTargets: 1,
		ColdSmall: 8, ColdLarge: 2,
		Hot: 2, ShareSlots: 4,
	}
	return w
}

func find(t *testing.T, name string) Workload {
	t.Helper()
	w, err := Find(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// soloScript is the script of a seed with only client 0's steps, so that two
// replays issue exactly the same calls in the same order.
func soloScript(w Workload, seed int64) *Script {
	s := Generate(w, seed)
	for r := range s.Rounds {
		for c := 1; c < Clients; c++ {
			s.Rounds[r][c] = nil
		}
	}
	return s
}

func TestGenerateIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range Workloads {
		a, b := Generate(w, 7).Bytes(), Generate(w, 7).Bytes()
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave two different scripts", w.Name)
		}
		if bytes.Equal(a, Generate(w, 8).Bytes()) {
			t.Errorf("%s: two seeds gave the same script", w.Name)
		}
		// Every deck holds the workload's mix exactly.
		var got [numKinds]int
		for _, st := range Generate(w, 7).Rounds[0][0] {
			got[st.Kind]++
		}
		for k, n := range w.Mix {
			if got[k] != n*w.DecksPerRound {
				t.Errorf("%s: round holds %d %s steps, want %d", w.Name, got[k], Kind(k), n*w.DecksPerRound)
			}
		}
	}
}

// counts replays three rounds of a solo script on a deployment assembled in
// the given mode and returns what crossed the coordination and cloud
// boundaries, with the names the program stored. The simulators' latency
// stays on: with instant clouds a quorum can be complete before the last
// goroutine of a fan-out has started, depsky then never issues that RPC, and
// the cloud count varies by a few per cent from run to run.
func counts(t *testing.T, w Workload, seed int64, mode Mode) (coordCalls, cloudRequests int64, names []string) {
	t.Helper()
	ctx := context.Background()
	mode.Taps = true
	env, err := Setup(ctx, w, seed, t.TempDir(), mode)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close(ctx)
	env.taps.reset()
	before := env.A.Stats().CoordAccesses
	p := Replay(ctx, env, soloScript(w, seed), seed, Limit{Duration: time.Minute, Rounds: 3})
	if attempted, failed := p.Attempted(); failed != 0 || attempted != 3*w.OpsPerRound() {
		t.Fatalf("replay: %d attempted, %d failed (%s), want %d and 0", attempted, failed, p.FirstError, 3*w.OpsPerRound())
	}
	coordCalls = env.A.Stats().CoordAccesses - before
	for _, c := range env.taps.clouds {
		cloudRequests += c.requests.Load()
	}
	recs, err := env.taps.coord.ListMetadata(ctx, "/")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		names = append(names, r.Key)
	}
	for _, a := range env.accounts {
		objs, err := a.List(ctx, "")
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range objs {
			names = append(names, o.Name)
		}
	}
	return coordCalls, cloudRequests, names
}

func TestSameSeedSameCounts(t *testing.T) {
	w := tiny(find(t, "files-cpu"))
	coord1, cloud1, names := counts(t, w, 3, Mode{Core: true})
	coord2, cloud2, _ := counts(t, w, 3, Mode{Core: true})
	if coord1 != coord2 {
		t.Errorf("coordination accesses differ between two runs of one seed: %d and %d", coord1, coord2)
	}
	if cloud1 != cloud2 {
		t.Errorf("cloud requests differ between two runs of one seed: %d and %d", cloud1, cloud2)
	}
	// The program receives only generated inputs: nothing it stored names
	// the workload or its regime.
	for _, n := range names {
		for _, word := range []string{"files", "cpu", "wan", "bft", "meta-", "share-"} {
			if strings.Contains(n, word) {
				t.Fatalf("stored name %q gives away the workload (%q)", n, word)
			}
		}
	}
}

// TestWrappersAreTransparent compares the two assemblies: scfs.New with
// counting taps around what the facade accepts, and core.New with the
// storage tap as well. One fixed script must cross the coordination and
// cloud boundaries equally often on both.
func TestWrappersAreTransparent(t *testing.T) {
	for _, name := range []string{"files-cpu", "meta-bft"} {
		w := tiny(find(t, name))
		facadeCoord, facadeCloud, _ := counts(t, w, 5, Mode{})
		coreCoord, coreCloud, _ := counts(t, w, 5, Mode{Core: true})
		if facadeCoord != coreCoord {
			t.Errorf("%s: coordination accesses: facade %d, core.New assembly %d", name, facadeCoord, coreCoord)
		}
		if facadeCloud != coreCloud {
			t.Errorf("%s: cloud requests: facade %d, core.New assembly %d", name, facadeCloud, coreCloud)
		}
	}
}

// flaky fails every nth ReadFile and returns wrong bytes on every mth.
type flaky struct {
	mount
	failEvery, staleEvery int
	reads, failed, stale  int
}

var errInjected = errors.New("injected read failure")

func (f *flaky) ReadFile(ctx context.Context, path string) ([]byte, error) {
	f.reads++
	if f.failEvery > 0 && f.reads%f.failEvery == 0 {
		f.failed++
		return nil, errInjected
	}
	data, err := f.mount.ReadFile(ctx, path)
	if err == nil && f.staleEvery > 0 && f.reads%f.staleEvery == 0 {
		f.stale++
		data[len(data)-1] ^= 1
	}
	return data, err
}

func TestFailuresAreCountedNotRetried(t *testing.T) {
	ctx := context.Background()
	w := tiny(find(t, "files-cpu"))
	env, err := Setup(ctx, w, 1, t.TempDir(), Mode{Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close(ctx)
	a := &flaky{mount: env.A, failEvery: 7, staleEvery: 5}
	env.A = a
	defer func() { env.A = a.mount }()

	const rounds = 40
	p := Replay(ctx, env, soloScript(w, 1), 1, Limit{Duration: time.Minute, Rounds: rounds})
	attempted, failed := p.Attempted()
	if attempted != rounds*w.OpsPerRound() {
		t.Fatalf("attempted %d steps, want all %d: a failed step must not end the run", attempted, rounds*w.OpsPerRound())
	}
	// Only the read kinds that go through agent A meet the fault; share
	// steps read on agent B.
	var errs, stale, samples int
	for _, k := range []Kind{ColdSmall, ColdLarge, WarmRead} {
		errs += p.Tallies[k].Errors
		stale += p.Tallies[k].Stale
	}
	for _, c := range []Class{CColdSmall, CColdLarge, CWarmRead} {
		samples += len(p.Samples[c])
	}
	if a.failed == 0 || a.stale == 0 {
		t.Fatalf("the fault never fired: %d reads", a.reads)
	}
	if errs != a.failed || stale != a.stale {
		t.Errorf("tallied %d errors and %d stale reads, injected %d and %d", errs, stale, a.failed, a.stale)
	}
	if failed != a.failed+a.stale {
		t.Errorf("failed steps %d, want %d", failed, a.failed+a.stale)
	}
	if samples != a.reads-a.failed-a.stale {
		t.Errorf("%d latency samples from %d reads of which %d failed: a failed step must leave none", samples, a.reads, a.failed+a.stale)
	}
	if share := float64(a.failed) / float64(a.reads); math.Abs(share-1.0/7) > 0.02 {
		t.Errorf("injected error share %.3f, want about 1/7", share)
	}
	rec := Record{Result: Result{Correct: true}}
	rec.add(p)
	if rec.Result.Correct || rec.Result.Failed != failed || rec.Result.Attempted != attempted {
		t.Errorf("record %+v does not report the stale reads", rec.Result)
	}
}

func TestSlicedMedianIgnoresABurst(t *testing.T) {
	// 900 samples of 1 ms over 9 s; for 3 s in the middle the host is a third
	// slower. The median of all samples is unmoved too here; inflate a bit
	// under half of the run and it would not be.
	var ms, at []float64
	for i := 0; i < 900; i++ {
		x, when := 1.0, float64(i)/100
		if when >= 3 && when < 7 {
			x = 1.35
		}
		ms, at = append(ms, x), append(at, when)
	}
	if got := slicedMedian(ms, at, 9); got != 1 {
		t.Errorf("sliced median %v, want 1: the burst covers 4 of 9 slices", got)
	}
	if got := slicedMedian(ms[:60], at[:60], 9); got != Median(ms[:60]) {
		t.Errorf("a class with under 90 samples must not be cut: got %v", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles %v and %v, want 3.5 and 31", q1, q3)
	}
}

func readManifest(t *testing.T) Manifest {
	t.Helper()
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestManifestMatchesTheTables(t *testing.T) {
	if got, want := readManifest(t), NewManifest(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from scfs-bench -manifest; regenerate it\n got %+v\nwant %+v", got, want)
	}
}

func checkMetrics(t *testing.T, what string, got map[string]Metric, want []Def) {
	t.Helper()
	var names []string
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	var wantNames []string
	for _, d := range want {
		wantNames = append(wantNames, d.Name)
		if m, ok := got[d.Name]; ok && m.Unit != d.Unit {
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, d.Name, m.Unit, d.Unit)
		}
	}
	sort.Strings(wantNames)
	if !reflect.DeepEqual(names, wantNames) {
		t.Errorf("%s: metric names differ from BENCHMARK.json\n got %v\nwant %v", what, names, wantNames)
	}
}

// TestSmoke replays every workload, shrunk and with the simulators' latency
// off, through both passes and checks what they report against
// BENCHMARK.json.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the table %d", len(m.Workloads), len(Workloads))
	}
	ctx := context.Background()
	for i, w := range Workloads {
		if m.Workloads[i].Name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the table", i, m.Workloads[i].Name, w.Name)
		}
		t.Run(w.Name, func(t *testing.T) {
			cfg := Config{
				Workload: tiny(w), Seed: 2, Duration: 3 * time.Second, Rounds: 2, Fast: true,
				Scratch: t.TempDir(), Out: t.TempDir(), Log: io.Discard,
			}
			for _, pass := range []struct {
				name string
				run  func(context.Context, Config) (Record, error)
				want []Def
			}{
				{"untraced", RunEndToEnd, m.EndToEnd},
				{"traced", RunTraced, m.PerLayer},
			} {
				rec, err := pass.run(ctx, cfg)
				if err != nil {
					t.Fatalf("%s: %v", pass.name, err)
				}
				checkMetrics(t, pass.name, rec.Result.Metrics, pass.want)
				if !rec.Result.Correct || rec.Result.Failed != 0 || rec.Result.Attempted == 0 {
					t.Errorf("%s: result %+v, want correct with no failed step", pass.name, rec.Result)
				}
				for k := Kind(0); k < numKinds; k++ {
					tally := rec.Tallies[k.String()]
					if tally.Attempted == 0 || tally.Errors != 0 || tally.Stale != 0 {
						t.Errorf("%s: %s tally %+v, want attempts and no failure", pass.name, k, tally)
					}
				}
			}
		})
	}
}
