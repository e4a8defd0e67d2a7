// Command benchguard compares a freshly produced BENCH_<stamp>.json against
// the committed BENCH_BASELINE.json and fails (exit 1) when a tracked
// metric regresses by more than the threshold (20%).
//
// Absolute wall-clock numbers are not comparable across machines, so the
// guard never compares ns/op between files. It tracks two machine-portable
// signals instead:
//
//  1. Allocation metrics (B/op, allocs/op) of benchmarks present in both
//     files — these are deterministic properties of the code.
//  2. Ratios between benchmark pairs measured within one run (the fast
//     path vs its reference implementation, the hedged fan-out vs the
//     immediate one). A pair's ratio in the new run is checked
//     against the same ratio in the baseline when the baseline has both
//     legs, and always against a hard floor that encodes the acceptance
//     criterion of the PR that introduced it.
//
// Usage: benchguard BASELINE.json NEW.json
package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// threshold is the tolerated relative regression of any tracked metric.
const threshold = 0.20

type bench struct {
	N        int64   `json:"n"`
	NsOp     float64 `json:"ns_op"`
	MBs      float64 `json:"mb_s"`
	BOp      float64 `json:"b_op"`
	AllocsOp float64 `json:"allocs_op"`
	// CloudBOp is the custom cloudB/op metric of the quorum-cancellation
	// benchmarks: bytes the simulated clouds shipped per operation.
	CloudBOp float64 `json:"cloud_b_op"`
	// CloudReqOp is the custom cloudReq/op metric of the hedged-read and
	// hedged-write benchmarks: cloud RPCs issued by the client per
	// operation (issued is issued — requests cancelled mid-flight still
	// count, since hedging's fee saving comes from never issuing them).
	CloudReqOp float64 `json:"cloud_req_op"`
}

type report struct {
	Captured   string           `json:"captured"`
	Go         string           `json:"go"`
	Benchmarks map[string]bench `json:"benchmarks"`
}

// pairRule tracks the ratio metric(num)/metric(den) within one run.
// The ratio must stay below maxRatio (the acceptance floor), and below
// (1+threshold) times the baseline's ratio when the baseline has both legs.
type pairRule struct {
	num, den string
	metric   func(bench) float64
	what     string
	maxRatio float64
}

var pairRules = []pairRule{
	// PR 1 acceptance: the slice-kernel encode stays >= 5x faster than the
	// retained per-byte reference (ratio of ns/op <= 0.2).
	{
		num: "BenchmarkErasureEncode/1MiB", den: "BenchmarkErasureEncodeRef/1MiB",
		metric: func(b bench) float64 { return b.NsOp }, what: "ns/op",
		maxRatio: 0.2,
	},
	// PR 3 acceptance: first-quorum-wins cancellation. Against a skewed
	// deployment (one straggler cloud), a read must return at the quorum
	// instead of waiting for every cloud (measured ~0.1x the no-cancel
	// tail; the floor of 0.5 leaves headroom for scheduler noise at tiny
	// iteration counts)...
	{
		num: "BenchmarkDepSkySkewedRead/FirstQuorumCancel", den: "BenchmarkDepSkySkewedRead/NoCancel",
		metric: func(b bench) float64 { return b.NsOp }, what: "ns/op",
		maxRatio: 0.5,
	},
	// ...and must stop paying for the straggler's redundant block fetch:
	// the clouds ship fewer bytes per read than the run-to-completion mode
	// (measured ~0.51x — the straggler's whole shard plus its share of the
	// metadata object is never transferred).
	{
		num: "BenchmarkDepSkySkewedRead/FirstQuorumCancel", den: "BenchmarkDepSkySkewedRead/NoCancel",
		metric: func(b bench) float64 { return b.CloudBOp }, what: "cloudB/op",
		maxRatio: 0.8,
	},
	// PR 4 acceptance, hedged reads. A hedged read on the skewed profile
	// must keep at least 80% of first-quorum-wins cancellation's
	// tail-latency improvement over the run-to-completion baseline: the
	// cancellation leg measures ~0.09x, so keeping 80% of that improvement
	// allows at most ~0.27x; 0.35 is the enforced ceiling (measured ~0.09x
	// — hedging loses essentially none of the win)...
	{
		num: "BenchmarkDepSkyHedgedRead/Hedged", den: "BenchmarkDepSkyHedgedRead/NoCancel",
		metric: func(b bench) float64 { return b.NsOp }, what: "ns/op",
		maxRatio: 0.35,
	},
	// ...while issuing strictly fewer cloud RPCs than the immediate full
	// fan-out (measured ~0.82x: 5 issued — 3 metadata + 2 block — versus
	// ~6.1 for cancellation, which issues every RPC and aborts late)...
	{
		num: "BenchmarkDepSkyHedgedRead/Hedged", den: "BenchmarkDepSkyHedgedRead/Immediate",
		metric: func(b bench) float64 { return b.CloudReqOp }, what: "cloudReq/op",
		maxRatio: 0.95,
	},
	// ...and shipping no more bytes than the run-to-completion baseline
	// ships (measured ~0.50x).
	{
		num: "BenchmarkDepSkyHedgedRead/Hedged", den: "BenchmarkDepSkyHedgedRead/NoCancel",
		metric: func(b bench) float64 { return b.CloudBOp }, what: "cloudB/op",
		maxRatio: 0.8,
	},
	// PR 4 acceptance, readahead: a cold sequential scan with a prefetch
	// window must improve throughput by >= 1.5x, i.e. its ns/op stays
	// under 0.67x of the on-demand scan (measured ~0.50x on one core;
	// more parallelism only widens it).
	{
		num: "BenchmarkStreamSequentialScan/Readahead4", den: "BenchmarkStreamSequentialScan/NoReadahead",
		metric: func(b bench) float64 { return b.NsOp }, what: "ns/op",
		maxRatio: 0.67,
	},
	// PR 17 acceptance, span reads. One ReadAt over the 16 MiB value fetches
	// its 16 chunks together, stream.Window = 8 at a time: 2 payload rounds
	// against the on-demand scan's 16. Measured ~0.28x alone and ~0.34x
	// inside a full run.sh on two cores, ~0.39x on one: beyond the round
	// trips the read is hashing and copying (~2.5 ms of processor time a
	// chunk), which two payload rounds cannot hide behind waiting the way
	// sixteen do, so the ratio falls with every core added...
	{
		num: "BenchmarkStreamSequentialScan/WholeRead", den: "BenchmarkStreamSequentialScan/NoReadahead",
		metric: func(b bench) float64 { return b.NsOp }, what: "ns/op",
		maxRatio: 0.35,
	},
	// ...for exactly the requests the scan issues: the width comes from the
	// request, so nothing is fetched on a guess (measured 1.000x — 4 metadata
	// GETs + 16 x 4 chunk GETs on both legs).
	{
		num: "BenchmarkStreamSequentialScan/WholeRead", den: "BenchmarkStreamSequentialScan/NoReadahead",
		metric: func(b bench) float64 { return b.CloudReqOp }, what: "cloudReq/op",
		maxRatio: 1.0,
	},
	// PR 17, the upload half: with every encoded chunk in flight a four-chunk
	// write is as many cloud rounds deep as a one-chunk write — the payload
	// round beside the metadata read, then the metadata write — so over
	// 20 ms-RTT clouds it costs little more (measured ~1.12x; a window of
	// three chunks made it a third round, ~1.54x).
	{
		num: "BenchmarkStreamWrite/FourChunks", den: "BenchmarkStreamWrite/OneChunk",
		metric: func(b bench) float64 { return b.NsOp }, what: "ns/op",
		maxRatio: 1.3,
	},
	// PR 5 acceptance, hedged writes. At equal (n, f) durability a hedged
	// write ships only the preferred quorum's shards: >= 25% fewer ingress
	// bytes than the immediate full fan-out. The benchmark writes a fresh
	// unit per iteration, so the measured ratio is the quorum fraction
	// (n-f)/n = 0.750 exactly (n=4, f=1); the whisker above it only covers
	// the rare immediate-leg upload that is cancelled before billing,
	// which shrinks the denominator.
	{
		num: "BenchmarkDepSkyHedgedWrite/Hedged", den: "BenchmarkDepSkyHedgedWrite/Immediate",
		metric: func(b bench) float64 { return b.CloudBOp }, what: "cloudB/op",
		maxRatio: 0.76,
	},
	// ...while issuing fewer cloud RPCs (measured 10 — 4 metadata-read
	// GETs + 3 block PUTs + 3 metadata PUTs — versus 12 for the full
	// fan-out)...
	{
		num: "BenchmarkDepSkyHedgedWrite/Hedged", den: "BenchmarkDepSkyHedgedWrite/Immediate",
		metric: func(b bench) float64 { return b.CloudReqOp }, what: "cloudReq/op",
		maxRatio: 0.90,
	},
	// ...and at comparable latency: parking the spare must not slow the
	// quorum down (both legs wait for the same n-f acks; headroom for
	// scheduler noise at small iteration counts).
	{
		num: "BenchmarkDepSkyHedgedWrite/Hedged", den: "BenchmarkDepSkyHedgedWrite/Immediate",
		metric: func(b bench) float64 { return b.NsOp }, what: "ns/op",
		maxRatio: 1.25,
	},
	// PR 6 acceptance, graceful degradation. A retry-budgeted read against
	// a deployment with one cloud throttling 30% of requests must stay off
	// the flake's latency path: the quorum verdict comes from the healthy
	// clouds while the flaky one retries in the background (measured ~1x;
	// 3.0 is the degradation ceiling)...
	{
		num: "BenchmarkDepSkyDegradedRead/Degraded", den: "BenchmarkDepSkyDegradedRead/Healthy",
		metric: func(b bench) float64 { return b.NsOp }, what: "ns/op",
		maxRatio: 3.0,
	},
	// ...and the retry budget must bound the extra traffic: a 30% flake
	// retried inside a 3-attempt budget adds ~15-20% requests (measured
	// ~1.2x); 2.0 is the run-away ceiling.
	{
		num: "BenchmarkDepSkyDegradedRead/Degraded", den: "BenchmarkDepSkyDegradedRead/Healthy",
		metric: func(b bench) float64 { return b.CloudReqOp }, what: "cloudReq/op",
		maxRatio: 2.0,
	},
	// PR 7 acceptance, telemetry overhead. A hedged read with the full
	// telemetry plane enabled — metrics registry and request tracing —
	// must cost at most 5% latency over the uninstrumented discipline
	// (measured ~1.00x: the hot path takes a handful of atomic adds and
	// span writes into a preallocated ring)...
	{
		num: "BenchmarkDepSkyHedgedRead/HedgedTelemetry", den: "BenchmarkDepSkyHedgedRead/Hedged",
		metric: func(b bench) float64 { return b.NsOp }, what: "ns/op",
		maxRatio: 1.05,
	},
	// ...and at most 2% allocations: the instruments are resolved at mount
	// time, so per read only the trace object and its context link
	// allocate (measured +2 allocs on ~174, ~1.01x).
	{
		num: "BenchmarkDepSkyHedgedRead/HedgedTelemetry", den: "BenchmarkDepSkyHedgedRead/Hedged",
		metric: func(b bench) float64 { return b.AllocsOp }, what: "allocs/op",
		maxRatio: 1.02,
	},
	// PR 8 acceptance, client pipelining. 64 concurrent sessions through one
	// smr client with the default 64-slot window must sustain >= 5x the
	// throughput of the same client with the window forced to 1 (the
	// pre-pipelining behavior), i.e. ns/op <= 0.2x. Measured ~0.03x: with
	// requests tagged and demultiplexed by ID, sessions overlap their round
	// trips instead of queuing behind one outstanding request.
	{
		num: "BenchmarkSMRPipeline/Pipelined", den: "BenchmarkSMRPipeline/Serialized",
		metric: func(b bench) float64 { return b.NsOp }, what: "ns/op",
		maxRatio: 0.2,
	},
	// PR 19, the coalescer sends when it is idle. One session, operation after
	// operation, four replicas, no network delay: through a Coalescer an
	// operation costs what it costs through the smr.Client alone plus two
	// goroutine hand-offs (measured 1.03-1.24x over twelve interleaved runs
	// on two shared cores, ~0.08 ms a leg). The 200 us linger this replaced
	// was delivered about a millisecond late: more than 10x on this pair.
	{
		num: "BenchmarkCoalescerIdle/Coalesced", den: "BenchmarkCoalescerIdle/Direct",
		metric: func(b bench) float64 { return b.NsOp }, what: "ns/op",
		maxRatio: 1.3,
	},
	// PR 19, a listing returns the directory. Listing 12 records allocates the
	// same whether the tuple space holds those 12 tuples or 400 (measured
	// 1.000x): the prefix is tested at the replica before a tuple is cloned,
	// encoded, shipped and decoded.
	{
		num: "BenchmarkDepSpaceList/Among400", den: "BenchmarkDepSpaceList/Alone",
		metric: func(b bench) float64 { return b.BOp }, what: "B/op",
		maxRatio: 1.5,
	},
	// A point read costs a replica a lookup, not a scan. Reading a record of
	// 12 through an in-process tuple space costs the same whether the space
	// holds those 12 tuples or 4000: the template names the tuple's tag and
	// path, which the space's key index maps to that key's tuples. A scan in
	// insertion order made the larger leg many times slower.
	{
		num: "BenchmarkDepSpaceGet/Among4000", den: "BenchmarkDepSpaceGet/Alone",
		metric: func(b bench) float64 { return b.NsOp }, what: "ns/op",
		maxRatio: 1.5,
	},
	// A collection is as deep with 64 changed files as with 8: three
	// coordination accesses, and a sweep that takes sixteen files at a time in
	// three cloud rounds each. By round-trip arithmetic 15 against 6 round
	// trips, 2.5x; measured ~2.7x at 5 ms a round trip on two cores. One
	// access per changed file and a four-wide sweep made it 131 against 19,
	// measured 6.9x.
	{
		num: "BenchmarkCollect/Files64", den: "BenchmarkCollect/Files8",
		metric: func(b bench) float64 { return b.NsOp }, what: "ns/op",
		maxRatio: 3.5,
	},
	// PR 10 acceptance, metadata-plane observability. The fully instrumented
	// storm — metrics, end-to-end tracing (facade and smr spans), and the
	// always-on flight recorder — must cost at most 5% ns/op over the
	// identical uninstrumented plane: the always-on tail recorder only earns
	// its keep if nobody ever wants to turn it off.
	{
		num: "BenchmarkMetadataStorm/SingleTelemetry", den: "BenchmarkMetadataStorm/Single",
		metric: func(b bench) float64 { return b.NsOp }, what: "ns/op",
		maxRatio: 1.05,
	},
	// The storm's telemetry cost as a count the scheduler cannot move: five
	// runs of run.sh's storm line on a 2-vCPU machine read 196-197 allocs/op
	// against 195 (1.005-1.010x), while their ns/op ratios spread
	// 1.06-1.39. The bound is the largest of the five plus 2%, the margin of
	// the HedgedTelemetry allocs rule.
	{
		num: "BenchmarkMetadataStorm/SingleTelemetry", den: "BenchmarkMetadataStorm/Single",
		metric: func(b bench) float64 { return b.AllocsOp }, what: "allocs/op",
		maxRatio: 1.03,
	},
}

// load parses one BENCH_*.json report.
func load(path string) (report, error) {
	var r report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Benchmarks) == 0 {
		return r, fmt.Errorf("%s: no benchmarks", path)
	}
	return r, nil
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintf(os.Stderr, "usage: benchguard BASELINE.json NEW.json\n")
		os.Exit(2)
	}
	base, err := load(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}
	cur, err := load(os.Args[2])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}

	failures := 0
	fail := func(format string, args ...any) {
		failures++
		fmt.Printf("FAIL  "+format+"\n", args...)
	}

	// 1. Allocation metrics across files (machine-independent). Entries
	// measured with very few iterations carry un-amortized one-time setup
	// allocations and are skipped (a missing "n" means a steady-state run
	// from before the field existed).
	checked := 0
	for name, c := range cur.Benchmarks {
		b, ok := base.Benchmarks[name]
		if !ok {
			continue
		}
		if (c.N > 0 && c.N < 10) || (b.N > 0 && b.N < 10) {
			continue
		}
		checked++
		// Tiny allocation counts jitter by a few bytes; only benchmarks
		// with a meaningful footprint are compared.
		if b.BOp >= 1024 && c.BOp > b.BOp*(1+threshold) {
			fail("%s: B/op %.0f -> %.0f (>%.0f%% regression)", name, b.BOp, c.BOp, threshold*100)
		}
		if b.AllocsOp >= 8 && c.AllocsOp > b.AllocsOp*(1+threshold)+2 {
			fail("%s: allocs/op %.0f -> %.0f (>%.0f%% regression)", name, b.AllocsOp, c.AllocsOp, threshold*100)
		}
	}
	fmt.Printf("benchguard: compared allocation metrics of %d shared benchmarks\n", checked)

	// 2. Tracked within-run ratios.
	for _, rule := range pairRules {
		cn, okN := cur.Benchmarks[rule.num]
		cd, okD := cur.Benchmarks[rule.den]
		if !okN || !okD {
			fmt.Printf("SKIP  ratio %s / %s: missing from the new run\n", rule.num, rule.den)
			continue
		}
		den := rule.metric(cd)
		if den == 0 {
			fmt.Printf("SKIP  ratio %s / %s: zero denominator\n", rule.num, rule.den)
			continue
		}
		ratio := rule.metric(cn) / den
		limit := rule.maxRatio
		source := "acceptance floor"
		if bn, ok := base.Benchmarks[rule.num]; ok {
			if bd, ok := base.Benchmarks[rule.den]; ok && rule.metric(bd) != 0 {
				baseRatio := rule.metric(bn) / rule.metric(bd)
				if l := baseRatio * (1 + threshold); l < limit {
					limit = l
					source = fmt.Sprintf("baseline ratio %.3f +%.0f%%", baseRatio, threshold*100)
				}
			}
		}
		status := "ok  "
		if ratio > limit {
			status = "FAIL"
			failures++
		}
		fmt.Printf("%s  %s: %s/%s = %.3f (limit %.3f, %s)\n", status, rule.what, rule.num, rule.den, ratio, limit, source)
	}

	if failures > 0 {
		fmt.Printf("benchguard: %d regression(s)\n", failures)
		os.Exit(1)
	}
	fmt.Println("benchguard: no tracked regressions")
}
