package bench

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"scfs/scfsbench/spans"
)

// budgetClasses are the timed classes whose wall time the traced pass splits
// by layer.
var budgetClasses = []Class{CWriteSmall, CWriteLarge, CColdSmall, CColdLarge, CCreate, CStat, CShareClose, CShareRead}

// dataClasses are the ones that reach the clouds.
var dataClasses = []Class{CWriteSmall, CWriteLarge, CColdSmall, CColdLarge}

// PerLayer lists the per-layer metrics, in the order they are documented.
// Layer names are the module names.
var PerLayer = perLayerDefs()

func perLayerDefs() []Def {
	var d []Def
	add := func(name, unit, better string) { d = append(d, Def{Name: name, Unit: unit, Better: better}) }
	for _, c := range budgetClasses {
		for _, part := range []string{"core_us", "coord_us", "depsky_us", "cloud_us"} {
			add("budget."+c.String()+"."+part, "us", "lower")
		}
	}
	add("budget.stat.smr_us", "us", "lower")
	add("budget.create.smr_us", "us", "lower")

	for _, c := range []Class{CWriteSmall, CColdSmall, CCreate, CStat, CReadDir} {
		add("coord.calls_per_op."+c.String(), "count", "lower")
	}
	add("coord.calls_per_op", "count", "lower")
	for _, op := range []string{"get", "put", "list", "trylock", "unlock"} {
		add("coord.call_us_p50."+op, "us", "lower")
	}
	add("coord.list_records_per_call", "count", "lower")
	add("coord.list_bytes_per_call", "bytes", "lower")

	add("smr.invocations_per_coord_call", "count", "lower")
	add("smr.ops_per_batch", "count", "higher")
	add("smr.rtt_us_p50", "us", "lower")
	add("smr.rtt_us_p95", "us", "lower")
	add("smr.cmd_bytes_per_invocation", "bytes", "lower")
	add("smr.reply_bytes_per_invocation", "bytes", "lower")

	for _, c := range dataClasses {
		add("depsky.rpc_rounds."+c.String(), "count", "lower")
	}
	for _, c := range dataClasses {
		add("depsky.rpcs."+c.String(), "count", "lower")
	}
	add("depsky.wasted_rpc_ratio", "ratio", "lower")
	add("depsky.put_bytes_per_user_byte", "ratio", "lower")
	add("depsky.get_bytes_per_user_byte", "ratio", "lower")
	add("depsky.self_us_per_mib.write_large", "us", "lower")
	add("depsky.self_us_per_mib.cold_large", "us", "lower")

	add("core.mem_hit_ratio", "ratio", "higher")
	add("core.disk_hit_ratio", "ratio", "higher")
	add("core.anchor_retries_per_read", "ratio", "lower")
	add("core.gc_collect_ms", "ms", "lower")
	add("core.gc_versions_per_s", "1/s", "higher")
	add("share.close_ms_p50", "ms", "lower")
	add("share.read_after_ms_p50", "ms", "lower")
	add("share.anchor_retry_share", "ratio", "lower")
	add("share.read_error_share", "ratio", "lower")

	add("cloud.requests_per_op", "count", "lower")
	add("cloud.put_ms_p50", "ms", "lower")
	add("cloud.get_ms_p50", "ms", "lower")
	add("cloud.stored_bytes_per_live_byte", "ratio", "lower")
	add("cloud.usd_per_kop.requests", "usd", "lower")
	add("cloud.usd_per_kop.transfer", "usd", "lower")

	for _, p := range []struct{ name, unit, better string }{
		{"probe.seccrypto.hash_mib_s", "MiB/s", "higher"},
		{"probe.seccrypto.encrypt_mib_s", "MiB/s", "higher"},
		{"probe.seccrypto.decrypt_mib_s", "MiB/s", "higher"},
		{"probe.erasure.split_mib_s", "MiB/s", "higher"},
		{"probe.erasure.reconstruct_mib_s", "MiB/s", "higher"},
		{"probe.secretshare.split_us", "us", "lower"},
		{"probe.secretshare.combine_us", "us", "lower"},
		{"probe.fsmeta.encode_us", "us", "lower"},
		{"probe.fsmeta.decode_us", "us", "lower"},
		{"probe.cache.disk_put_mib_s", "MiB/s", "higher"},
		{"probe.cache.disk_get_mib_s", "MiB/s", "higher"},
		{"probe.depspace.get_us", "us", "lower"},
		{"probe.depspace.list_us_per_ktuple", "us", "lower"},
		{"probe.depsky.write_us.16k", "us", "lower"},
		{"probe.depsky.read_us.16k", "us", "lower"},
	} {
		add(p.name, p.unit, p.better)
	}

	add("tail.write_close_small_p95_ms", "ms", "lower")
	add("tail.stat_p95_ms", "ms", "lower")
	add("tail.share_p95_ms", "ms", "lower")

	add("proc.cpu_s_per_kop", "s", "lower")
	add("proc.allocs_per_op", "count", "lower")
	add("proc.alloc_bytes_per_op", "bytes", "lower")
	add("proc.peak_rss_mib", "MiB", "lower")
	add("proc.gc_pause_ms_total", "ms", "lower")
	add("trace.overhead_ratio", "ratio", "lower")
	return d
}

// Proc is the process's own consumption over a stretch of the run.
type Proc struct {
	CPUSeconds float64
	Mallocs    uint64
	AllocBytes uint64
	GCPauseMs  float64
}

// ReadProc snapshots the counters Proc is the difference of.
func ReadProc() Proc {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return Proc{
		CPUSeconds: tv(ru.Utime) + tv(ru.Stime),
		Mallocs:    ms.Mallocs,
		AllocBytes: ms.TotalAlloc,
		GCPauseMs:  float64(ms.PauseTotalNs) / 1e6,
	}
}

// Sub returns p - q.
func (p Proc) Sub(q Proc) Proc {
	return Proc{p.CPUSeconds - q.CPUSeconds, p.Mallocs - q.Mallocs, p.AllocBytes - q.AllocBytes, p.GCPauseMs - q.GCPauseMs}
}

// PeakRSSMiB is the process's peak resident set, which includes the
// simulated clouds' contents.
func PeakRSSMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// Immediate is what the immediate-read probe saw: agent B reading a file at
// once after agent A closed it, with the clouds' consistency windows in
// force. The scripts never do this (their share steps read a version that is
// already visible everywhere), so that no script step fails on the seed's
// known defect; the probe measures the defect instead.
type Immediate struct {
	Reads   int
	Retried int // reads that met storage.ErrVersionNotFound at least once
	Errors  int // reads that failed
	Stale   int
}

// ImmediateReads runs the probe for d on a traced deployment.
func ImmediateReads(ctx context.Context, env *Env, seed int64, d time.Duration) Immediate {
	const path = "/c0/tmp/immediate"
	data := newPayloads(seed)
	tapB := env.taps.storage[1]
	var im Immediate
	for start, v := time.Now(), uint32(1); time.Since(start) < d || im.Reads < 3; v++ {
		if err := env.A.WriteFile(ctx, path, data.content(share, path, v)); err != nil {
			im.Errors++
			im.Reads++
			continue
		}
		before := tapB.notFound.Load()
		got, err := env.B.ReadFile(ctx, path)
		im.Reads++
		switch {
		case err != nil:
			im.Errors++
		case !data.verify(share, path, v, got):
			im.Stale++
		}
		if tapB.notFound.Load() > before {
			im.Retried++
		}
	}
	return im
}

// TracedRun is everything the traced pass of a run produced.
type TracedRun struct {
	Pass      *Pass // the traced replay
	Reference *Pass // an untraced replay of the same script in the same run
	RefProc   Proc  // the process's consumption over Reference
	Spans     []spans.Span
	Immediate Immediate
	Stored    int64 // bytes resident at the providers after a final Collect
	Live      int64 // bytes of live user data at that point
	Probes    map[string]Metric
	Counts    tapCounts // what crossed the boundaries during Pass
}

// LiveBytes is the user data a layout keeps alive: every file's current
// version.
func (l Layout) LiveBytes() int64 {
	perClient := (l.SmallTargets+l.ColdSmall+l.Hot)*SmallSize + (l.LargeTargets+l.ColdLarge)*LargeSize + l.ShareSlots*ShareSize
	return int64(Clients * perClient)
}

// middle averages f over the middle fifth of the budgets by total time, so
// that the parts add up to (nearly) the class's median duration, which
// medians of the parts would not.
func middle(b []spans.Budget, f func(spans.Budget) int64) float64 {
	lo, hi := len(b)*2/5, (len(b)*3+4)/5
	if hi <= lo {
		hi = lo + 1
	}
	var sum int64
	for _, x := range b[lo:hi] {
		sum += f(x)
	}
	return float64(sum) / float64(hi-lo)
}

func medianInt(b []spans.Budget, f func(spans.Budget) int) float64 {
	v := make([]float64, len(b))
	for i, x := range b {
		v[i] = float64(f(x))
	}
	return Median(v)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// PerLayerMetrics computes the per-layer metrics of a traced run.
func PerLayerMetrics(t *TracedRun) (map[string]Metric, error) {
	v := make(map[string]float64)
	p := t.Pass

	byClass := make(map[string][]spans.Budget)
	for _, b := range spans.Budgets(t.Spans) {
		byClass[b.Class] = append(byClass[b.Class], b)
	}
	for _, bs := range byClass {
		sort.Slice(bs, func(i, j int) bool { return bs[i].Total < bs[j].Total })
	}
	for _, c := range budgetClasses {
		bs := byClass[c.String()]
		if len(bs) == 0 {
			return nil, errors.New("no traced " + c.String() + " call succeeded")
		}
		pre := "budget." + c.String() + "."
		v[pre+"core_us"] = middle(bs, func(b spans.Budget) int64 { return b.CoreSelf }) / 1e3
		v[pre+"coord_us"] = middle(bs, func(b spans.Budget) int64 { return b.CoordSelf }) / 1e3
		v[pre+"depsky_us"] = middle(bs, func(b spans.Budget) int64 { return b.DepSky }) / 1e3
		v[pre+"cloud_us"] = middle(bs, func(b spans.Budget) int64 { return b.CloudWait }) / 1e3
		if c == CStat || c == CCreate {
			v[pre+"smr_us"] = middle(bs, func(b spans.Budget) int64 { return b.Invoker }) / 1e3
		}
	}
	for _, c := range []Class{CWriteSmall, CColdSmall, CCreate, CStat, CReadDir} {
		v["coord.calls_per_op."+c.String()] = medianInt(byClass[c.String()], func(b spans.Budget) int { return b.CoordCalls })
	}
	for _, c := range dataClasses {
		bs := byClass[c.String()]
		v["depsky.rpc_rounds."+c.String()] = medianInt(bs, func(b spans.Budget) int { return b.Rounds })
		v["depsky.rpcs."+c.String()] = medianInt(bs, func(b spans.Budget) int { return b.CloudRPCs })
	}
	v["depsky.self_us_per_mib.write_large"] = v["budget.write_large.depsky_us"] / (LargeSize >> 20)
	v["depsky.self_us_per_mib.cold_large"] = v["budget.cold_large.depsky_us"] / (LargeSize >> 20)

	// Per-boundary timings and the wasted share, from the raw spans.
	byID := make(map[uint32]*spans.Span, len(t.Spans))
	for i := range t.Spans {
		byID[t.Spans[i].ID] = &t.Spans[i]
	}
	durs := make(map[string][]float64)
	var coordCalls, cloudRPCs, wasted float64
	for i := range t.Spans {
		s := &t.Spans[i]
		switch s.Layer {
		case spans.Coord:
			coordCalls++
			durs["coord."+s.Name] = append(durs["coord."+s.Name], float64(s.End-s.Start)/1e3)
		case spans.Cloud:
			cloudRPCs++
			parent := byID[s.Parent]
			if s.Outcome == "cancelled" || (parent != nil && s.End > parent.End) {
				wasted++
			} else if s.Outcome == "ok" {
				durs["cloud."+s.Name] = append(durs["cloud."+s.Name], float64(s.End-s.Start)/1e6)
			}
		}
	}
	for _, op := range []string{"get", "put", "list", "trylock", "unlock"} {
		v["coord.call_us_p50."+op] = Median(durs["coord."+op])
	}
	v["cloud.put_ms_p50"] = Median(durs["cloud.put"])
	v["cloud.get_ms_p50"] = Median(durs["cloud.get"])
	v["depsky.wasted_rpc_ratio"] = ratio(wasted, cloudRPCs)

	steps := float64(p.Steps)
	n := t.Counts
	v["coord.calls_per_op"] = coordCalls / steps
	v["coord.list_records_per_call"] = ratio(n.listRecords, n.listCalls)
	v["coord.list_bytes_per_call"] = ratio(n.listBytes, n.listCalls)

	v["smr.invocations_per_coord_call"] = ratio(n.commands, coordCalls)
	v["smr.ops_per_batch"] = ratio(n.commands, n.wire.calls)
	v["smr.rtt_us_p50"] = Quantile(n.wire.rtt, 0.5)
	v["smr.rtt_us_p95"] = Quantile(n.wire.rtt, 0.95)
	v["smr.cmd_bytes_per_invocation"] = ratio(n.wire.cmdBytes, n.wire.calls)
	v["smr.reply_bytes_per_invocation"] = ratio(n.wire.replyBytes, n.wire.calls)

	v["cloud.requests_per_op"] = n.cloudRequests / steps
	v["depsky.put_bytes_per_user_byte"] = ratio(n.putBytes, float64(p.Written))
	v["depsky.get_bytes_per_user_byte"] = ratio(n.getBytes, float64(p.Fetched))
	v["cloud.stored_bytes_per_live_byte"] = ratio(float64(t.Stored), float64(t.Live))
	req, xfer := Dollars(p)
	v["cloud.usd_per_kop.requests"] = req / (steps / 1000)
	v["cloud.usd_per_kop.transfer"] = xfer / (steps / 1000)

	a := p.StatsA
	v["core.mem_hit_ratio"] = ratio(float64(a.MemCacheHits), float64(a.MemCacheHits+a.MemCacheMisses))
	v["core.disk_hit_ratio"] = ratio(float64(a.DiskCacheHits), float64(a.DiskCacheHits+a.DiskCacheMisses))
	v["core.anchor_retries_per_read"] = ratio(n.notFound, n.reads)
	var collectS float64
	for _, ms := range p.CollectMs {
		collectS += ms / 1e3
	}
	v["core.gc_collect_ms"] = Median(p.CollectMs)
	v["core.gc_versions_per_s"] = ratio(float64(p.GCVersions), collectS)

	v["share.close_ms_p50"] = Quantile(p.Samples[CShareClose], 0.5)
	v["share.read_after_ms_p50"] = Quantile(p.Samples[CShareRead], 0.5)
	v["share.anchor_retry_share"] = ratio(float64(t.Immediate.Retried), float64(t.Immediate.Reads))
	v["share.read_error_share"] = ratio(float64(t.Immediate.Errors), float64(t.Immediate.Reads))

	// Tails come from the untraced reference replay, like every timing a
	// user would see.
	v["tail.write_close_small_p95_ms"] = Quantile(t.Reference.Samples[CWriteSmall], 0.95)
	v["tail.stat_p95_ms"] = Quantile(t.Reference.Samples[CStat], 0.95)
	v["tail.share_p95_ms"] = Quantile(t.Reference.Samples[CShare], 0.95)

	refSteps := float64(t.Reference.Steps)
	v["proc.cpu_s_per_kop"] = t.RefProc.CPUSeconds / (refSteps / 1000)
	v["proc.allocs_per_op"] = float64(t.RefProc.Mallocs) / refSteps
	v["proc.alloc_bytes_per_op"] = float64(t.RefProc.AllocBytes) / refSteps
	v["proc.gc_pause_ms_total"] = t.RefProc.GCPauseMs
	v["proc.peak_rss_mib"] = PeakRSSMiB()
	var overhead []float64
	for _, c := range budgetClasses {
		overhead = append(overhead, Quantile(p.Samples[c], 0.5)/Quantile(t.Reference.Samples[c], 0.5))
	}
	v["trace.overhead_ratio"] = Median(overhead)

	out := make(map[string]Metric, len(PerLayer))
	for name, m := range t.Probes {
		out[name] = m
	}
	for _, d := range PerLayer {
		if _, ok := out[d.Name]; ok {
			continue
		}
		x, ok := v[d.Name]
		if !ok || math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, errors.New("per-layer metric " + d.Name + " has no value: the pass was too short for a sample of every class")
		}
		out[d.Name] = Metric{Value: x, Unit: d.Unit}
	}
	return out, nil
}
