package bench

import (
	"fmt"
	"io"
	"math"
	"sort"

	"scfs/internal/cloud"
	"scfs/internal/cloudsim"
	"scfs/internal/pricing"
)

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Def describes a metric as BENCHMARK.json lists it. Only end-to-end metrics
// have a bound.
type Def struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// EndToEnd lists the end-to-end metrics with the share of the parent's
// median by which each may get worse before a change counts as a regression.
// Medians are over the successful calls of a class, taken per time slice and
// then over the slices (Pass.P50). Every workload reports every one of them,
// so a bound has to hold on the noisiest workload; each is about three times
// the widest spread (quartile distance over median) seen in ten runs with ten
// seeds of any workload, and at most the quarter the contract allows. The
// 95th percentiles, which move by a quarter from run to run wherever they are
// processor time, are per-layer metrics (tail.*) without a bound.
var EndToEnd = []Def{
	{"setup_s", "s", "lower", 0.25},
	{"write_close_small_p50_ms", "ms", "lower", 0.10},
	{"write_close_large_p50_ms", "ms", "lower", 0.25},
	{"cold_read_small_p50_ms", "ms", "lower", 0.15},
	{"cold_read_large_p50_ms", "ms", "lower", 0.25},
	{"warm_read_p50_ms", "ms", "lower", 0.12},
	{"stat_p50_ms", "ms", "lower", 0.10},
	{"readdir_p50_ms", "ms", "lower", 0.25},
	{"create_p50_ms", "ms", "lower", 0.15},
	{"share_p50_ms", "ms", "lower", 0.20},
	{"ops_per_s", "1/s", "higher", 0.15},
	{"data_mib_s", "MiB/s", "higher", 0.20},
	{"cloud_usd_per_kop", "usd", "lower", 0.15},
}

// Quantile returns the q-quantile of sorted samples by linear interpolation,
// or NaN when there are none.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// Median sorts a copy of v and returns its median.
func Median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return Quantile(s, 0.5)
}

// Dollars prices metered usage under pricing.DefaultTable: request fees and
// transfer fees. Storage-time is left out, because it measures how long the
// run took and not what it did.
func Dollars(p *Pass) (requests, transfer float64) {
	table := pricing.DefaultTable()
	for i, kind := range cloudsim.CoCKinds() {
		rates := table.For(string(kind))
		u := p.Usage[i]
		bytes := cloud.Usage{BytesIn: u.BytesIn, BytesOut: u.BytesOut}
		transfer += rates.UsageCost(bytes)
		u.BytesIn, u.BytesOut, u.ByteHours = 0, 0, 0
		requests += rates.UsageCost(u)
	}
	return
}

// EndToEndMetrics computes the end-to-end metrics of an untraced pass.
func EndToEndMetrics(p *Pass, setupS float64) map[string]Metric {
	wall := p.Wall.Seconds()
	req, xfer := Dollars(p)
	values := map[string]float64{
		"setup_s":                  setupS,
		"write_close_small_p50_ms": p.P50[CWriteSmall],
		"write_close_large_p50_ms": p.P50[CWriteLarge],
		"cold_read_small_p50_ms":   p.P50[CColdSmall],
		"cold_read_large_p50_ms":   p.P50[CColdLarge],
		"warm_read_p50_ms":         p.P50[CWarmRead],
		"stat_p50_ms":              p.P50[CStat],
		"readdir_p50_ms":           p.P50[CReadDir],
		"create_p50_ms":            p.P50[CCreate],
		"share_p50_ms":             p.P50[CShare],
		"ops_per_s":                float64(p.Steps) / wall,
		"data_mib_s":               float64(p.Bytes) / (1 << 20) / wall,
		"cloud_usd_per_kop":        (req + xfer) / (float64(p.Steps) / 1000),
	}
	out := make(map[string]Metric, len(EndToEnd))
	for _, d := range EndToEnd {
		out[d.Name] = Metric{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}

// PrintPass writes the human-readable account of a pass: per script kind
// what was attempted and what failed, per timed class the sample count
// beside each timing.
func PrintPass(w io.Writer, title string, p *Pass) {
	fmt.Fprintf(w, "%s: %d steps in %.2f s, %d rounds, %.1f MiB verified\n",
		title, p.Steps, p.Wall.Seconds(), p.Rounds, float64(p.Bytes)/(1<<20))
	fmt.Fprintf(w, "  %-14s %9s %7s %6s\n", "step kind", "attempted", "errors", "stale")
	for k, t := range p.Tallies {
		fmt.Fprintf(w, "  %-14s %9d %7d %6d\n", Kind(k), t.Attempted, t.Errors, t.Stale)
	}
	fmt.Fprintf(w, "  %-14s %7s %10s %10s %10s %10s\n", "timed class", "samples", "p50 ms", "sliced p50", "p95 ms", "max ms")
	for c, s := range p.Samples {
		if len(s) == 0 {
			fmt.Fprintf(w, "  %-14s %7d\n", Class(c), 0)
			continue
		}
		fmt.Fprintf(w, "  %-14s %7d %10.3f %10.3f %10.3f %10.3f\n", Class(c), len(s), Quantile(s, 0.5), p.P50[c], Quantile(s, 0.95), s[len(s)-1])
	}
	if len(p.CollectMs) > 0 {
		fmt.Fprintf(w, "  collect: %d runs, median %.1f ms, %d versions deleted\n", len(p.CollectMs), Median(p.CollectMs), p.GCVersions)
	}
	// How the reads were constructed shows in agent A's counters: every cold
	// read should have gone to the clouds and every warm read to a cache.
	cold := p.Tallies[ColdSmall].Attempted + p.Tallies[ColdLarge].Attempted
	fmt.Fprintf(w, "  agent A: %d cold reads, %d fetches from the clouds; %d warm reads, %d memory and %d disk cache hits\n",
		cold, p.StatsA.CloudReads, p.Tallies[WarmRead].Attempted, p.StatsA.MemCacheHits, p.StatsA.DiskCacheHits)
	if p.FirstError != "" {
		fmt.Fprintf(w, "  first error: %s\n", p.FirstError)
	}
}
