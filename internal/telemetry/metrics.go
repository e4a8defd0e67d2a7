// Package telemetry is the observability plane of SCFS: a zero-dependency
// metrics registry (atomic counters, gauges, fixed-bucket latency
// histograms), request-scoped traces of quorum fan-outs carried on
// context.Context, and snapshot/export machinery (JSON, Prometheus text,
// structured event log) that the facade's debug server and Mount.Stats()
// serve.
//
// The package is built for the hot path it measures. Every instrument is a
// pointer whose methods are safe on nil — a mount without telemetry passes
// nil instruments everywhere and pays a single predicted branch per call
// site. Callers resolve instruments once (at construction, not per
// operation), so an enabled mount pays one atomic add per event and no map
// lookups or allocations on the data path.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count. The zero value is
// ready to use; a nil *Counter is a disabled instrument (Add is a no-op).
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n < 0 is ignored: counters never go down).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down. The zero value is ready to
// use; a nil *Gauge is a disabled instrument.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the fixed bucket count of every histogram: bucket i holds
// observations whose nanosecond value has bit length i, i.e. durations in
// [2^(i-1), 2^i). Power-of-two boundaries make Observe a bits.Len64 and an
// atomic add — no search — while spanning 1ns to ~9min, plus an overflow
// bucket.
const histBuckets = 40

// Histogram is a fixed-bucket latency histogram with exponential
// (power-of-two nanosecond) boundaries. The zero value is ready to use; a
// nil *Histogram is a disabled instrument.
type Histogram struct {
	count  atomic.Int64
	sum    atomic.Int64 // nanoseconds
	bucket [histBuckets]atomic.Int64
	// exemplar holds, per bucket, the compact trace ID (TraceID.Short) of
	// the most recent traced observation that landed there — the link from
	// "the p99 bucket grew" to the flight-recorded trace that explains it.
	exemplar [histBuckets]atomic.Uint64
}

// bucketIndex maps a nanosecond duration to its bucket.
func bucketIndex(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	i := bits.Len64(uint64(ns))
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// BucketUpperNanos returns the inclusive upper bound (in nanoseconds) of
// bucket i; the last bucket is unbounded.
func BucketUpperNanos(i int) int64 {
	if i >= histBuckets-1 {
		return int64(1)<<62 - 1
	}
	return int64(1)<<uint(i) - 1
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.ObserveExemplar(d, 0)
}

// ObserveExemplar records one duration and, when exemplar is non-zero,
// attaches it to the duration's bucket as the bucket's latest exemplar
// (last-write-wins; pass Trace.ExemplarID, which is 0 for untraced
// operations). One atomic store over Observe — cheap enough to call
// unconditionally on traced paths.
func (h *Histogram) ObserveExemplar(d time.Duration, exemplar uint64) {
	if h == nil {
		return
	}
	ns := int64(d)
	i := bucketIndex(ns)
	h.count.Add(1)
	h.sum.Add(ns)
	h.bucket[i].Add(1)
	if exemplar != 0 {
		h.exemplar[i].Store(exemplar)
	}
}

// snapshot captures the histogram's current contents.
func (h *Histogram) snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.Count = h.count.Load()
	s.SumNanos = h.sum.Load()
	for i := range h.bucket {
		s.Buckets[i] = h.bucket[i].Load()
		s.Exemplars[i] = h.exemplar[i].Load()
	}
	return s
}

// Registry owns the named instruments of one mount. Instruments are
// created on first use and live for the registry's lifetime; callers are
// expected to resolve them once and hold the pointers. A nil *Registry is
// a disabled registry: every lookup returns a nil (disabled) instrument
// and Snapshot returns the zero Snapshot.
//
// Instrument names carry their labels Prometheus-style in the name itself,
// e.g. `rpc_total{cloud="c0",op="get",outcome="ok"}` — see Name.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	gaugeFns map[string]func() int64
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		gaugeFns: make(map[string]func() int64),
	}
}

// Name renders an instrument name from a base and label key/value pairs:
// Name("rpc_total", "cloud", "c0", "op", "get") →
// `rpc_total{cloud="c0",op="get"}`. With no labels it returns the base.
func Name(base string, kv ...string) string {
	if len(kv) == 0 {
		return base
	}
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", kv[i], kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// Base strips the label block from an instrument name:
// Base(`rpc_total{cloud="c0"}`) → "rpc_total".
func Base(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = new(Counter)
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = new(Gauge)
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = new(Histogram)
		r.hists[name] = h
	}
	return h
}

// RegisterGauge registers a pull-style gauge: fn is evaluated at snapshot
// time (queue depths, cache sizes, metered usage). Re-registering a name
// replaces the function. No-op on a nil registry.
func (r *Registry) RegisterGauge(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.gaugeFns[name] = fn
	r.mu.Unlock()
}

// Snapshot captures every instrument's current value, evaluating
// registered gauge functions. Safe to call concurrently with updates (each
// value is read atomically; the snapshot as a whole is not a consistent
// cut, which is fine for monitoring).
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	fns := make(map[string]func() int64, len(r.gaugeFns))
	for k, v := range r.gaugeFns {
		fns[k] = v
	}
	r.mu.Unlock()

	s.Counters = make(map[string]int64, len(counters))
	for k, v := range counters {
		s.Counters[k] = v.Value()
	}
	s.Gauges = make(map[string]int64, len(gauges)+len(fns))
	for k, v := range gauges {
		s.Gauges[k] = v.Value()
	}
	for k, fn := range fns {
		s.Gauges[k] = fn()
	}
	s.Histograms = make(map[string]HistogramSnapshot, len(hists))
	for k, v := range hists {
		s.Histograms[k] = v.snapshot()
	}
	return s
}

// HistogramSnapshot is a histogram's frozen contents. Buckets is indexed
// by the fixed power-of-two scheme (see BucketUpperNanos).
type HistogramSnapshot struct {
	Count    int64              `json:"count"`
	SumNanos int64              `json:"sum_nanos"`
	Buckets  [histBuckets]int64 `json:"buckets"`
	// Exemplars carries, per bucket, the compact trace ID of the latest
	// traced observation (0 = none) — look the full trace up in the flight
	// recorder or trace ring by its ID suffix.
	Exemplars [histBuckets]uint64 `json:"exemplars,omitempty"`
}

// Quantile estimates the q-quantile (0 < q <= 1) from the bucket counts,
// returning the upper bound of the bucket holding the q-th observation.
func (h HistogramSnapshot) Quantile(q float64) time.Duration {
	if h.Count == 0 {
		return 0
	}
	rank := int64(q * float64(h.Count))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, n := range h.Buckets {
		seen += n
		if seen >= rank {
			return time.Duration(BucketUpperNanos(i))
		}
	}
	return time.Duration(BucketUpperNanos(histBuckets - 1))
}

// merge adds o's contents into h. Exemplars are last-write-wins like the
// live histogram: o's exemplar replaces h's where o has one.
func (h HistogramSnapshot) merge(o HistogramSnapshot) HistogramSnapshot {
	h.Count += o.Count
	h.SumNanos += o.SumNanos
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
		if o.Exemplars[i] != 0 {
			h.Exemplars[i] = o.Exemplars[i]
		}
	}
	return h
}

// Snapshot is a point-in-time copy of a registry: plain maps, safe to
// marshal, diff, and merge. The zero value is an empty snapshot.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Counter returns the named counter's value (0 when absent).
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Gauge returns the named gauge's value (0 when absent).
func (s Snapshot) Gauge(name string) int64 { return s.Gauges[name] }

// Total sums every counter whose base name (the part before the label
// block) equals base: Total("rpc_total") aggregates across all clouds,
// ops, and outcomes.
func (s Snapshot) Total(base string) int64 {
	var sum int64
	for k, v := range s.Counters {
		if Base(k) == base {
			sum += v
		}
	}
	return sum
}

// Merge returns a new snapshot with o's values added to s's (counters and
// histograms sum; gauges sum too, which treats them as additive across
// shards — the use case is merging per-mount snapshots of one process).
func (s Snapshot) Merge(o Snapshot) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]int64, len(s.Counters)+len(o.Counters)),
		Gauges:     make(map[string]int64, len(s.Gauges)+len(o.Gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(s.Histograms)+len(o.Histograms)),
	}
	for k, v := range s.Counters {
		out.Counters[k] = v
	}
	for k, v := range o.Counters {
		out.Counters[k] += v
	}
	for k, v := range s.Gauges {
		out.Gauges[k] = v
	}
	for k, v := range o.Gauges {
		out.Gauges[k] += v
	}
	for k, v := range s.Histograms {
		out.Histograms[k] = v
	}
	for k, v := range o.Histograms {
		out.Histograms[k] = out.Histograms[k].merge(v)
	}
	return out
}

// WriteJSON writes the snapshot as indented JSON. Map keys are emitted in
// sorted order (encoding/json's behaviour), so output is deterministic.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format, deterministically ordered. Instrument names already carry their
// labels; histograms expand into the _bucket/_sum/_count series with
// cumulative le bounds in seconds.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	names := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if _, err := fmt.Fprintf(w, "%s %d\n", k, s.Counters[k]); err != nil {
			return err
		}
	}

	names = names[:0]
	for k := range s.Gauges {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if _, err := fmt.Fprintf(w, "%s %d\n", k, s.Gauges[k]); err != nil {
			return err
		}
	}

	names = names[:0]
	for k := range s.Histograms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if err := writePromHistogram(w, k, s.Histograms[k]); err != nil {
			return err
		}
	}
	return nil
}

// writePromHistogram expands one histogram into Prometheus series. Only
// non-empty buckets get their own le line (plus the +Inf catch-all), which
// keeps the exposition small without losing any mass.
func writePromHistogram(w io.Writer, name string, h HistogramSnapshot) error {
	base, labels := splitName(name)
	plain := ""
	if labels != "" {
		plain = "{" + strings.TrimSuffix(labels, ",") + "}"
	}
	var cum int64
	for i, n := range h.Buckets {
		if n == 0 {
			continue
		}
		cum += n
		le := float64(BucketUpperNanos(i)) / 1e9
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"%g\"} %d\n", base, labels, le, cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", base, labels, h.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", base, plain, float64(h.SumNanos)/1e9); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", base, plain, h.Count)
	return err
}

// splitName splits `base{a="b"}` into "base" and `a="b",` (trailing comma
// ready for an extra label; empty when the name has no labels).
func splitName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	inner := strings.TrimSuffix(name[i+1:], "}")
	if inner == "" {
		return name[:i], ""
	}
	return name[:i], inner + ","
}
