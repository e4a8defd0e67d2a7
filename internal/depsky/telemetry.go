package depsky

// Telemetry wiring for the dispatch hot path. All instruments are resolved
// once, at New: the per-RPC code indexes pre-built arrays of counter and
// histogram pointers instead of formatting names or taking registry locks,
// so a metered deployment pays a handful of atomic adds per RPC and a
// disabled one (Options.Metrics == nil) pays a single nil check.
//
// Instrument names carry their labels Prometheus-style, e.g.
//
//	rpc_total{cloud="c0",op="get",outcome="ok"}
//	hedge_suppressed_total{cloud="c2",op="put"}
//	breaker_open_total{cloud="c0",op="get"}
//
// so Snapshot.Total("rpc_total") sums across clouds and classes while the
// fully qualified name answers the per-provider question.

import (
	"fmt"
	"time"

	"scfs/internal/cloud"
	"scfs/internal/iopolicy"
	"scfs/internal/stream"
	"scfs/internal/telemetry"
)

// opClassNames maps an iopolicy op class index onto its label value.
var opClassNames = [...]string{iopolicy.OpGet: "get", iopolicy.OpPut: "put"}

// instruments is the pre-resolved instrument set of one manager. A nil
// *instruments disables everything.
type instruments struct {
	rpc         [][]rpcInstruments // [cloud][op class]
	rpcInflight []*telemetry.Gauge // [cloud]: round goroutines not yet delivered

	// stream instruments the readahead pipeline of every chunk reader this
	// manager opens (mount-wide, not per cloud).
	stream stream.ReaderMetrics
}

// rpcInstruments are the instruments of one cloud's RPCs of one op class.
type rpcInstruments struct {
	ok, err, cancel, retries, breakerSkip    *telemetry.Counter
	observed                                 *telemetry.Counter // mount-wide: latency samples on the scoreboard
	hedgeFired, hedgeKicked, hedgeSuppressed *telemetry.Counter
	lat                                      *telemetry.Histogram
	breakerTo                                [3]*telemetry.Counter // transitions into each state
}

// noInstruments is what a disabled manager counts on: nil instruments,
// whose methods do nothing.
var noInstruments rpcInstruments

// at returns the instruments of cloud i's RPCs of class.
func (ins *instruments) at(i int, class iopolicy.OpClass) *rpcInstruments {
	if ins == nil {
		return &noInstruments
	}
	return &ins.rpc[i][class]
}

// inflight returns cloud i's gauge of round goroutines (nil when disabled).
func (ins *instruments) inflight(i int) *telemetry.Gauge {
	if ins == nil {
		return nil
	}
	return ins.rpcInflight[i]
}

// newInstruments resolves every per-(cloud, class) instrument against reg.
func newInstruments(reg *telemetry.Registry, names []string) *instruments {
	if reg == nil {
		return nil
	}
	ins := &instruments{
		rpc:         make([][]rpcInstruments, len(names)),
		rpcInflight: make([]*telemetry.Gauge, len(names)),
		stream: stream.ReaderMetrics{
			PrefetchLaunched: reg.Counter("stream_prefetch_launched_total"),
			PrefetchHits:     reg.Counter("stream_prefetch_hits_total"),
			PrefetchAborted:  reg.Counter("stream_prefetch_aborted_total"),
			Window:           reg.Gauge("stream_readahead_window"),
			Inflight:         reg.Gauge("stream_prefetch_inflight"),
		},
	}
	for i, cn := range names {
		ins.rpcInflight[i] = reg.Gauge(telemetry.Name("rpc_inflight", "cloud", cn))
		ins.rpc[i] = make([]rpcInstruments, len(opClassNames))
		for cl, op := range opClassNames {
			counter := func(name string, kv ...string) *telemetry.Counter {
				return reg.Counter(telemetry.Name(name, append([]string{"cloud", cn, "op", op}, kv...)...))
			}
			ins.rpc[i][cl] = rpcInstruments{
				ok:              counter("rpc_total", "outcome", "ok"),
				err:             counter("rpc_total", "outcome", "error"),
				cancel:          counter("rpc_total", "outcome", "canceled"),
				lat:             reg.Histogram(telemetry.Name("rpc_latency_ns", "cloud", cn, "op", op)),
				observed:        reg.Counter("tracker_observations_total"),
				retries:         counter("rpc_retries_total"),
				breakerSkip:     counter("rpc_breaker_skipped_total"),
				hedgeFired:      counter("hedge_fired_total"),
				hedgeKicked:     counter("hedge_kicked_total"),
				hedgeSuppressed: counter("hedge_suppressed_total"),
				breakerTo: [3]*telemetry.Counter{
					iopolicy.BreakerClosed:   counter("breaker_recovered_total"),
					iopolicy.BreakerOpen:     counter("breaker_open_total"),
					iopolicy.BreakerHalfOpen: counter("breaker_half_open_total"),
				},
			}
		}
	}
	return ins
}

// cloudName returns the label value of cloud i.
func (m *Manager) cloudName(i int) string {
	if i < 0 || i >= len(m.cloudNames) {
		return "?"
	}
	return m.cloudNames[i]
}

// cloudLabels derives the per-cloud label values: the provider name,
// de-duplicated by suffixing the cloud index when two providers share one
// (a deployment mounting two accounts at the same provider must not merge
// their counters).
func cloudLabels(clouds []cloud.ObjectStore) []string {
	names := make([]string, len(clouds))
	seen := make(map[string]bool, len(clouds))
	for i, c := range clouds {
		n := c.Provider()
		if seen[n] {
			n = fmt.Sprintf("%s#%d", n, i)
		}
		seen[n] = true
		names[i] = n
	}
	return names
}

// spanOutcome classifies one RPC attempt's error for its trace span.
func spanOutcome(err error) telemetry.SpanOutcome {
	switch {
	case err == nil:
		return telemetry.SpanOK
	case err == errBreakerSkipped:
		return telemetry.SpanBreakerSkipped
	case iopolicy.Ignorable(err):
		return telemetry.SpanCanceled
	default:
		return telemetry.SpanError
	}
}

// recordSpan files one per-cloud attempt on the operation's trace (no-op
// without one).
func (m *Manager) recordSpan(tr *telemetry.Trace, kind string, i int, start time.Time, hedged bool, err error) {
	if tr == nil {
		return
	}
	tr.Record(telemetry.Span{
		Name:    kind,
		Target:  m.cloudName(i),
		Start:   start,
		Dur:     time.Since(start),
		Outcome: spanOutcome(err),
		Hedged:  hedged,
		Err:     err,
	})
}

// recordGated files the span of a cloud whose RPC was never issued: the
// quorum verdict arrived while the hedge gate still held it (suppressed) or
// the fan-out was cancelled before an ungated cloud launched.
func (m *Manager) recordGated(tr *telemetry.Trace, kind string, i int, hedged bool) {
	if tr == nil {
		return
	}
	out := telemetry.SpanCanceled
	if hedged {
		out = telemetry.SpanSuppressed
	}
	tr.Record(telemetry.Span{Name: kind, Target: m.cloudName(i), Outcome: out, Hedged: hedged})
}

// ProviderUsage is one cloud's metered consumption priced under the
// manager's rate table. Only clouds whose client implements cloud.Meter
// appear (the simulator does; custom backends may).
type ProviderUsage struct {
	// Provider is the cloud's label (provider name, de-duplicated).
	Provider string
	// Usage is the provider-metered consumption of this mount's account.
	Usage cloud.Usage
	// Dollars prices Usage under the cloud's rate card.
	Dollars float64
}

// MeteredUsage reports the metered consumption and dollar spend of every
// cloud that exposes a meter. Safe on any manager; clouds without a meter
// are skipped.
func (m *Manager) MeteredUsage() []ProviderUsage {
	var out []ProviderUsage
	for i, c := range m.opts.Clouds {
		mt, ok := c.(cloud.Meter)
		if !ok {
			continue
		}
		u := mt.Usage()
		out = append(out, ProviderUsage{
			Provider: m.cloudName(i),
			Usage:    u,
			Dollars:  m.rates[i].UsageCost(u),
		})
	}
	return out
}

// registerUsageGauges publishes each metered cloud's consumption as pull
// gauges: the registry snapshot polls the provider's meter at read time, so
// the hot path never touches them. Dollar spend is exported in microdollars
// (gauges are integers).
func (m *Manager) registerUsageGauges(reg *telemetry.Registry) {
	for i, c := range m.opts.Clouds {
		mt, ok := c.(cloud.Meter)
		if !ok {
			continue
		}
		cn := m.cloudName(i)
		rates := m.rates[i]
		reg.RegisterGauge(telemetry.Name("usage_bytes_in", "cloud", cn), func() int64 { return mt.Usage().BytesIn })
		reg.RegisterGauge(telemetry.Name("usage_bytes_out", "cloud", cn), func() int64 { return mt.Usage().BytesOut })
		reg.RegisterGauge(telemetry.Name("usage_get_requests", "cloud", cn), func() int64 { return mt.Usage().GetRequests })
		reg.RegisterGauge(telemetry.Name("usage_put_requests", "cloud", cn), func() int64 { return mt.Usage().PutRequests })
		reg.RegisterGauge(telemetry.Name("spend_microdollars", "cloud", cn), func() int64 {
			return int64(rates.UsageCost(mt.Usage()) * 1e6)
		})
	}
}
