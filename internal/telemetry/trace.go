package telemetry

import (
	"context"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"time"
)

// SpanOutcome classifies how one per-cloud attempt inside a quorum fan-out
// ended.
type SpanOutcome uint8

const (
	// SpanOK: the attempt completed and its answer was used (or usable).
	SpanOK SpanOutcome = iota
	// SpanError: the attempt failed with a provider error.
	SpanError
	// SpanCanceled: the attempt was cancelled — typically a straggler cut
	// down by a first-quorum-wins verdict.
	SpanCanceled
	// SpanBreakerSkipped: the attempt was never issued because the cloud's
	// breaker was open under a fail-fast policy.
	SpanBreakerSkipped
	// SpanSuppressed: a hedged attempt whose release never came — the
	// quorum verdict arrived while it waited behind the hedge gate.
	SpanSuppressed
)

// String implements fmt.Stringer.
func (o SpanOutcome) String() string {
	switch o {
	case SpanOK:
		return "ok"
	case SpanError:
		return "error"
	case SpanCanceled:
		return "canceled"
	case SpanBreakerSkipped:
		return "breaker-skipped"
	case SpanSuppressed:
		return "suppressed"
	default:
		return "unknown"
	}
}

// Span is one attempt or phase in an operation's fan-out tree. Name is the
// span kind and must be a constant — data-plane RPCs ("desc.get",
// "desc.put", "chunk.get", "chunk.put", "head.get", "head.put") and
// metadata-plane phases ("smr.invoke", "smr.batch"); variable detail
// belongs in Target (the provider the span worked against, the batch flush
// trigger, or how an smr invocation was answered: ordered, unordered or
// fallback), never Sprintf'd into the name. Hedged marks
// attempts that launched from behind the hedge gate rather than the
// preferred set.
// Err (if any) is kept as an error value — formatting is deferred to export
// time so the hot path never builds strings.
//
// The metadata-plane fields are zero on data-plane spans: Wait is time
// spent queued before work started (a pipelining-window wait, a batch
// coalescing linger), Vote the first-reply-to-quorum latency of an smr
// invocation, Retries its retransmission count, Ops the number of
// operations a batch or fan-out carried, and ViewChange marks an
// invocation that was in flight across a replica-group view change.
type Span struct {
	Name    string
	Target  string
	Start   time.Time
	Dur     time.Duration
	Outcome SpanOutcome
	Hedged  bool
	Err     error

	Wait       time.Duration
	Vote       time.Duration
	Retries    int
	Ops        int
	ViewChange bool
}

// describe renders the span for the event log and JSON export.
func (s Span) describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s %v %s", s.Name, s.Target, s.Dur, s.Outcome)
	if s.Hedged {
		b.WriteString(" hedged")
	}
	if s.Wait > 0 {
		fmt.Fprintf(&b, " wait=%v", s.Wait)
	}
	if s.Vote > 0 {
		fmt.Fprintf(&b, " vote=%v", s.Vote)
	}
	if s.Retries > 0 {
		fmt.Fprintf(&b, " retries=%d", s.Retries)
	}
	if s.Ops > 0 {
		fmt.Fprintf(&b, " ops=%d", s.Ops)
	}
	if s.ViewChange {
		b.WriteString(" view-change")
	}
	if s.Err != nil {
		b.WriteString(" err=" + s.Err.Error())
	}
	return b.String()
}

// traceKey carries the active *Trace on a context (same idiom as
// internal/iopolicy's policy key).
type traceKey struct{}

// FromContext returns the trace the context carries, or nil. All Trace
// methods are nil-safe, so call sites never branch.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// inlineSpans bounds the per-trace span storage that comes for free with
// the Trace allocation. A hedged read against 4 clouds records ~8 spans
// (metadata quorum + block fetch, winners and suppressed alike); 12 leaves
// room for retries before the slice spills to the heap.
const inlineSpans = 12

// maxTraceSpans caps the spans one trace retains. Without a cap a single
// trace can grow without bound — a metadata storm funnelling a thousand
// sessions' batches through one traced operation would retain every span —
// and the flight recorder's memory accounting would be meaningless. Spans
// past the cap are counted (Dropped), not stored.
const maxTraceSpans = 256

// Flag bits summarizing what a trace's spans reported; the flight
// recorder's retention test reads them without rescanning the spans.
const (
	flagError uint8 = 1 << iota
	flagBreakerSkipped
	flagViewChange
)

// Trace is the record of one client operation's fan-out: which clouds or
// shards were tried for each phase, how long each attempt took, who won,
// who was cancelled or never released, and how long the quorum verdict
// took. A Trace is created by Tracer.Start, carried on the context through
// the dispatch layers, and finished (and exported) when the operation
// returns. A nil *Trace is a disabled trace: every method no-ops.
type Trace struct {
	// Op is the operation kind ("read", "write", "stat", ...).
	Op string
	// Unit names the object the operation worked on.
	Unit string
	// Start is when the operation began.
	Start time.Time
	// ID is the trace's identity (W3C trace-id shaped), minted by
	// Tracer.Start.
	ID TraceID

	tracer *Tracer

	mu      sync.Mutex
	end     time.Time
	verdict time.Duration
	spans   []Span
	inline  [inlineSpans]Span
	dropped int
	flags   uint8
	err     error
	done    bool
}

// Record appends one attempt span. Records arriving after Finish — e.g. a
// straggler goroutine that lost the quorum race and unwound late — are
// dropped, so an exported trace never mutates and stragglers cannot leak
// spans into a retained one. Past maxTraceSpans the span is counted but not
// stored (see Dropped), bounding the memory of one trace.
func (t *Trace) Record(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if !t.done {
		switch s.Outcome {
		case SpanError:
			t.flags |= flagError
		case SpanBreakerSkipped:
			t.flags |= flagBreakerSkipped
		}
		if s.ViewChange {
			t.flags |= flagViewChange
		}
		if len(t.spans) >= maxTraceSpans {
			t.dropped++
		} else {
			if t.spans == nil {
				t.spans = t.inline[:0]
			}
			t.spans = append(t.spans, s)
		}
	}
	t.mu.Unlock()
}

// SetError records the operation-level error (the one the client saw, as
// opposed to per-attempt span errors). Only the first non-nil error
// sticks; errors arriving after Finish are dropped like late spans. An
// errored trace is flight-recorder flagged even when no individual span
// failed.
func (t *Trace) SetError(err error) {
	if t == nil || err == nil {
		return
	}
	t.mu.Lock()
	if !t.done && t.err == nil {
		t.err = err
		t.flags |= flagError
	}
	t.mu.Unlock()
}

// Err returns the recorded operation-level error, if any.
func (t *Trace) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Dropped returns how many spans were discarded past the per-trace cap.
func (t *Trace) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// SpanCount returns the number of retained spans.
func (t *Trace) SpanCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Flagged reports whether the trace is fault evidence: an errored or
// breaker-skipped attempt, a view-change-crossing invocation, or an
// operation-level error. The flight recorder retains every flagged trace
// regardless of how fast it was.
func (t *Trace) Flagged() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.flags != 0
}

// CrossedViewChange reports whether any recorded span was in flight across
// a replica-group view change.
func (t *Trace) CrossedViewChange() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.flags&flagViewChange != 0
}

// ExemplarID returns the compact (low 8 bytes) form of the trace's ID for
// histogram exemplar attachment; 0 on a nil trace, which ObserveExemplar
// treats as "no exemplar".
func (t *Trace) ExemplarID() uint64 {
	if t == nil {
		return 0
	}
	return t.ID.Short()
}

// SetVerdict records the quorum verdict latency — how long until enough
// answers were in to decide the operation. Only the first call sticks
// (nested phases each race to report; the outermost verdict is the one
// that matters for the client).
func (t *Trace) SetVerdict(d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if !t.done && t.verdict == 0 {
		t.verdict = d
	}
	t.mu.Unlock()
}

// Finish seals the trace and hands it to its tracer's flight recorder and
// event log. Idempotent; safe on nil.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return
	}
	t.done = true
	t.end = time.Now()
	t.mu.Unlock()
	if t.tracer != nil {
		t.tracer.record(t)
	}
}

// Duration returns the operation's total wall time (0 until finished).
func (t *Trace) Duration() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.end.IsZero() {
		return 0
	}
	return t.end.Sub(t.Start)
}

// VerdictLatency returns the recorded quorum verdict latency.
func (t *Trace) VerdictLatency() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.verdict
}

// Spans returns a copy of the recorded spans.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Describe renders the trace as one line per span, for logs and debugging.
func (t *Trace) Describe() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, len(t.spans))
	for i, s := range t.spans {
		out[i] = s.describe()
	}
	return out
}

// Tracer starts one trace per client operation and files every finished
// trace into its flight recorder and, when it was given one, the structured
// event log. A nil *Tracer is disabled: Start returns the context unchanged
// and a nil trace.
type Tracer struct {
	handler  slog.Handler
	recorder *FlightRecorder
}

// NewTracer creates a tracer with its own flight recorder. h, when not nil,
// receives one record per completed trace (the structured event log); it
// runs synchronously on the finishing goroutine, so keep it cheap or buffer
// inside it.
func NewTracer(h slog.Handler) *Tracer {
	return &Tracer{handler: h, recorder: NewFlightRecorder()}
}

// Recorder returns the flight recorder the tracer files finished traces
// into, or nil on a nil tracer.
func (tr *Tracer) Recorder() *FlightRecorder {
	if tr == nil {
		return nil
	}
	return tr.recorder
}

// Start begins a trace for one operation and returns a context carrying
// it. When the context already carries a live trace — a chunk fetch inside
// a streamed read, say — Start joins it instead: the inner phase's spans
// land on the parent and the returned trace is nil (its Finish is a
// no-op), so exactly one trace per client operation reaches the recorder.
func (tr *Tracer) Start(ctx context.Context, op, unit string) (context.Context, *Trace) {
	if tr == nil {
		return ctx, nil
	}
	if FromContext(ctx) != nil {
		return ctx, nil
	}
	t := &Trace{Op: op, Unit: unit, Start: time.Now(), ID: NewTraceID(), tracer: tr}
	return context.WithValue(ctx, traceKey{}, t), t
}

// record files a finished trace into the flight recorder and the event log.
func (tr *Tracer) record(t *Trace) {
	tr.recorder.offer(t)
	if tr.handler == nil {
		return
	}
	rec := slog.NewRecord(t.end, slog.LevelInfo, "scfs.trace", 0)
	rec.AddAttrs(
		slog.String("trace", t.ID.String()),
		slog.String("op", t.Op),
		slog.String("unit", t.Unit),
		slog.Duration("dur", t.Duration()),
		slog.Duration("verdict", t.VerdictLatency()),
		slog.Any("spans", t.Describe()),
	)
	// The trace is already finished when it is logged; slog.Handler wants a
	// ctx only for handler-internal values, and no caller remains to cancel.
	_ = tr.handler.Handle(context.Background(), rec)
}
