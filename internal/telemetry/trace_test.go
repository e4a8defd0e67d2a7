package telemetry

import (
	"context"
	"errors"
	"log/slog"
	"sync"
	"testing"
	"time"
)

func TestNilTracerAndTrace(t *testing.T) {
	var tr *Tracer
	ctx, span := tr.Start(context.Background(), "read", "/x")
	if span != nil {
		t.Fatal("nil tracer must return a nil trace")
	}
	if FromContext(ctx) != nil {
		t.Fatal("nil tracer must not attach a trace")
	}
	span.Record(Span{Name: "meta.get"})
	span.SetVerdict(time.Millisecond)
	span.Finish()
	if tr.Recorder() != nil {
		t.Fatal("nil tracer must have no recorder")
	}
}

func TestStartJoinsParentTrace(t *testing.T) {
	tr := NewTracer(nil)
	ctx, outer := tr.Start(context.Background(), "read", "/f")
	if outer == nil {
		t.Fatal("outer trace missing")
	}
	// An inner phase on the same context joins the parent: no new trace.
	ctx2, inner := tr.Start(ctx, "chunk", "/f#3")
	if inner != nil {
		t.Fatal("inner Start must join the parent trace")
	}
	if FromContext(ctx2) != outer {
		t.Fatal("context must still carry the outer trace")
	}
	inner.Finish() // no-op
	if tr.Recorder().Stats().Seen != 0 {
		t.Fatal("joined phase must not export a trace")
	}
	outer.Finish()
	if tr.Recorder().Stats().Seen != 1 {
		t.Fatal("outer finish must export exactly one trace")
	}
}

// TestQuorumCancellationSpans models a first-quorum-wins fan-out: four
// workers race, the first two answers decide, stragglers are cancelled and
// must show up as cancelled spans — and anything recorded after the trace
// finishes must not leak into the exported spans.
func TestQuorumCancellationSpans(t *testing.T) {
	tr := NewTracer(nil)
	ctx, trace := tr.Start(context.Background(), "read", "/q")
	fanCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	const n, need = 4, 2
	results := make(chan int, n)
	var recorded sync.WaitGroup
	for i := 0; i < n; i++ {
		recorded.Add(1)
		go func(i int) {
			defer recorded.Done()
			start := time.Now()
			fast := i < need
			if !fast {
				<-fanCtx.Done() // straggler: cut down by the verdict
				FromContext(fanCtx).Record(Span{
					Name: "block.get", Target: "c", Start: start,
					Dur: time.Since(start), Outcome: SpanCanceled, Err: fanCtx.Err(),
				})
				return
			}
			FromContext(fanCtx).Record(Span{
				Name: "block.get", Target: "c", Start: start,
				Dur: time.Since(start), Outcome: SpanOK,
			})
			results <- i
		}(i)
	}
	for i := 0; i < need; i++ {
		<-results
	}
	trace.SetVerdict(time.Since(trace.Start))
	cancel()        // verdict: cancel stragglers
	recorded.Wait() // all spans recorded
	trace.Finish()

	spans := trace.Spans()
	var ok, cancelled int
	for _, s := range spans {
		switch s.Outcome {
		case SpanOK:
			ok++
		case SpanCanceled:
			cancelled++
			if !errors.Is(s.Err, context.Canceled) {
				t.Fatalf("cancelled span carries err %v", s.Err)
			}
		}
	}
	if ok != need || cancelled != n-need {
		t.Fatalf("spans: %d ok, %d cancelled; want %d/%d", ok, cancelled, need, n-need)
	}
	if trace.VerdictLatency() <= 0 {
		t.Fatal("verdict latency not recorded")
	}

	// A late straggler recording after Finish is dropped, not leaked.
	before := len(trace.Spans())
	trace.Record(Span{Name: "late", Outcome: SpanCanceled})
	if got := len(trace.Spans()); got != before {
		t.Fatalf("span recorded after finish leaked: %d -> %d", before, got)
	}
	// And only the first verdict sticks.
	v := trace.VerdictLatency()
	trace.SetVerdict(42 * time.Hour)
	if trace.VerdictLatency() != v {
		t.Fatal("verdict overwritten")
	}
}

// collectHandler is a minimal slog.Handler capturing records.
type collectHandler struct {
	mu   sync.Mutex
	recs []slog.Record
}

func (h *collectHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h *collectHandler) Handle(_ context.Context, r slog.Record) error {
	h.mu.Lock()
	h.recs = append(h.recs, r)
	h.mu.Unlock()
	return nil
}
func (h *collectHandler) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *collectHandler) WithGroup(string) slog.Handler      { return h }

func TestEventLogHandler(t *testing.T) {
	h := &collectHandler{}
	tr := NewTracer(h)
	_, trace := tr.Start(context.Background(), "write", "/w")
	trace.Record(Span{Name: "block.put", Target: "c0", Outcome: SpanOK, Dur: time.Millisecond})
	trace.SetVerdict(500 * time.Microsecond)
	trace.Finish()
	trace.Finish() // idempotent: one event only

	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.recs) != 1 {
		t.Fatalf("event log got %d records, want 1", len(h.recs))
	}
	var op string
	h.recs[0].Attrs(func(a slog.Attr) bool {
		if a.Key == "op" {
			op = a.Value.String()
		}
		return true
	})
	if op != "write" {
		t.Fatalf("event op = %q", op)
	}
}
