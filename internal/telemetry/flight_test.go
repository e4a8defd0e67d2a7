package telemetry

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// finished builds a finished trace of the given op whose Duration is
// (approximately, and at least) d, carrying nspans spans shaped by mutate.
func finished(op string, d time.Duration, nspans int, mutate func(*Span)) *Trace {
	t := &Trace{Op: op, Unit: "/u", Start: time.Now().Add(-d), ID: NewTraceID()}
	for i := 0; i < nspans; i++ {
		s := Span{Name: "meta.get", Target: "c0", Outcome: SpanOK}
		if mutate != nil {
			mutate(&s)
		}
		t.Record(s)
	}
	t.Finish()
	return t
}

func TestTraceIDRoundTrip(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if a.IsZero() || b.IsZero() {
		t.Fatal("NewTraceID returned zero")
	}
	if a == b {
		t.Fatal("consecutive trace IDs collide")
	}
	if a.Short() == 0 {
		t.Fatal("Short() of a fresh ID is 0")
	}
	parsed, ok := ParseTraceID(a.String())
	if !ok || parsed != a {
		t.Fatalf("ParseTraceID(%q) = %v, %v", a.String(), parsed, ok)
	}
	for _, bad := range []string{"", "xyz", a.String()[:30], "00000000000000000000000000000000"} {
		if _, ok := ParseTraceID(bad); ok {
			t.Errorf("ParseTraceID(%q) accepted", bad)
		}
	}
}

// TestStartJoinsLiveTrace: Start mints a fresh identity, and a Start on a
// context that already carries a live trace joins it instead of nesting.
func TestStartJoinsLiveTrace(t *testing.T) {
	tr := NewTracer(4)
	ctx, outer := tr.Start(context.Background(), "open", "/f")
	if outer == nil || outer.ID.IsZero() {
		t.Fatal("Start did not mint an ID")
	}
	if _, inner := tr.Start(ctx, "read", "/f"); inner != nil {
		t.Fatal("nested Start did not join the live trace")
	}
}

// TestTraceSpanCap: a runaway trace stores at most maxTraceSpans spans and
// counts the overflow instead.
func TestTraceSpanCap(t *testing.T) {
	tr := finished("read", time.Millisecond, maxTraceSpans+44, nil)
	if got := tr.SpanCount(); got != maxTraceSpans {
		t.Fatalf("SpanCount = %d, want %d", got, maxTraceSpans)
	}
	if got := tr.Dropped(); got != 44 {
		t.Fatalf("Dropped = %d, want 44", got)
	}
}

// TestTraceFlags: error spans, breaker skips, view-change spans and
// operation-level errors all flag the trace for flight retention.
func TestTraceFlags(t *testing.T) {
	if finished("read", 0, 1, nil).Flagged() {
		t.Fatal("healthy trace flagged")
	}
	if !finished("read", 0, 1, func(s *Span) { s.Outcome = SpanError }).Flagged() {
		t.Fatal("error span did not flag")
	}
	if !finished("read", 0, 1, func(s *Span) { s.Outcome = SpanBreakerSkipped }).Flagged() {
		t.Fatal("breaker skip did not flag")
	}
	vc := finished("read", 0, 1, func(s *Span) { s.ViewChange = true })
	if !vc.Flagged() || !vc.CrossedViewChange() {
		t.Fatal("view-change span did not flag")
	}
	t2 := &Trace{Op: "read", Start: time.Now(), ID: NewTraceID()}
	t2.SetError(errors.New("boom"))
	t2.SetError(errors.New("later")) // first error sticks
	t2.Finish()
	if !t2.Flagged() || t2.Err() == nil || t2.Err().Error() != "boom" {
		t.Fatalf("SetError: flagged=%v err=%v", t2.Flagged(), t2.Err())
	}
}

// TestFlightSlowRetention: the recorder keeps the slowN slowest traces of a
// class, evicting the fastest exemplar when a slower one arrives, and
// ignores traces faster than everything retained.
func TestFlightSlowRetention(t *testing.T) {
	fr := NewFlightRecorder(3, 4, 0)
	for i := 1; i <= 6; i++ {
		fr.Offer(finished("read", time.Duration(i)*50*time.Millisecond, 2, nil))
	}
	slow := fr.Slowest("read")
	if len(slow) != 3 {
		t.Fatalf("retained %d slow traces, want 3", len(slow))
	}
	for i := 1; i < len(slow); i++ {
		if slow[i].Duration() > slow[i-1].Duration() {
			t.Fatal("Slowest not ordered slowest-first")
		}
	}
	// ~50ms is faster than all of the retained ~200/250/300ms exemplars.
	if slow[len(slow)-1].Duration() < 150*time.Millisecond {
		t.Fatalf("fast trace retained: %v", slow[len(slow)-1].Duration())
	}
	st := fr.Stats()
	if st.Seen != 6 || st.Retained != 3 || st.Evicted == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestFlightFlaggedRetention: flagged traces are retained regardless of
// speed, FIFO-bounded per class, and reported newest first.
func TestFlightFlaggedRetention(t *testing.T) {
	fr := NewFlightRecorder(2, 3, 0)
	for i := 0; i < 5; i++ {
		tr := &Trace{Op: "write", Unit: fmt.Sprintf("/f%d", i), Start: time.Now(), ID: NewTraceID()}
		tr.Record(Span{Name: "smr.invoke", Outcome: SpanError})
		tr.Finish()
		fr.Offer(tr)
	}
	flagged := fr.Flagged("write")
	if len(flagged) != 3 {
		t.Fatalf("retained %d flagged traces, want 3", len(flagged))
	}
	if flagged[0].Unit != "/f4" || flagged[2].Unit != "/f2" {
		t.Fatalf("flagged order wrong: %s .. %s", flagged[0].Unit, flagged[2].Unit)
	}
	if len(fr.Slowest("write")) != 0 {
		t.Fatal("flagged traces leaked into the slow list")
	}
}

// TestFlightSpanBudget: the global span budget evicts the least interesting
// exemplars — fastest slow traces before flagged ones — and never the last
// retained trace.
func TestFlightSpanBudget(t *testing.T) {
	fr := NewFlightRecorder(8, 8, 30)
	for i := 1; i <= 4; i++ {
		fr.Offer(finished("read", time.Duration(i)*20*time.Millisecond, 9, nil)) // cost 10 each
	}
	if st := fr.Stats(); st.Spans > 30 {
		t.Fatalf("budget exceeded: %+v", st)
	}
	if got := len(fr.Slowest("read")); got != 3 {
		t.Fatalf("retained %d slow traces under budget, want 3", got)
	}
	// A flagged arrival pushes out slow exemplars, not other flagged ones.
	bad := finished("read", time.Millisecond, 9, func(s *Span) { s.Outcome = SpanError })
	fr.Offer(bad)
	if got := len(fr.Flagged("read")); got != 1 {
		t.Fatalf("flagged trace not retained under budget pressure: %d", got)
	}
	if st := fr.Stats(); st.Spans > 30 {
		t.Fatalf("budget exceeded after flagged admission: %+v", st)
	}
	// An oversized sole survivor is kept rather than evicted to nothing.
	tiny := NewFlightRecorder(4, 4, 3)
	tiny.Offer(finished("read", time.Millisecond, 20, nil))
	if tiny.Stats().Retained != 1 {
		t.Fatal("sole oversized trace was evicted")
	}
}

// TestFlightNilSafety: a nil recorder (flight disabled) no-ops everywhere.
func TestFlightNilSafety(t *testing.T) {
	var fr *FlightRecorder
	fr.Offer(finished("read", time.Millisecond, 1, nil))
	if fr.Classes() != nil || fr.Slowest("read") != nil || fr.Flagged("read") != nil {
		t.Fatal("nil recorder returned data")
	}
	if fr.Stats() != (FlightStats{}) {
		t.Fatal("nil recorder has stats")
	}
}

// TestTracerFeedsRecorder: traces finished through a tracer with a recorder
// installed land in the recorder, including their flight classification.
func TestTracerFeedsRecorder(t *testing.T) {
	tr := NewTracer(4)
	fr := NewFlightRecorder(0, 0, 0)
	tr.SetRecorder(fr)
	_, a := tr.Start(context.Background(), "read", "/ok")
	a.Finish()
	_, b := tr.Start(context.Background(), "read", "/bad")
	b.SetError(errors.New("backend down"))
	b.Finish()
	if got := fr.Stats().Retained; got != 2 {
		t.Fatalf("recorder retained %d traces, want 2", got)
	}
	flagged := fr.Flagged("read")
	if len(flagged) != 1 || flagged[0].Unit != "/bad" {
		t.Fatalf("flagged = %v", flagged)
	}
}

// TestHistogramExemplars: ObserveExemplar attaches the trace ID to the
// latency bucket it lands in; plain Observe leaves no exemplar; merge is
// last-write-wins on the non-zero side.
func TestHistogramExemplars(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat")
	h.Observe(time.Millisecond)
	h.ObserveExemplar(time.Millisecond, 0xbeef)
	snap := reg.Snapshot()
	hs, ok := snap.Histograms["lat"]
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	found := false
	for i, e := range hs.Exemplars {
		if e == 0xbeef {
			found = true
			if hs.Buckets[i] == 0 {
				t.Fatal("exemplar attached to an empty bucket")
			}
		}
	}
	if !found {
		t.Fatalf("exemplar not attached: %v", hs.Exemplars)
	}
}
