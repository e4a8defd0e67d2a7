package iopolicy

import (
	"context"
	"testing"
	"time"
)

func TestPolicyContextRoundTrip(t *testing.T) {
	if _, ok := FromContext(context.Background()); ok {
		t.Fatal("background context should carry no policy")
	}
	pol := Policy{Hedge: Hedge{Percentile: 0.95}, Readahead: 3}
	ctx := With(context.Background(), pol)
	got, ok := FromContext(ctx)
	if !ok {
		t.Fatal("policy not found on context")
	}
	if got.Hedge.Percentile != 0.95 || got.Readahead != 3 {
		t.Fatalf("got %+v", got)
	}
}

func TestPolicyMerge(t *testing.T) {
	base := Policy{
		Hedge:     Hedge{Percentile: 0.9, MaxDelay: time.Second},
		Readahead: 2,
	}
	merged := base.Merge(Policy{Readahead: 8})
	if merged.Readahead != 8 {
		t.Fatalf("override readahead lost: %+v", merged)
	}
	if merged.Hedge.Percentile != 0.9 {
		t.Fatalf("base fields lost: %+v", merged)
	}
	merged = base.Merge(Policy{Hedge: Hedge{Percentile: 0.5, MinDelay: time.Millisecond}})
	if merged.Hedge.Percentile != 0.5 || merged.Hedge.MinDelay != time.Millisecond {
		t.Fatalf("hedge override fields lost: %+v", merged)
	}
	if merged.Hedge.MaxDelay != time.Second {
		t.Fatalf("hedge merge must be field-wise (inherited MaxDelay lost): %+v", merged)
	}
	// Delay bounds alone retune an inherited hedge without re-enabling it.
	merged = base.Merge(Policy{Hedge: Hedge{MaxDelay: 5 * time.Millisecond}})
	if merged.Hedge.Percentile != 0.9 || merged.Hedge.MaxDelay != 5*time.Millisecond {
		t.Fatalf("delay-bounds-only override lost: %+v", merged)
	}
	if !(Policy{}).IsZero() {
		t.Fatal("zero policy should report IsZero")
	}
	if base.IsZero() {
		t.Fatal("non-zero policy should not report IsZero")
	}
}

// TestPlacementMerge covers the two knobs that decide where a fan-out's
// requests go: the write hedge (which clouds a write parks as spares) and
// the pinned preference order.
func TestPlacementMerge(t *testing.T) {
	base := Policy{WriteHedge: Hedge{Percentile: 0.9, MaxDelay: time.Second}}
	merged := base.Merge(Policy{Preference: Preference{Order: []int{2, 0}}})
	if len(merged.Preference.Order) != 2 || merged.Preference.Order[0] != 2 {
		t.Fatalf("preference override lost: %+v", merged)
	}
	if merged.WriteHedge != base.WriteHedge {
		t.Fatalf("write hedge lost: %+v", merged)
	}
	// The zero (unset) preference inherits the default.
	pinned := Policy{Preference: Preference{Order: []int{3}}}
	if merged = pinned.Merge(Policy{Readahead: 4}); len(merged.Preference.Order) != 1 || merged.Preference.Order[0] != 3 {
		t.Fatalf("unset preference must inherit the default: %+v", merged)
	}
	merged = base.Merge(Policy{WriteHedge: Hedge{MinDelay: 5 * time.Millisecond}})
	if merged.WriteHedge.Percentile != 0.9 || merged.WriteHedge.MinDelay != 5*time.Millisecond || merged.WriteHedge.MaxDelay != time.Second {
		t.Fatalf("write hedge must merge field-wise: %+v", merged)
	}
	if (Policy{WriteHedge: Hedge{Percentile: 0.5}}).IsZero() {
		t.Fatal("write-hedged policy must not report IsZero")
	}
	if pinned.IsZero() {
		t.Fatal("pinned policy must not report IsZero")
	}
}

func TestTrackerPercentileAndRank(t *testing.T) {
	tr := NewScoreboard(3, BreakerPolicy{}, nil)
	op := GetOp(0)
	// Cloud 0: fast. Cloud 2: slow. Cloud 1: never observed.
	for i := 0; i < 50; i++ {
		tr.Record(0, op, time.Millisecond, nil)
		tr.Record(2, op, 10*time.Millisecond, nil)
	}
	if d, ok := tr.percentile(0, op, 0.95); !ok || d != time.Millisecond {
		t.Fatalf("cloud 0 p95 = %v, %v", d, ok)
	}
	if _, ok := tr.percentile(1, op, 0.95); ok {
		t.Fatal("cloud 1 has no samples")
	}
	if d, ok := tr.ewma(2, op); !ok || d < 9*time.Millisecond {
		t.Fatalf("cloud 2 ewma = %v, %v", d, ok)
	}
	rank := tr.Rank(op)
	if len(rank) != 3 || rank[2] != 2 {
		t.Fatalf("slow cloud should rank last: %v", rank)
	}
	// Unseen cloud 1 ranks before the observed ones (explored optimistically).
	if rank[0] != 1 {
		t.Fatalf("unseen cloud should rank first: %v", rank)
	}
}

func TestTrackerPercentileSpread(t *testing.T) {
	tr := NewScoreboard(1, BreakerPolicy{}, nil)
	op := GetOp(0)
	// 90 fast samples, 10 slow: p50 must be fast, p99 slow.
	for i := 0; i < 90; i++ {
		tr.Record(0, op, time.Millisecond, nil)
	}
	for i := 0; i < 10; i++ {
		tr.Record(0, op, 100*time.Millisecond, nil)
	}
	if d, _ := tr.percentile(0, op, 0.5); d != time.Millisecond {
		t.Fatalf("p50 = %v", d)
	}
	if d, _ := tr.percentile(0, op, 0.99); d != 100*time.Millisecond {
		t.Fatalf("p99 = %v", d)
	}
}

// TestTrackerSplitsByClassAndSize pins the ROADMAP fix: GETs and PUTs (and
// different payload-size buckets) form separate series, so a cloud that
// serves fast point reads but slow bulk uploads is ranked per operation,
// and a cold series borrows the nearest populated one instead of reporting
// nothing.
func TestTrackerSplitsByClassAndSize(t *testing.T) {
	tr := NewScoreboard(2, BreakerPolicy{}, nil)
	smallGet := GetOp(100)
	bigPut := PutOp(4 << 20)
	// Cloud 0: instant point GETs, terrible bulk PUTs. Cloud 1: the reverse.
	for i := 0; i < 40; i++ {
		tr.Record(0, smallGet, time.Millisecond, nil)
		tr.Record(0, bigPut, 200*time.Millisecond, nil)
		tr.Record(1, smallGet, 50*time.Millisecond, nil)
		tr.Record(1, bigPut, 20*time.Millisecond, nil)
	}
	if rank := tr.Rank(smallGet); rank[0] != 0 {
		t.Fatalf("GET rank = %v, cloud 0 should lead", rank)
	}
	if rank := tr.Rank(bigPut); rank[0] != 1 {
		t.Fatalf("bulk PUT rank = %v, cloud 1 should lead", rank)
	}
	// The PUT series must not be polluted by the 1ms GETs: cloud 0's bulk
	// PUT percentile stays at its own 200ms.
	if d, ok := tr.percentile(0, bigPut, 0.9); !ok || d != 200*time.Millisecond {
		t.Fatalf("bulk PUT p90 = %v, %v (want the PUT series, not the GET one)", d, ok)
	}
	// A cold series (medium-sized GET) falls back to the nearest populated
	// bucket of the same class rather than reporting "no samples".
	if d, ok := tr.ewma(0, GetOp(1<<20)); !ok || d > 2*time.Millisecond {
		t.Fatalf("cold-bucket fallback = %v, %v (want the small-GET series)", d, ok)
	}
	// A class with no samples at all falls back to the other class.
	tr2 := NewScoreboard(1, BreakerPolicy{}, nil)
	for i := 0; i < 10; i++ {
		tr2.Record(0, smallGet, 3*time.Millisecond, nil)
	}
	if d, ok := tr2.ewma(0, PutOp(100)); !ok || d != 3*time.Millisecond {
		t.Fatalf("cross-class fallback = %v, %v", d, ok)
	}
}

func TestHedgeDelayClamp(t *testing.T) {
	tr := NewScoreboard(2, BreakerPolicy{}, nil)
	op := GetOp(0)
	h := Hedge{Percentile: 0.9, MinDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond}
	// Cold tracker: MinDelay.
	if d := tr.HedgeDelay(op, h, []int{0, 1}); d != 2*time.Millisecond {
		t.Fatalf("cold delay = %v", d)
	}
	for i := 0; i < 50; i++ {
		tr.Record(0, op, 50*time.Millisecond, nil)
	}
	// Tracked p90 of 50ms is clamped by MaxDelay.
	if d := tr.HedgeDelay(op, h, []int{0}); d != 20*time.Millisecond {
		t.Fatalf("clamped delay = %v", d)
	}
}

func TestGovernorRampAndReset(t *testing.T) {
	g := NewGovernor(4)
	// Sequential reads ramp 1, 2, 4, 4...
	want := []int{1, 2, 4, 4}
	off := int64(0)
	for i, w := range want {
		if got := g.Observe(off, 100); got != w {
			t.Fatalf("read %d: window = %d, want %d", i, got, w)
		}
		off += 100
	}
	// A seek collapses the window.
	if got := g.Observe(10_000, 100); got != 0 {
		t.Fatalf("random read window = %d, want 0", got)
	}
	// Resuming sequentially from the new position ramps again.
	if got := g.Observe(10_100, 100); got != 1 {
		t.Fatalf("resumed window = %d, want 1", got)
	}
	// Disabled governor never prefetches.
	if got := NewGovernor(0).Observe(0, 1); got != 0 {
		t.Fatalf("disabled governor window = %d", got)
	}
	var nilG *Governor
	if got := nilG.Observe(0, 1); got != 0 {
		t.Fatal("nil governor must be a no-op")
	}
}

// TestGovernorInterleavedStreams pins the ROADMAP fix: two sequential scans
// interleaving their reads on one open file must each ramp their own
// window instead of defeating the sequentiality detector.
func TestGovernorInterleavedStreams(t *testing.T) {
	g := NewGovernor(8)
	offA, offB := int64(0), int64(1<<20)
	want := []int{1, 2, 4, 8, 8}
	for i, w := range want {
		if got := g.Observe(offA, 100); got != w {
			// Stream B's first read creates its stream (window 0), so its
			// ramp trails A's by one read.
			t.Fatalf("stream A read %d: window = %d, want %d", i, got, w)
		}
		wantB := 0
		if i > 0 {
			wantB = want[i-1]
		}
		if got := g.Observe(offB, 100); got != wantB {
			t.Fatalf("stream B read %d: window = %d, want %d", i, got, wantB)
		}
		offA += 100
		offB += 100
	}
	// Random reads occupy the remaining stream slots without evicting the
	// two live scans, so a continuing scan keeps its window.
	for i := int64(0); i < 2; i++ {
		g.Observe(5<<20+i*7777, 10)
	}
	if got := g.Observe(offA, 100); got != 8 {
		t.Fatalf("stream A lost its window to random churn: %d", got)
	}
	offA += 100
	if got := g.Observe(offB, 100); got != 8 {
		t.Fatalf("stream B lost its window to random churn: %d", got)
	}
	offB += 100
	// A hot block re-read repeatedly during the scans must refresh one
	// stream, not mint a duplicate per re-read: the first re-read takes
	// one (LRU) slot, the rest reuse it, and both scans keep their windows.
	for i := 0; i < 10; i++ {
		if got := g.Observe(9<<20, 100); got != 0 {
			t.Fatalf("hot re-read %d got window %d, want 0", i, got)
		}
	}
	if got := g.Observe(offA, 100); got != 8 {
		t.Fatalf("stream A lost its window to hot re-read churn: %d", got)
	}
	if got := g.Observe(offB, 100); got != 8 {
		t.Fatalf("stream B lost its window to hot re-read churn: %d", got)
	}
}

func TestRetryAndBreakerMerge(t *testing.T) {
	base := Policy{Retry: Retry{MaxAttempts: 3, BackoffBase: time.Millisecond}}
	if got := base.Merge(Policy{}); got.Retry != base.Retry {
		t.Fatalf("empty override clobbered retry: %+v", got.Retry)
	}
	override := Policy{Retry: Retry{MaxAttempts: 5}}
	if got := base.Merge(override); got.Retry != override.Retry {
		t.Fatalf("override retry did not replace: %+v", got.Retry)
	}
	if base.Merge(Policy{Breaker: BreakerFailFast}).Breaker != BreakerFailFast {
		t.Fatal("breaker mode override lost")
	}
	ff := Policy{Breaker: BreakerFailFast}
	if got := ff.Merge(Policy{Breaker: BreakerDemote}).Breaker; got != BreakerDemote {
		t.Fatalf("FailFast.Merge(Demote) = %v: an explicit demote must override a fail-fast default", got)
	}
	if ff.Merge(Policy{}).Breaker != BreakerFailFast {
		t.Fatal("unset breaker mode must keep the default")
	}
	if (Policy{Retry: Retry{MaxAttempts: 2}}).IsZero() {
		t.Fatal("retry policy must not report IsZero")
	}
	if (Policy{Breaker: BreakerFailFast}).IsZero() {
		t.Fatal("breaker policy must not report IsZero")
	}
	if !(Retry{}).IsZero() || (Retry{}).Enabled() || !(Retry{MaxAttempts: 2}).Enabled() {
		t.Fatal("Retry zero/enabled predicates wrong")
	}
}

func TestTrackerDecayRestoresSilentClouds(t *testing.T) {
	now := time.Unix(1000, 0)
	tr := NewScoreboard(2, BreakerPolicy{}, nil)
	tr.now = func() time.Time { return now }

	// Cloud 0 was measured slow, cloud 1 fast.
	for i := 0; i < 10; i++ {
		tr.Record(0, GetOp(100), 500*time.Millisecond, nil)
		tr.Record(1, GetOp(100), 10*time.Millisecond, nil)
	}
	if order := tr.Rank(GetOp(100)); order[0] != 1 {
		t.Fatalf("rank = %v, want fast cloud first", order)
	}
	slow, _ := tr.ewma(0, GetOp(100))

	// Within the grace period nothing changes.
	now = now.Add(5 * time.Second)
	if d, _ := tr.ewma(0, GetOp(100)); d != slow {
		t.Fatalf("EWMA decayed within grace: %v -> %v", slow, d)
	}

	// Cloud 0 goes silent (demoted) while cloud 1 keeps serving traffic.
	for i := 0; i < 90; i++ {
		now = now.Add(time.Second)
		tr.Record(1, GetOp(100), 10*time.Millisecond, nil)
	}
	d0, _ := tr.ewma(0, GetOp(100))
	d1, _ := tr.ewma(1, GetOp(100))
	if d0 >= slow {
		t.Fatalf("stale EWMA did not decay: %v", d0)
	}
	if d0 >= d1 {
		t.Fatalf("after sustained silence the stale cloud (%v) should rank below the active one (%v)", d0, d1)
	}
	if order := tr.Rank(GetOp(100)); order[0] != 0 {
		t.Fatalf("rank = %v, want the silent cloud re-promoted for exploration", order)
	}

	// A fresh sample resumes from the true (undecayed) average.
	tr.Record(0, GetOp(100), 500*time.Millisecond, nil)
	if d, _ := tr.ewma(0, GetOp(100)); d < 400*time.Millisecond {
		t.Fatalf("fresh sample should restore the true EWMA, got %v", d)
	}
}

// ewma returns cloud i's staleness-discounted EWMA latency for op (with the
// cold-series fallback) and whether any sample was available.
func (s *Scoreboard) ewma(i int, op Op) (time.Duration, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ser := s.clouds[i].lookup(op)
	if ser == nil {
		return 0, false
	}
	return time.Duration(ser.decayedEWMA(s.now())), true
}
