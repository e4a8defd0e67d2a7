package iopolicy

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"scfs/internal/cloud"
)

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{cloud.ErrUnavailable, true},
		{cloud.ErrThrottled, true},
		{fmt.Errorf("s3: %w", cloud.ErrUnavailable), true},
		{fmt.Errorf("s3: %w", cloud.ErrThrottled), true},
		{cloud.ErrNotFound, false},
		{cloud.ErrAccessDenied, false},
		{cloud.ErrCorrupted, false},
		{context.Canceled, false},
		{context.DeadlineExceeded, false},
		{fmt.Errorf("op: %w", context.Canceled), false},
		{errors.New("mystery"), false},
	}
	for _, c := range cases {
		if got := retryable(c.err); got != c.want {
			t.Errorf("retryable(%v) = %v, want %v", c.err, got, c.want)
		}
	}
	if !Ignorable(context.Canceled) || !Ignorable(fmt.Errorf("x: %w", context.DeadlineExceeded)) {
		t.Fatal("context errors must be ignorable")
	}
	if Ignorable(cloud.ErrUnavailable) {
		t.Fatal("provider errors are not ignorable")
	}
}

func TestBackoffDelayBounds(t *testing.T) {
	b := Retry{BackoffBase: 10 * time.Millisecond}
	caps := []time.Duration{10, 20, 40, 80, 160, 160, 160} // ms: 2x growth, 16x cap
	for attempt, capMs := range caps {
		cap := capMs * time.Millisecond
		for i := 0; i < 50; i++ {
			d := b.delay(attempt)
			if d < 0 || d > cap {
				t.Fatalf("attempt %d: delay %v outside [0, %v]", attempt, d, cap)
			}
		}
	}
}

func TestBackoffDelayJitters(t *testing.T) {
	b := Retry{BackoffBase: time.Second}
	seen := map[time.Duration]bool{}
	for i := 0; i < 32; i++ {
		seen[b.delay(3)] = true
	}
	if len(seen) < 2 {
		t.Fatal("full jitter produced a constant delay")
	}
}

func TestBackoffZeroBase(t *testing.T) {
	var b Retry
	for attempt := 0; attempt < 4; attempt++ {
		if d := b.delay(attempt); d != 0 {
			t.Fatalf("zero backoff slept %v", d)
		}
	}
}

func TestBackoffSleepHonoursContext(t *testing.T) {
	b := Retry{BackoffBase: time.Hour}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := b.sleep(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("Sleep on cancelled ctx = %v, want Canceled", err)
	}
}

func TestRetryPolicyZeroValueSingleAttempt(t *testing.T) {
	var p Retry
	if p.Enabled() {
		t.Fatal("zero policy must disable retries")
	}
	calls := 0
	err := p.Do(context.Background(), func(context.Context) error {
		calls++
		return cloud.ErrUnavailable
	}, nil)
	if calls != 1 || !errors.Is(err, cloud.ErrUnavailable) {
		t.Fatalf("calls=%d err=%v, want one attempt returning the error", calls, err)
	}
}

func TestRetryPolicyRetriesTransient(t *testing.T) {
	p := Retry{MaxAttempts: 4}
	calls := 0
	var seen []error
	err := p.Do(context.Background(), func(context.Context) error {
		calls++
		if calls < 3 {
			return cloud.ErrThrottled
		}
		return nil
	}, func(_ int, e error) { seen = append(seen, e) })
	if err != nil || calls != 3 {
		t.Fatalf("calls=%d err=%v, want success on attempt 3", calls, err)
	}
	if len(seen) != 3 || seen[2] != nil {
		t.Fatalf("observer saw %v, want three outcomes ending nil", seen)
	}
}

func TestRetryPolicyStopsOnPermanent(t *testing.T) {
	p := Retry{MaxAttempts: 5}
	calls := 0
	err := p.Do(context.Background(), func(context.Context) error {
		calls++
		return cloud.ErrNotFound
	}, nil)
	if calls != 1 || !errors.Is(err, cloud.ErrNotFound) {
		t.Fatalf("calls=%d err=%v, want no retry of a permanent error", calls, err)
	}
}

func TestRetryPolicyExhaustsBudget(t *testing.T) {
	p := Retry{MaxAttempts: 3}
	calls := 0
	err := p.Do(context.Background(), func(context.Context) error {
		calls++
		return cloud.ErrUnavailable
	}, nil)
	if calls != 3 || !errors.Is(err, cloud.ErrUnavailable) {
		t.Fatalf("calls=%d err=%v, want the budget spent and the last error returned", calls, err)
	}
}

func TestRetryPolicyStopsWhenContextEnds(t *testing.T) {
	p := Retry{MaxAttempts: 10, BackoffBase: time.Millisecond}
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := p.Do(ctx, func(context.Context) error {
		calls++
		cancel()
		return cloud.ErrUnavailable
	}, nil)
	if calls != 1 {
		t.Fatalf("retried %d times past a dead context", calls)
	}
	if !errors.Is(err, cloud.ErrUnavailable) {
		t.Fatalf("err = %v, want the RPC error, not the context's", err)
	}
}

// state returns cloud i's breaker state for class, advanced to the
// scoreboard's clock.
func (s *Scoreboard) state(i int, class OpClass) BreakerState {
	s.mu.Lock()
	defer s.mu.Unlock()
	br := &s.clouds[i].breakers[class]
	s.advanceLocked(i, class, br, s.now())
	return br.state
}

// fail records one transient failure of op against cloud i.
func fail(s *Scoreboard, i int, op Op) { s.Record(i, op, 0, cloud.ErrUnavailable) }

var get, put = GetOp(0), PutOp(0)

func TestBoardOpensAfterThreshold(t *testing.T) {
	b := NewScoreboard(2, BreakerPolicy{FailureThreshold: 3, Cooldown: time.Minute}, nil)
	now := time.Unix(0, 0)
	b.now = func() time.Time { return now }

	for i := 0; i < 2; i++ {
		fail(b, 0, get)
	}
	if b.state(0, OpGet) != BreakerClosed {
		t.Fatal("opened below threshold")
	}
	fail(b, 0, get)
	if b.state(0, OpGet) != BreakerOpen {
		t.Fatal("did not open at threshold")
	}
	if !b.Suspected(0, get) {
		t.Fatal("open breaker must be suspected")
	}
	if b.Suspected(0, put) || b.Suspected(1, get) {
		t.Fatal("failure leaked into another (cloud, class)")
	}
	if b.Admit(0, get) {
		t.Fatal("open breaker admitted a request before cooldown")
	}
}

func TestBoardSuccessResetsFailureCount(t *testing.T) {
	b := NewScoreboard(1, BreakerPolicy{FailureThreshold: 3}, nil)
	fail(b, 0, get)
	fail(b, 0, get)
	b.Record(0, get, time.Millisecond, nil)
	fail(b, 0, get)
	fail(b, 0, get)
	if b.state(0, OpGet) != BreakerClosed {
		t.Fatal("success did not reset the failure streak")
	}
}

func TestBoardPermanentErrorsAreHealthy(t *testing.T) {
	b := NewScoreboard(1, BreakerPolicy{FailureThreshold: 2}, nil)
	for i := 0; i < 10; i++ {
		b.Record(0, get, time.Millisecond, cloud.ErrNotFound)
	}
	if b.state(0, OpGet) != BreakerClosed {
		t.Fatal("not-found responses opened the breaker")
	}
}

func TestBoardIgnoresContextErrors(t *testing.T) {
	b := NewScoreboard(1, BreakerPolicy{FailureThreshold: 2}, nil)
	for i := 0; i < 10; i++ {
		b.Record(0, get, time.Millisecond, context.Canceled)
		b.Record(0, get, time.Millisecond, fmt.Errorf("get: %w", context.DeadlineExceeded))
	}
	if b.state(0, OpGet) != BreakerClosed {
		t.Fatal("quorum cancellations opened the breaker")
	}
}

func TestBoardHalfOpenProbeCycle(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewScoreboard(1, BreakerPolicy{FailureThreshold: 1, Cooldown: time.Second}, nil)
	b.now = func() time.Time { return now }

	fail(b, 0, get)
	if b.state(0, OpGet) != BreakerOpen {
		t.Fatal("did not open")
	}

	now = now.Add(2 * time.Second)
	if b.Suspected(0, get) {
		t.Fatal("still suspected after cooldown")
	}
	if !b.Admit(0, get) {
		t.Fatal("half-open breaker refused the probe")
	}
	if b.Admit(0, get) {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}

	// Probe fails: back to open with a fresh cooldown.
	fail(b, 0, get)
	if b.state(0, OpGet) != BreakerOpen || b.Admit(0, get) {
		t.Fatal("failed probe did not reopen the breaker")
	}

	// Next cooldown, successful probe: closed for good.
	now = now.Add(2 * time.Second)
	if !b.Admit(0, get) {
		t.Fatal("second probe refused")
	}
	b.Record(0, get, time.Millisecond, nil)
	if b.state(0, OpGet) != BreakerClosed {
		t.Fatal("successful probe did not close the breaker")
	}
	if !b.Admit(0, get) || !b.Admit(0, get) {
		t.Fatal("closed breaker must admit freely")
	}
}

// TestBoardDemoteStable: the suspected clouds move to the back of the
// ranking, and both the healthy prefix and the suspected suffix keep their
// latency order.
func TestBoardDemoteStable(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewScoreboard(4, BreakerPolicy{FailureThreshold: 1, Cooldown: time.Hour}, nil)
	b.now = func() time.Time { return now }
	for i, rtt := range []time.Duration{4, 3, 2, 1} { // latency order 3, 2, 1, 0
		b.Record(i, get, rtt*time.Millisecond, nil)
	}
	fail(b, 1, get)
	fail(b, 3, get)

	got := b.Rank(get)
	want := []int{2, 0, 3, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Rank = %v, want %v", got, want)
		}
	}

	// The other class is untouched.
	got = b.Rank(put)
	for i, w := range []int{3, 2, 1, 0} {
		if got[i] != w {
			t.Fatalf("PUT Rank = %v, want unchanged", got)
		}
	}
}

// TestRankDemotesSuspectedUntilProbeSucceeds: the cloud that is fastest by
// EWMA but has an open breaker ranks last — through a failed probe too —
// and it returns to its EWMA position once a probe succeeds.
func TestRankDemotesSuspectedUntilProbeSucceeds(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewScoreboard(4, BreakerPolicy{FailureThreshold: 1, Cooldown: time.Second}, nil)
	b.now = func() time.Time { return now }
	for i, rtt := range []time.Duration{1, 5, 10, 20} {
		b.Record(i, get, rtt*time.Millisecond, nil)
	}
	wantRank := func(want ...int) {
		t.Helper()
		got := b.Rank(get)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Rank = %v, want %v", got, want)
			}
		}
	}
	wantRank(0, 1, 2, 3)

	fail(b, 0, get)
	wantRank(1, 2, 3, 0)

	now = now.Add(2 * time.Second) // cooldown: the probe fails
	if !b.Admit(0, get) {
		t.Fatal("probe refused after cooldown")
	}
	fail(b, 0, get)
	wantRank(1, 2, 3, 0)

	now = now.Add(2 * time.Second) // cooldown: the probe succeeds
	if !b.Admit(0, get) {
		t.Fatal("second probe refused")
	}
	b.Record(0, get, time.Millisecond, nil)
	wantRank(0, 1, 2, 3)
}

// TestBoardObserverSeesTransitions: the telemetry hook fires once per real
// state change — open on threshold, half-open on cooldown, closed on the
// successful probe — and never for a no-op Record.
func TestBoardObserverSeesTransitions(t *testing.T) {
	now := time.Unix(100, 0)
	type tr struct {
		cloud    int
		class    OpClass
		from, to BreakerState
	}
	var seen []tr
	b := NewScoreboard(2, BreakerPolicy{FailureThreshold: 2, Cooldown: time.Second}, func(cloud int, class OpClass, from, to BreakerState) {
		seen = append(seen, tr{cloud, class, from, to})
	})
	b.now = func() time.Time { return now }

	down := fmt.Errorf("down: %w", cloud.ErrUnavailable)
	b.Record(1, get, time.Millisecond, nil) // closed -> closed: no event
	b.Record(1, get, 0, down)               // below threshold: no event
	b.Record(1, get, 0, down)               // threshold: closed -> open
	now = now.Add(2 * time.Second)
	if !b.Admit(1, get) { // cooldown elapsed: open -> half-open, probe admitted
		t.Fatal("probe not admitted after cooldown")
	}
	b.Record(1, get, time.Millisecond, nil) // probe succeeded: half-open -> closed

	want := []tr{
		{1, OpGet, BreakerClosed, BreakerOpen},
		{1, OpGet, BreakerOpen, BreakerHalfOpen},
		{1, OpGet, BreakerHalfOpen, BreakerClosed},
	}
	if len(seen) != len(want) {
		t.Fatalf("observer saw %d transitions %v, want %d", len(seen), seen, len(want))
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("transition %d = %+v, want %+v", i, seen[i], want[i])
		}
	}
}
