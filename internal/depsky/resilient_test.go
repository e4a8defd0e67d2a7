package depsky

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"scfs/internal/cloudsim"
	"scfs/internal/iopolicy"
	"scfs/internal/resilience"
)

// retryPol grants every RPC a small no-delay retry budget.
func retryPol(attempts int) iopolicy.Policy {
	return iopolicy.Policy{Retry: iopolicy.Retry{MaxAttempts: attempts}}
}

// TestRetryMasksFlakesBeyondQuorum pins the reason the retry layer exists:
// with f=1 the quorum math tolerates one failed cloud per fan-out, so two
// clouds flaking at the same moment fail a write outright — unless each
// RPC retries through the flake.
func TestRetryMasksFlakesBeyondQuorum(t *testing.T) {
	m, providers, _ := hedgeManager(t, make([]time.Duration, 4), Options{})
	data := bytes.Repeat([]byte{0x21}, 8<<10)

	// Two providers fail the first Put each and then heal: more simultaneous
	// faults than f, but each transient.
	providers[0].SetFaults(cloudsim.FaultSpec{Mode: cloudsim.FaultThrottle, Ops: cloudsim.MaskPut, FirstN: 1})
	providers[1].SetFaults(cloudsim.FaultSpec{Mode: cloudsim.FaultUnavailable, Ops: cloudsim.MaskPut, FirstN: 1})
	if _, err := m.Write(bg, "no-retry", data); err == nil {
		t.Fatal("without retries a write facing 2 transient faults must fail (sanity check)")
	}

	providers[0].SetFaults(cloudsim.FaultSpec{Mode: cloudsim.FaultThrottle, Ops: cloudsim.MaskPut, FirstN: 1})
	providers[1].SetFaults(cloudsim.FaultSpec{Mode: cloudsim.FaultUnavailable, Ops: cloudsim.MaskPut, FirstN: 1})
	ctx := hedgeCtx(retryPol(3))
	if _, err := m.Write(ctx, "with-retry", data); err != nil {
		t.Fatalf("retried write failed: %v", err)
	}
	got, _, err := m.Read(ctx, "with-retry")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back: %v", err)
	}
}

// TestRetryBudgetBoundsIssuedRPCs proves retries cannot run away: a cloud
// failing everything sees at most MaxAttempts requests per logical RPC.
func TestRetryBudgetBoundsIssuedRPCs(t *testing.T) {
	m, providers, _ := hedgeManager(t, make([]time.Duration, 4), Options{
		// Large threshold so the breaker never opens and every attempt is
		// genuinely issued (an open breaker would cut the budget to 1).
		Breakers: resilience.BreakerPolicy{FailureThreshold: 1000},
	})
	data := bytes.Repeat([]byte{0x42}, 8<<10)
	baseline := runtime.NumGoroutine()
	if _, err := m.Write(bg, "u", data); err != nil {
		t.Fatal(err)
	}
	// A straggler of the write (cancelled by its quorum verdict, not yet
	// scheduled) must not land in the count below.
	waitGoroutines(baseline, time.Second)

	providers[0].SetFault(cloudsim.FaultThrottle)
	before := providers[0].TotalRequests()
	const attempts = 3
	ctx := hedgeCtx(retryPol(attempts))
	if _, _, err := m.Read(ctx, "u"); err != nil {
		t.Fatalf("read with one throttled cloud: %v", err)
	}
	// A register read of one chunk issues at most 2 logical RPCs against
	// each cloud (the head, and the descriptor object holding the block),
	// each retried at most `attempts` times.
	if got := providers[0].TotalRequests() - before; got > 2*attempts {
		t.Fatalf("throttled cloud saw %d requests, budget allows at most %d", got, 2*attempts)
	}
}

// TestRetryNeverRetriesPermanentErrors: a missing object answers instantly
// however large the budget — not-found is the provider's healthy answer.
func TestRetryNeverRetriesPermanentErrors(t *testing.T) {
	m, providers, _ := hedgeManager(t, make([]time.Duration, 4), Options{})
	before := providers[0].TotalRequests()
	ctx := hedgeCtx(retryPol(5))
	if _, _, err := m.Read(ctx, "ghost-unit"); err == nil {
		t.Fatal("reading an absent unit should fail")
	}
	if got := providers[0].TotalRequests() - before; got > 1 {
		t.Fatalf("not-found was retried: %d requests for one head fetch", got)
	}
}

// openBreaker drives cloud i's GET breaker open by recording transient
// failures straight onto the scoreboard.
func openBreaker(m *Manager, i int, class iopolicy.OpClass, n int) {
	for k := 0; k < n; k++ {
		m.board.Record(i, int(class), cloudsimUnavailable)
	}
}

var cloudsimUnavailable = func() error {
	p := cloudsim.NewProvider(cloudsim.Options{Name: "err-factory"})
	p.SetFault(cloudsim.FaultUnavailable)
	c := p.MustClient(p.CreateAccount("x"))
	_, err := c.Get(bg, "missing")
	return err
}()

// TestBreakerOpensAndDemotes: a provider that keeps failing trips its
// breaker, and subsequent fan-outs demote it out of the preferred set —
// while reads and writes keep succeeding (availability is never traded).
func TestBreakerOpensAndDemotes(t *testing.T) {
	// Cloud 0 is by far the fastest, so the tracker ranks it first; only the
	// breaker demotion can move it to the back.
	rtts := []time.Duration{time.Millisecond, 20 * time.Millisecond, 20 * time.Millisecond, 20 * time.Millisecond}
	m, providers, _ := hedgeManager(t, rtts, Options{
		Breakers: resilience.BreakerPolicy{FailureThreshold: 2, Cooldown: time.Hour},
	})
	warmTracker(m, rtts)
	data := bytes.Repeat([]byte{0x77}, 8<<10)
	if _, err := m.Write(bg, "u", data); err != nil {
		t.Fatal(err)
	}

	providers[0].SetFault(cloudsim.FaultUnavailable)
	for k := 0; k < 3; k++ {
		if _, _, err := m.Read(bg, "u"); err != nil {
			t.Fatalf("read %d with one downed cloud: %v", k, err)
		}
	}
	if !m.board.Suspected(0, int(iopolicy.OpGet)) {
		t.Fatal("repeated failures did not open the GET breaker")
	}
	// The dispatch ranking now puts cloud 0 last regardless of latency.
	order := m.rankClouds(iopolicy.Policy{}, iopolicy.GetOp(0))
	if order[len(order)-1] != 0 {
		t.Fatalf("rankClouds = %v, want the suspected cloud demoted to last", order)
	}
	// An explicit pinned order is not second-guessed.
	pinned := m.rankClouds(iopolicy.Policy{Preference: iopolicy.Preference{Order: []int{0, 1, 2, 3}}}, iopolicy.GetOp(0))
	if pinned[0] != 0 {
		t.Fatalf("explicit order overridden: %v", pinned)
	}
}

// TestBreakerFailFastSkipsSuspectedCloud: under BreakerFailFast an open
// breaker means the cloud is not contacted at all — zero requests — and the
// quorum still assembles from the healthy rest.
func TestBreakerFailFastSkipsSuspectedCloud(t *testing.T) {
	m, providers, _ := hedgeManager(t, make([]time.Duration, 4), Options{
		Breakers: resilience.BreakerPolicy{FailureThreshold: 1, Cooldown: time.Hour},
	})
	data := bytes.Repeat([]byte{0x3C}, 8<<10)
	if _, err := m.Write(bg, "u", data); err != nil {
		t.Fatal(err)
	}
	openBreaker(m, 0, iopolicy.OpGet, 2)

	before := providers[0].TotalRequests()
	ctx := hedgeCtx(iopolicy.Policy{Breaker: iopolicy.BreakerFailFast})
	got, _, err := m.Read(ctx, "u")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("fail-fast read: %v", err)
	}
	if extra := providers[0].TotalRequests() - before; extra != 0 {
		t.Fatalf("suspected cloud was contacted %d times under fail-fast", extra)
	}
}

// TestBreakerRecoveryReadmitsCloud: after the cooldown a probe succeeds and
// the cloud serves traffic again.
func TestBreakerRecoveryReadmitsCloud(t *testing.T) {
	m, providers, _ := hedgeManager(t, make([]time.Duration, 4), Options{
		Breakers: resilience.BreakerPolicy{FailureThreshold: 1, Cooldown: 30 * time.Millisecond},
	})
	data := bytes.Repeat([]byte{0x9D}, 8<<10)
	if _, err := m.Write(bg, "u", data); err != nil {
		t.Fatal(err)
	}
	providers[0].SetFault(cloudsim.FaultUnavailable)
	if _, _, err := m.Read(bg, "u"); err != nil {
		t.Fatal(err)
	}
	if m.board.State(0, int(iopolicy.OpGet)) != resilience.BreakerOpen {
		t.Fatal("breaker did not open")
	}

	providers[0].SetFault(cloudsim.FaultNone)
	time.Sleep(40 * time.Millisecond) // cooldown elapses
	if _, _, err := m.Read(bg, "u"); err != nil {
		t.Fatal(err)
	}
	// The healed cloud answered its probe; the breaker must be closed again.
	if st := m.board.State(0, int(iopolicy.OpGet)); st != resilience.BreakerClosed {
		t.Fatalf("breaker state after successful probe = %v, want closed", st)
	}
}
