// Package resilience is the per-cloud fault-handling layer of SCFS: error
// classification (which failures are worth retrying), retry budgets with
// exponential backoff and full jitter, and a per-(cloud, operation-class)
// circuit breaker that remembers which providers are misbehaving.
//
// The quorum protocols in internal/depsky tolerate f arbitrary faults by
// construction, but before this layer they treated every failure the same
// way: an RPC failed once and the fan-out moved on, or — worse — a caller
// retried a permanently failing request blindly. Real providers misbehave
// in patterns (throttling bursts, minutes-long outages, gray slowness), and
// a dispatch layer that remembers the pattern can stop paying for it:
// transient errors retry with backoff inside their budget, suspected clouds
// are demoted out of preferred sets and probed instead of hammered, and a
// recovered provider re-enters rotation after one successful probe.
package resilience

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"

	"scfs/internal/cloud"
)

// Retryable reports whether err describes a transient provider condition
// worth retrying: outages pass and throttles clear, but a missing object
// stays missing and a denied ACL stays denied no matter how often the same
// request is repeated. Context errors are never retryable — the caller's
// context governs the operation, and retrying a cancelled request would
// outlive the caller's interest in it.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return errors.Is(err, cloud.ErrUnavailable) || errors.Is(err, cloud.ErrThrottled)
}

// Ignorable reports whether err says nothing about the provider's health:
// context errors are the caller's doing (quorum verdicts cancel straggler
// RPCs constantly — charging those to the cloud would open every breaker
// on a healthy deployment).
func Ignorable(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Backoff computes retry delays: exponential growth from Base by Factor,
// capped at Max, with full jitter (each delay is uniform in [0, d]).
// Full jitter is the variant that best de-correlates a thundering herd of
// retriers — exactly the failure mode of a quorum system where every client
// notices an outage at the same moment.
type Backoff struct {
	// Base is the cap of the first delay. Zero yields zero delays (tests).
	Base time.Duration
	// Max caps the exponential growth; 0 means 16x Base.
	Max time.Duration
	// Factor is the per-attempt growth; <= 1 means 2.
	Factor float64
}

// jitterNow draws the full-jitter delay for a cap d. Package-level so tests
// can pin it; the default is uniform in [0, d].
var jitterNow = func(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return time.Duration(rand.Int63n(int64(d) + 1))
}

// Delay returns the jittered delay before retry attempt number `attempt`
// (0 = the delay after the first failure).
func (b Backoff) Delay(attempt int) time.Duration {
	if b.Base <= 0 {
		return 0
	}
	factor := b.Factor
	if factor <= 1 {
		factor = 2
	}
	max := b.Max
	if max <= 0 {
		max = 16 * b.Base
	}
	d := float64(b.Base)
	for i := 0; i < attempt; i++ {
		d *= factor
		if d >= float64(max) {
			d = float64(max)
			break
		}
	}
	if time.Duration(d) > max {
		d = float64(max)
	}
	return jitterNow(time.Duration(d))
}

// Sleep pauses for the attempt's jittered delay, returning ctx.Err() early
// when the context is cancelled: a retry loop never outlives its caller.
func (b Backoff) Sleep(ctx context.Context, attempt int) error {
	d := b.Delay(attempt)
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// RetryPolicy is a retry budget: how many attempts one RPC may spend and
// how the delays between them grow. The zero value disables retries (one
// attempt, the pre-resilience behaviour).
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts (first try included).
	// 0 and 1 both mean a single attempt.
	MaxAttempts int
	// Backoff shapes the delays between attempts.
	Backoff Backoff
}

// Enabled reports whether the policy grants any retries.
func (p RetryPolicy) Enabled() bool { return p.MaxAttempts > 1 }

// Attempts returns the effective attempt budget (at least 1).
func (p RetryPolicy) Attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// Do runs fn under the retry policy: transient failures are retried with
// jittered backoff until the budget or the context runs out; permanent
// failures and successes return immediately. The per-attempt observer (nil
// ok) sees every outcome with its attempt number (0 = the first try) — the
// breaker layer uses it to record attempts individually rather than only
// the final verdict, and the telemetry layer to count retries exactly.
func (p RetryPolicy) Do(ctx context.Context, fn func(context.Context) error, observe func(int, error)) error {
	attempts := p.Attempts()
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		err = fn(ctx)
		if observe != nil {
			observe(attempt, err)
		}
		if err == nil || !Retryable(err) {
			return err
		}
		if attempt == attempts-1 {
			break
		}
		if serr := p.Backoff.Sleep(ctx, attempt); serr != nil {
			return err // the caller's context ended: report the RPC error
		}
	}
	return err
}

// --- circuit breaker ---

// BreakerState is the classic three-state machine of one breaker.
type BreakerState int

const (
	// BreakerClosed is normal operation: requests flow, failures count.
	BreakerClosed BreakerState = iota
	// BreakerOpen means the cloud is suspected: requests should be demoted
	// or skipped until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen admits probe requests after the cooldown; one success
	// closes the breaker, one transient failure reopens it.
	BreakerHalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// BreakerPolicy tunes the per-(cloud, op-class) breakers of a Board.
type BreakerPolicy struct {
	// Disable runs the deployment without breakers (every cloud is always
	// considered healthy).
	Disable bool
	// FailureThreshold is how many consecutive transient failures open the
	// breaker; <= 0 means 4.
	FailureThreshold int
	// Cooldown is how long an open breaker holds before admitting a probe;
	// <= 0 means 2s.
	Cooldown time.Duration
}

func (p BreakerPolicy) threshold() int {
	if p.FailureThreshold <= 0 {
		return 4
	}
	return p.FailureThreshold
}

func (p BreakerPolicy) cooldown() time.Duration {
	if p.Cooldown <= 0 {
		return 2 * time.Second
	}
	return p.Cooldown
}

// breaker is one (cloud, op-class) state machine. Guarded by the Board's
// mutex.
type breaker struct {
	state    BreakerState
	failures int       // consecutive transient failures while closed
	openedAt time.Time // when the breaker last opened
	probing  bool      // a half-open probe is in flight
}

// Board is the health scoreboard of one deployment: a circuit breaker per
// (cloud index, operation class). It is fed the outcome of every per-cloud
// RPC and answers the dispatch-time questions: is this cloud suspected for
// this class of work, and should a request be admitted to probe it. Safe
// for concurrent use.
//
// A Board never decides availability by itself — the quorum layer keeps
// contacting suspected clouds when it has no cheaper way to assemble a
// quorum. What the board changes is priority (suspected clouds are demoted
// to the back of the hedged launch order) and spend (retry budgets stop being burned on a
// cloud that is failing everything).
type Board struct {
	pol BreakerPolicy
	now func() time.Time

	mu       sync.Mutex
	breakers [][]breaker // [cloud][class]
	obs      func(cloud, class int, from, to BreakerState)
}

// classCount is how many operation classes the board distinguishes. It
// mirrors iopolicy's OpGet/OpPut split without importing the package (the
// dependency points the other way: dispatch imports both).
const classCount = 2

// NewBoard creates a board for n clouds under pol. A disabled policy
// returns a nil board; every method of a nil *Board is a safe no-op that
// reports all clouds healthy.
func NewBoard(n int, pol BreakerPolicy) *Board {
	if pol.Disable {
		return nil
	}
	b := &Board{pol: pol, now: time.Now, breakers: make([][]breaker, n)}
	for i := range b.breakers {
		b.breakers[i] = make([]breaker, classCount)
	}
	return b
}

// SetNow replaces the board's clock (tests).
func (b *Board) SetNow(now func() time.Time) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.now = now
	b.mu.Unlock()
}

// SetObserver installs a callback invoked on every breaker state
// transition (telemetry). The observer runs with the board's lock held —
// it must be cheap and must not call back into the Board. nil disables it.
func (b *Board) SetObserver(fn func(cloud, class int, from, to BreakerState)) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.obs = fn
	b.mu.Unlock()
}

// transitionLocked applies a state change and notifies the observer when
// the state actually changed.
func (b *Board) transitionLocked(i, class int, br *breaker, to BreakerState) {
	from := br.state
	br.state = to
	if from != to && b.obs != nil {
		b.obs(i, class, from, to)
	}
}

func clampClass(class int) int {
	if class < 0 || class >= classCount {
		return 0
	}
	return class
}

// Suspected reports whether cloud i is currently suspected for the class:
// its breaker is open and the cooldown has not yet elapsed. A half-open
// breaker (cooldown elapsed) is not suspected — the cloud is due a probe.
func (b *Board) Suspected(i int, class int) bool {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if i < 0 || i >= len(b.breakers) {
		return false
	}
	class = clampClass(class)
	br := &b.breakers[i][class]
	b.advanceLocked(i, class, br)
	return br.state == BreakerOpen
}

// Admit reports whether cloud i should be issued a request of the class
// right now. Closed breakers admit everything; an open breaker admits
// nothing until its cooldown elapses, then admits exactly one probe at a
// time (half-open). Callers that cannot afford to skip a cloud — a quorum
// that needs it — are free to ignore a false answer; Record keeps the
// state honest either way.
func (b *Board) Admit(i int, class int) bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if i < 0 || i >= len(b.breakers) {
		return true
	}
	class = clampClass(class)
	br := &b.breakers[i][class]
	b.advanceLocked(i, class, br)
	switch br.state {
	case BreakerOpen:
		return false
	case BreakerHalfOpen:
		if br.probing {
			return false
		}
		br.probing = true
		return true
	default:
		return true
	}
}

// advanceLocked moves an open breaker to half-open once its cooldown has
// elapsed.
func (b *Board) advanceLocked(i, class int, br *breaker) {
	if br.state == BreakerOpen && b.now().Sub(br.openedAt) >= b.pol.cooldown() {
		b.transitionLocked(i, class, br, BreakerHalfOpen)
		br.probing = false
	}
}

// Record feeds the outcome of one RPC attempt against cloud i into its
// breaker. Successes and permanent application errors (not-found, access
// denied — the provider answered, it is healthy) close the breaker and
// reset the failure count; transient failures count toward the threshold
// (and reopen a half-open breaker immediately). Context errors are ignored:
// they describe the caller, not the cloud.
func (b *Board) Record(i int, class int, err error) {
	if b == nil {
		return
	}
	if err != nil && Ignorable(err) {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if i < 0 || i >= len(b.breakers) {
		return
	}
	class = clampClass(class)
	br := &b.breakers[i][class]
	b.advanceLocked(i, class, br)
	if err == nil || !Retryable(err) {
		b.transitionLocked(i, class, br, BreakerClosed)
		br.failures = 0
		br.probing = false
		return
	}
	switch br.state {
	case BreakerHalfOpen:
		// The probe failed: back to open, restart the cooldown.
		b.transitionLocked(i, class, br, BreakerOpen)
		br.openedAt = b.now()
		br.probing = false
	case BreakerClosed:
		br.failures++
		if br.failures >= b.pol.threshold() {
			b.transitionLocked(i, class, br, BreakerOpen)
			br.openedAt = b.now()
			br.failures = 0
		}
	}
}

// State returns the current state of cloud i's breaker for the class
// (diagnostics, tests).
func (b *Board) State(i int, class int) BreakerState {
	if b == nil {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if i < 0 || i >= len(b.breakers) {
		return BreakerClosed
	}
	class = clampClass(class)
	br := &b.breakers[i][class]
	b.advanceLocked(i, class, br)
	return br.state
}

// Demote stably reorders a dispatch ranking so suspected clouds come last:
// the healthy prefix keeps its relative order (whatever objective ranked
// it — latency, dollars, an explicit pin), and the suspected suffix keeps
// its relative order too, so when a fan-out is forced to dig into the
// suspected clouds it still digs in the objective's order. The slice is
// reordered in place and returned.
func (b *Board) Demote(order []int, class int) []int {
	if b == nil {
		return order
	}
	healthy := order[:0:len(order)]
	var suspected []int
	for _, i := range order {
		if b.Suspected(i, class) {
			suspected = append(suspected, i)
		} else {
			healthy = append(healthy, i)
		}
	}
	return append(healthy, suspected...)
}
