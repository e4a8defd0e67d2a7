// Package iopolicy defines the request-scoped I/O policy that travels with
// every SCFS operation, and the per-cloud scoreboard that makes the policy
// actionable.
//
// A Policy says how one operation should spend the cloud-of-clouds'
// redundancy: whether to fan a read out to every cloud immediately (the
// pre-policy behaviour, still the zero value) or to dispatch to a preferred
// subset first and hedge the stragglers only after a tracked latency
// percentile elapses (Basil-style hedged reads); how many chunks a
// sequential scan should prefetch ahead of the consumer; which clouds to
// prefer; how many times to retry a flaking cloud, and with what backoff;
// whether to skip the clouds the breakers suspect.
//
// Policies are carried by context.Context (With/FromContext) so they flow
// through every layer — facade, fs API, agent, quorum engine, storage —
// without widening each signature. The companion Scoreboard is fed every
// per-cloud RPC attempt once and keeps, per cloud and direction, the two
// things dispatch asks about: how fast the cloud answers (a latency EWMA
// and percentile window) and whether it is failing (a circuit breaker).
// Real providers misbehave in patterns — throttling bursts, minutes-long
// outages, gray slowness — and a dispatch that remembers the pattern stops
// paying for it: transient errors retry with backoff inside their budget,
// suspected clouds are demoted and probed instead of hammered, and a
// recovered provider re-enters rotation after one successful probe.
package iopolicy

import (
	"context"
	"errors"
	"math/rand"
	"time"

	"scfs/internal/cloud"
)

// Hedge configures hedged fan-outs: a read is first dispatched to the
// preferred quorum only, and the remaining clouds are contacted when either
// the hedge delay elapses or a preferred cloud fails. The zero value
// disables hedging (immediate full fan-out).
type Hedge struct {
	// Percentile in (0, 1] selects the observed per-cloud latency quantile
	// used as the hedge delay: the extra requests launch only after the
	// preferred clouds had that fraction of their recent requests complete.
	// 0 disables hedging.
	Percentile float64
	// MinDelay and MaxDelay clamp the tracked delay. MaxDelay of 0 means
	// uncapped. With no samples yet the delay falls back to MinDelay, so a
	// cold scoreboard hedges (almost) immediately rather than stalling.
	MinDelay time.Duration
	MaxDelay time.Duration
}

// Enabled reports whether the hedge configuration is active.
func (h Hedge) Enabled() bool { return h.Percentile > 0 }

// Preference pins the order in which an operation's fan-outs dispatch to the
// clouds — quorum reads and, when WriteHedge is enabled, the preferred write
// quorum alike — so a call that pins clouds (e.g. for an egress contract)
// also pins where its hedged writes land. Unpinned, dispatch ranks the
// clouds by tracked latency, fastest first.
type Preference struct {
	// Order lists cloud indices to prefer, in order; clouds not listed are
	// ranked after the listed ones.
	Order []int
}

// Retry is the per-RPC retry budget an operation grants each cloud: how
// many attempts one logical RPC may spend on transient failures (outage,
// throttle) and where the jittered exponential backoff between them starts.
// The zero value disables retries — one attempt per cloud, the
// pre-resilience behaviour — because the quorum layer already masks f
// failed clouds without retrying anyone; retries are for riding out
// transient weather when redundancy alone is not enough (e.g. more than f
// clouds flaking at once, or a single-cloud backend).
type Retry struct {
	// MaxAttempts is the total attempts per RPC (first try included); 0 and
	// 1 both mean a single attempt.
	MaxAttempts int
	// BackoffBase caps the first retry delay (full jitter draws uniformly
	// below the cap); 0 with MaxAttempts > 1 retries without delay. The
	// growth is capped at 16x BackoffBase.
	BackoffBase time.Duration
}

// Enabled reports whether the budget grants any retries.
func (r Retry) Enabled() bool { return r.MaxAttempts > 1 }

// retryable reports whether err describes a transient provider condition
// worth retrying: outages pass and throttles clear, but a missing object
// stays missing and a denied ACL stays denied no matter how often the same
// request is repeated. Context errors are never retryable — the caller's
// context governs the operation, and retrying a cancelled request would
// outlive the caller's interest in it.
func retryable(err error) bool {
	if err == nil || Ignorable(err) {
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

// Backoff between attempts grows by backoffFactor per retry up to
// backoffCap times BackoffBase, with full jitter (each delay is uniform in
// [0, d]). Full jitter is the variant that best de-correlates a thundering
// herd of retriers — exactly the failure mode of a quorum system where
// every client notices an outage at the same moment.
const (
	backoffFactor = 2
	backoffCap    = 16
)

// jitterNow draws the full-jitter delay for a cap d. Package-level so tests
// can pin it; the default is uniform in [0, d].
var jitterNow = func(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return time.Duration(rand.Int63n(int64(d) + 1))
}

// delay returns the jittered delay before retry attempt number `attempt`
// (0 = the delay after the first failure).
func (r Retry) delay(attempt int) time.Duration {
	if r.BackoffBase <= 0 {
		return 0
	}
	d, ceiling := r.BackoffBase, backoffCap*r.BackoffBase
	for i := 0; i < attempt && d < ceiling; i++ {
		d *= backoffFactor
	}
	return jitterNow(min(d, ceiling))
}

// sleep pauses for the attempt's jittered delay, returning ctx.Err() early
// when the context is cancelled: a retry loop never outlives its caller.
func (r Retry) sleep(ctx context.Context, attempt int) error {
	d := r.delay(attempt)
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

// Do runs fn under the retry budget: transient failures are retried with
// jittered backoff until the budget or the context runs out; permanent
// failures and successes return immediately. The per-attempt observer (nil
// ok) sees every outcome with its attempt number (0 = the first try).
func (r Retry) Do(ctx context.Context, fn func(context.Context) error, observe func(int, error)) error {
	attempts := max(r.MaxAttempts, 1)
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		err = fn(ctx)
		if observe != nil {
			observe(attempt, err)
		}
		if !retryable(err) || attempt == attempts-1 {
			return err
		}
		if r.sleep(ctx, attempt) != nil {
			return err // the caller's context ended: report the RPC error
		}
	}
	return err
}

// BreakerMode selects how an operation consumes the per-(cloud, op-class)
// circuit-breaker scoreboard. The zero value is BreakerDemote.
type BreakerMode int

const (
	// BreakerDemote (the default) keeps suspected clouds reachable but
	// deprioritized: they move to the back of every dispatch ranking and
	// receive no retry budget, yet a fan-out that needs them for its quorum
	// still contacts them. Availability is never traded away.
	BreakerDemote BreakerMode = iota
	// BreakerFailFast additionally skips suspected clouds outright instead
	// of queueing them behind the hedge gate — latency-critical reads would
	// rather fail a cloud silently than wait on it. Quorum math still counts
	// the skipped cloud as failed, so writes needing n-f acks should prefer
	// BreakerDemote.
	BreakerFailFast
)

// Policy is the per-operation I/O policy. The zero value reproduces the
// pre-policy behaviour exactly: immediate full fan-out for reads and
// writes, no readahead.
type Policy struct {
	// Hedge configures hedged (delayed-straggler) fan-outs for reads.
	Hedge Hedge
	// WriteHedge configures hedged quorum writes: uploads go to the
	// preferred n-f quorum immediately and the spare clouds launch only
	// after the tracked delay percentile elapses or a preferred upload
	// fails. On a stable deployment the spares are never contacted, cutting
	// the write's ingress bytes and PUT fees to the quorum the paper's cost
	// model charges for. The zero value keeps the immediate full fan-out.
	WriteHedge Hedge
	// Readahead is the maximum number of chunks a sequential scan prefetches
	// ahead of the consumer (0 = no prefetch), and how many prefetches may
	// be in flight at once. The actual window ramps up only while the
	// access pattern stays sequential.
	Readahead int
	// Preference pins the order of the clouds dispatched to first.
	Preference Preference
	// Retry grants each per-cloud RPC a budget of backoff retries against
	// transient provider failures.
	Retry Retry
	// Breaker selects how the operation consumes the circuit-breaker
	// scoreboard (demote suspected clouds, or fail fast).
	Breaker BreakerMode
}

// ctxKey is the context key carrying a Policy.
type ctxKey struct{}

// With returns a context carrying pol; every SCFS layer below the call
// reads it back with FromContext.
func With(ctx context.Context, pol Policy) context.Context {
	return context.WithValue(ctx, ctxKey{}, pol)
}

// FromContext returns the policy carried by ctx; a context without one
// gives the zero Policy.
func FromContext(ctx context.Context) Policy {
	pol, _ := ctx.Value(ctxKey{}).(Policy)
	return pol
}
