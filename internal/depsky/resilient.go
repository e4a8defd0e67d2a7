package depsky

// Per-cloud resilience. Every cloud round issues its per-cloud RPCs through
// timedCloudCall, which layers three behaviours over the bare RPC:
//
//   - Outcome recording: every attempt's verdict feeds the circuit-breaker
//     scoreboard (internal/resilience.Board), one breaker per (cloud,
//     direction). Context cancellations are ignored — quorum verdicts
//     cancel straggler RPCs constantly and say nothing about the cloud.
//   - Retry with backoff: when the operation's policy grants a retry
//     budget (Policy.Retry), transient failures (outage, throttle) are
//     retried with full-jitter exponential backoff inside that budget.
//     Suspected clouds get no budget: retrying a cloud the breaker already
//     condemned burns the budget where it is least likely to help, and the
//     quorum layer has n-1 other clouds to work with.
//   - Breaker consumption: under the default BreakerDemote mode a
//     suspected cloud is still contacted when the fan-out reaches it (the
//     quorum may need its vote — availability is never traded away), but
//     rankClouds has already pushed it to the back of the launch order, so
//     a hedged fan-out usually decides the quorum before the gate releases
//     it. BreakerFailFast skips suspected clouds without touching the
//     network (their slot counts as a failure).

import (
	"context"
	"errors"
	"time"

	"scfs/internal/iopolicy"
	"scfs/internal/resilience"
)

// errBreakerSkipped is the outcome of a cloud that a fail-fast operation
// refused to contact because its breaker is open. It is permanent (never
// retried) and counts as that cloud's failure in the quorum math.
var errBreakerSkipped = errors.New("depsky: cloud skipped by open circuit breaker")

// retryFor converts the policy's retry knobs into a resilience budget.
func retryFor(pol iopolicy.Policy) resilience.RetryPolicy {
	return resilience.RetryPolicy{
		MaxAttempts: pol.Retry.MaxAttempts,
		Backoff:     resilience.Backoff{Base: pol.Retry.BackoffBase},
	}
}

// breakerClass maps a tracker Op onto the board's class axis: breakers are
// kept per direction (GET/PUT), matching how providers actually fail —
// a throttled ingress path says little about egress health.
func breakerClass(op iopolicy.Op) int { return int(op.Class) }

// timedCloudCall issues one logical per-cloud RPC under the resilience layer:
// fn performs a single attempt against cloud i. The returned error is the
// last attempt's (or errBreakerSkipped when fail-fast refused the cloud).
// Every attempt is recorded on the scoreboard and, on success, its duration
// feeds the latency tracker, so hedge delays and fastest-first rankings keep
// learning through retries.
func (m *Manager) timedCloudCall(ctx context.Context, pol iopolicy.Policy, i int, op iopolicy.Op, fn func(context.Context) error) error {
	class := breakerClass(op)
	ins := m.ins.at(i, class)
	if pol.Breaker == iopolicy.BreakerFailFast && !m.board.Admit(i, class) {
		ins.breakerSkip.Inc()
		return errBreakerSkipped
	}
	retry := retryFor(pol)
	if retry.Enabled() && m.board.Suspected(i, class) {
		// No budget for a suspected cloud: one probe-like attempt only.
		retry = resilience.RetryPolicy{}
	}
	return retry.Do(ctx, func(ctx context.Context) error {
		start := time.Now()
		err := fn(ctx)
		m.observeRPC(ctx, i, op, start, err)
		return err
	}, func(attempt int, err error) {
		m.board.Record(i, class, err)
		if attempt > 0 {
			ins.retries.Inc()
		}
	})
}
