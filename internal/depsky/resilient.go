package depsky

// Per-cloud resilience. Every cloud round issues its per-cloud RPCs through
// timedCloudCall, which layers three behaviours over the bare RPC:
//
//   - Outcome recording: every attempt is recorded once on the manager's
//     scoreboard (iopolicy.Scoreboard), which keeps a latency series and a
//     circuit breaker per (cloud, direction). Context cancellations are
//     ignored — quorum verdicts cancel straggler RPCs constantly and say
//     nothing about the cloud.
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
)

// errBreakerSkipped is the outcome of a cloud that a fail-fast operation
// refused to contact because its breaker is open. It is permanent (never
// retried) and counts as that cloud's failure in the quorum math.
var errBreakerSkipped = errors.New("depsky: cloud skipped by open circuit breaker")

// timedCloudCall issues one logical per-cloud RPC under the policy's retry
// budget and breaker mode: fn performs a single attempt against cloud i. The
// returned error is the last attempt's (or errBreakerSkipped when fail-fast
// refused the cloud). Every attempt is recorded on the scoreboard, so hedge
// delays, fastest-first rankings and breakers keep learning through
// retries.
func (m *Manager) timedCloudCall(ctx context.Context, pol iopolicy.Policy, i int, op iopolicy.Op, fn func(context.Context) error) error {
	ins := m.ins.at(i, op.Class)
	if pol.Breaker == iopolicy.BreakerFailFast && !m.score.Admit(i, op) {
		ins.breakerSkip.Inc()
		return errBreakerSkipped
	}
	retry := pol.Retry
	if retry.Enabled() && m.score.Suspected(i, op) {
		// No budget for a suspected cloud: one probe-like attempt only.
		retry = iopolicy.Retry{}
	}
	return retry.Do(ctx, func(ctx context.Context) error {
		start := time.Now()
		err := fn(ctx)
		m.observeRPC(ctx, i, op, time.Since(start), err)
		return err
	}, func(attempt int, _ error) {
		if attempt > 0 {
			ins.retries.Inc()
		}
	})
}
