// Package iopolicy defines the request-scoped I/O policy that travels with
// every SCFS operation, and the latency bookkeeping that makes the policy
// actionable.
//
// A Policy says how one operation should spend the cloud-of-clouds'
// redundancy: whether to fan a read out to every cloud immediately (the
// pre-policy behaviour, still the zero value) or to dispatch to a preferred
// subset first and hedge the stragglers only after a tracked latency
// percentile elapses (Basil-style hedged reads); how many chunks a
// sequential scan should prefetch ahead of the consumer; which clouds to
// prefer; how many times to retry a flaking cloud.
//
// Policies are carried by context.Context (With/FromContext) so they flow
// through every layer — facade, fs API, agent, quorum engine, storage —
// without widening each signature. The companion Tracker is fed a latency
// sample by every per-cloud RPC and answers the two questions hedged
// dispatch asks: which clouds are currently fastest, and how long is the
// p-th latency percentile of a preferred set.
package iopolicy

import (
	"context"
	"time"
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
	// cold tracker hedges (almost) immediately rather than stalling.
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

// IsZero reports whether the preference is unset.
func (p Preference) IsZero() bool { return len(p.Order) == 0 }

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

// IsZero reports whether the retry budget is unset.
func (r Retry) IsZero() bool { return r == Retry{} }

// Enabled reports whether the budget grants any retries.
func (r Retry) Enabled() bool { return r.MaxAttempts > 1 }

// BreakerMode selects how an operation consumes the per-(cloud, op-class)
// circuit-breaker scoreboard. The zero value is unset and behaves as
// BreakerDemote; being distinct from both modes, it lets an explicit
// BreakerDemote override a mount-wide BreakerFailFast when policies merge.
type BreakerMode int

const (
	// BreakerDemote (the default) keeps suspected clouds reachable but
	// deprioritized: they move to the back of every dispatch ranking and
	// receive no retry budget, yet a fan-out that needs them for its quorum
	// still contacts them. Availability is never traded away.
	BreakerDemote BreakerMode = iota + 1
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

// IsZero reports whether the policy requests nothing beyond the defaults.
func (p Policy) IsZero() bool {
	return !p.Hedge.Enabled() && !p.WriteHedge.Enabled() && p.Readahead == 0 &&
		p.Preference.IsZero() && p.Retry.IsZero() &&
		p.Breaker == 0
}

// Merge overlays override on p: fields set in override win, unset fields
// keep p's value. It implements the mount-default / per-call layering: the
// mount's default policy is p, the call's options are override. The hedge
// configurations merge field-wise, so a call may retune just the delay
// bounds of an inherited hedge, or just the percentile without losing the
// mount's bounds.
func (p Policy) Merge(override Policy) Policy {
	out := p
	if override.Hedge.Percentile != 0 {
		out.Hedge.Percentile = override.Hedge.Percentile
	}
	if override.Hedge.MinDelay != 0 {
		out.Hedge.MinDelay = override.Hedge.MinDelay
	}
	if override.Hedge.MaxDelay != 0 {
		out.Hedge.MaxDelay = override.Hedge.MaxDelay
	}
	if override.WriteHedge.Percentile != 0 {
		out.WriteHedge.Percentile = override.WriteHedge.Percentile
	}
	if override.WriteHedge.MinDelay != 0 {
		out.WriteHedge.MinDelay = override.WriteHedge.MinDelay
	}
	if override.WriteHedge.MaxDelay != 0 {
		out.WriteHedge.MaxDelay = override.WriteHedge.MaxDelay
	}
	if override.Readahead != 0 {
		out.Readahead = override.Readahead
	}
	if !override.Preference.IsZero() {
		out.Preference = override.Preference
	}
	if !override.Retry.IsZero() {
		out.Retry = override.Retry
	}
	if override.Breaker != 0 {
		out.Breaker = override.Breaker
	}
	return out
}

// ctxKey is the context key carrying a Policy.
type ctxKey struct{}

// With returns a context carrying pol; every SCFS layer below the call
// reads it back with FromContext.
func With(ctx context.Context, pol Policy) context.Context {
	return context.WithValue(ctx, ctxKey{}, pol)
}

// FromContext returns the policy carried by ctx, if any.
func FromContext(ctx context.Context) (Policy, bool) {
	pol, ok := ctx.Value(ctxKey{}).(Policy)
	return pol, ok
}
