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
// prefer; and what per-call limits bound the extra work.
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

// Preference orders the clouds an operation's fan-outs dispatch to first —
// quorum reads and, when WriteHedge is enabled, the preferred write quorum
// alike. An explicit Order is the strongest placement signal: it takes
// precedence over the Placement objective, so a call that pins clouds
// (e.g. for an egress contract) also pins where its hedged writes land.
type Preference struct {
	// Fastest ranks clouds by their tracked latency, fastest first. This is
	// the default whenever hedging is enabled.
	Fastest bool
	// Order lists cloud indices to prefer, in order; clouds not listed are
	// ranked after the listed ones. Takes precedence over Fastest and over
	// the Placement objective.
	Order []int
}

// IsZero reports whether the preference is unset.
func (p Preference) IsZero() bool { return !p.Fastest && len(p.Order) == 0 }

// PlacementStrategy selects the objective a dispatch ranks clouds by.
type PlacementStrategy int

const (
	// PlaceDefault is the unset strategy: it ranks like PlaceLatency but,
	// being the zero value, is overridden by any mount-wide default when
	// policies merge. An explicit PlaceLatency survives the merge instead,
	// so a latency-critical call can opt out of a cost-first mount.
	PlaceDefault PlacementStrategy = iota
	// PlaceLatency ranks clouds by tracked latency, fastest first (the
	// same ranking a zero placement uses, but explicit: it overrides a
	// mount-wide cost objective when merged).
	PlaceLatency
	// PlaceCost ranks clouds by the estimated dollars the operation costs
	// at each of them (request fee + transfer + storage for uploads),
	// cheapest first.
	PlaceCost
	// PlaceBalanced blends the two normalized objectives with CostWeight.
	PlaceBalanced
)

// Placement is the per-operation placement objective: which clouds should
// serve this request, ranked by cost, latency, or a weighted blend. The
// ranking decides the preferred quorum of hedged reads and writes — under a
// cost objective a hedged write sends its shards to the cheapest n-f clouds
// and contacts the expensive spares only if the preferred set stalls or
// fails. The zero value keeps the latency-first default. The dollar side of
// the objective is evaluated by internal/placement, which owns the price
// tables; this spec only travels with the policy.
type Placement struct {
	// Strategy selects the objective.
	Strategy PlacementStrategy
	// CostWeight in [0, 1] sets the cost share under PlaceBalanced
	// (0 = pure latency, 1 = pure cost). Ignored by the other strategies.
	CostWeight float64
}

// IsZero reports whether the placement objective is unset.
func (p Placement) IsZero() bool { return p == Placement{} }

// Retry is the per-RPC retry budget an operation grants each cloud: how
// many attempts one logical RPC may spend on transient failures (outage,
// throttle) and how the jittered exponential backoff between them grows.
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
	// below the cap); 0 with MaxAttempts > 1 retries without delay.
	BackoffBase time.Duration
	// BackoffMax caps the exponential growth; 0 means 16x BackoffBase.
	BackoffMax time.Duration
}

// IsZero reports whether the retry budget is unset.
func (r Retry) IsZero() bool { return r == Retry{} }

// Enabled reports whether the budget grants any retries.
func (r Retry) Enabled() bool { return r.MaxAttempts > 1 }

// BreakerMode selects how an operation consumes the per-(cloud, op-class)
// circuit-breaker scoreboard.
type BreakerMode int

const (
	// BreakerDemote (the default) keeps suspected clouds reachable but
	// deprioritized: they move to the back of every dispatch ranking (last
	// hedge tier) and receive no retry budget, yet a fan-out that needs them
	// for its quorum still contacts them. Availability is never traded away.
	BreakerDemote BreakerMode = iota
	// BreakerBypass ignores breaker state entirely for this operation (it is
	// still recorded): the pre-resilience dispatch order.
	BreakerBypass
	// BreakerFailFast additionally skips suspected clouds outright instead
	// of queueing them behind the hedge gate — latency-critical reads would
	// rather fail a cloud silently than wait on it. Quorum math still counts
	// the skipped cloud as failed, so writes needing n-f acks should prefer
	// BreakerDemote.
	BreakerFailFast
)

// Limits bounds the extra work a policy may spend on one call.
type Limits struct {
	// MaxParallelChunks bounds the number of chunk fetches a readahead
	// pipeline keeps in flight concurrently (0 means the readahead window
	// itself is the bound), and narrows how many chunks one multi-chunk
	// read fetches together when set below that width's fixed bound.
	MaxParallelChunks int
	// MaxHedges bounds how many extra clouds launch at the first hedge
	// firing; clouds beyond the bound wait a further multiple of the hedge
	// delay (so availability is never sacrificed, only staggered). 0 means
	// all remaining clouds launch at the first firing.
	MaxHedges int
}

// Policy is the per-operation I/O policy. The zero value reproduces the
// pre-policy behaviour exactly: immediate full fan-out for reads and
// writes, no readahead, latency-neutral placement.
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
	// ahead of the consumer (0 = no prefetch). The actual window ramps up
	// only while the access pattern stays sequential.
	Readahead int
	// Preference orders the clouds dispatched to first.
	Preference Preference
	// Placement ranks the clouds of a fan-out by cost, latency or a blend;
	// an explicit Preference order takes precedence over it.
	Placement Placement
	// Retry grants each per-cloud RPC a budget of backoff retries against
	// transient provider failures.
	Retry Retry
	// Breaker selects how the operation consumes the circuit-breaker
	// scoreboard (demote suspected clouds, bypass it, or fail fast).
	Breaker BreakerMode
	// Limits bounds the extra work.
	Limits Limits
}

// IsZero reports whether the policy requests nothing beyond the defaults.
func (p Policy) IsZero() bool {
	return !p.Hedge.Enabled() && !p.WriteHedge.Enabled() && p.Readahead == 0 &&
		p.Preference.IsZero() && p.Placement.IsZero() && p.Retry.IsZero() &&
		p.Breaker == BreakerDemote && p.Limits == Limits{}
}

// Merge overlays override on p: fields set in override win, unset fields
// keep p's value. It implements the mount-default / per-call layering: the
// mount's default policy is p, the call's options are override. The hedge
// configuration merges field-wise, so a call may retune just the delay
// bounds of an inherited hedge (WithHedgeDelayBounds without WithHedge),
// or just the percentile without losing the mount's bounds.
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
	if !override.Placement.IsZero() {
		out.Placement = override.Placement
	}
	if !override.Retry.IsZero() {
		out.Retry = override.Retry
	}
	if override.Breaker != BreakerDemote {
		out.Breaker = override.Breaker
	}
	if override.Limits.MaxParallelChunks != 0 {
		out.Limits.MaxParallelChunks = override.Limits.MaxParallelChunks
	}
	if override.Limits.MaxHedges != 0 {
		out.Limits.MaxHedges = override.Limits.MaxHedges
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
