package scfs

// Call-scoped I/O policy. A mount-wide Options struct cannot say "this read
// is a latency-critical point lookup" or "this read is a bulk sequential
// scan" — the policy has to travel with the call. WithPolicy binds
// CallOptions to a context, and the IOPolicy they compose is carried by
// that context through every layer (facade → fs API → agent → quorum
// engine → per-cloud RPCs):
//
//	// Hedged point read: contact the fastest quorum only, the straggler
//	// cloud only if the 95th latency percentile elapses first.
//	data, err := scfs.ReadFile(scfs.WithPolicy(ctx, scfs.WithHedge(0.95)), mount, "/idx/key")
//
//	// Bulk scan: prefetch up to 4 chunks ahead of the consumer.
//	_, err = scfs.ReadFileTo(scfs.WithPolicy(ctx, scfs.WithReadahead(4)), mount, "/logs/big.bin", w)
//
// The same context reaches every API of the mount alike: the facade
// functions, the io/fs adapter (IOFS) and the methods of open handles.

import (
	"context"
	"time"

	"scfs/internal/iopolicy"
)

type (
	// IOPolicy is the per-operation I/O policy assembled from CallOptions.
	// Its zero value reproduces the default behaviour: immediate full
	// fan-out to every cloud, no readahead.
	IOPolicy = iopolicy.Policy
	// HedgePolicy configures hedged reads (see WithHedge) and hedged
	// writes (see WithWriteHedge).
	HedgePolicy = iopolicy.Hedge
	// ReadPreference pins the order in which an operation contacts the
	// clouds (see WithReadPreference).
	ReadPreference = iopolicy.Preference
	// RetryPolicy grants the operation's per-cloud RPCs a retry budget (see
	// WithRetry).
	RetryPolicy = iopolicy.Retry
	// BreakerMode selects how the operation treats clouds whose circuit
	// breaker is open (see WithBreaker).
	BreakerMode = iopolicy.BreakerMode
)

// Breaker modes for WithBreaker.
const (
	// BreakerDemote (the default) keeps contacting suspected clouds but
	// demotes them to the back of every dispatch ranking, where a hedged
	// fan-out usually decides the quorum before reaching them.
	BreakerDemote = iopolicy.BreakerDemote
	// BreakerFailFast skips suspected clouds without contacting them; the
	// skipped slot counts as that cloud's failure in the quorum math.
	BreakerFailFast = iopolicy.BreakerFailFast
)

// CallOption tunes the I/O policy of the operations run under a context;
// bind CallOptions to one with WithPolicy.
type CallOption func(*IOPolicy)

// WithHedge makes the operation's quorum reads hedged: each fan-out
// contacts only the preferred quorum of clouds immediately and defers the
// redundant requests until the given percentile (0 < p <= 1, e.g. 0.95) of
// the preferred clouds' tracked latency has elapsed — or a preferred cloud
// fails, whichever comes first. In the common case the extra RPCs are never
// issued, cutting per-request fees and egress while keeping the tail-latency
// protection: a stalling cloud is hedged around after the delay.
//
// With no latency observations yet the hedge fires immediately, degrading
// gracefully to the full fan-out. The tracked delay is not clamped.
//
// The preferred set is the tracked-fastest clouds, with those whose circuit
// breaker is open ranked last; a WithReadPreference order pins it instead.
func WithHedge(percentile float64) CallOption {
	return func(p *IOPolicy) { p.Hedge.Percentile = percentile }
}

// WithWriteHedgeDelayBounds clamps the tracked spare-release delay of
// WithWriteHedge to [min, max]; max of 0 leaves it uncapped. Raise min to
// keep spare clouds parked through upload jitter (a long floor costs
// nothing while the preferred quorum is healthy — the quorum verdict, not
// the timer, completes the write).
func WithWriteHedgeDelayBounds(min, max time.Duration) CallOption {
	return func(p *IOPolicy) {
		p.WriteHedge.MinDelay = min
		p.WriteHedge.MaxDelay = max
	}
}

// WithWriteHedge makes the operation's quorum writes hedged: each upload
// fan-out ships its shards to the preferred n-f quorum immediately — the
// tracked-fastest uploaders with suspected clouds last, or a
// WithReadPreference order — and releases the spare clouds only after the
// given percentile (0 < p <= 1) of the preferred clouds' tracked upload
// latency has elapsed, or a preferred upload fails, whichever comes first.
// On a stable deployment the spare uploads are never issued, cutting the
// write's ingress bytes and PUT fees to the n-f copies the paper's cost
// model charges for, at unchanged durability: the protocol only ever
// promises the quorum, and a version on the preferred n-f clouds survives
// f faults among them (n-2f = f+1 shards remain) and stays
// quorum-certified to readers.
//
// Raise MinDelay via WithWriteHedgeDelayBounds to keep spares parked
// through upload jitter; a cold scoreboard hedges almost immediately,
// degrading gracefully to the full fan-out.
func WithWriteHedge(percentile float64) CallOption {
	return func(p *IOPolicy) { p.WriteHedge.Percentile = percentile }
}

// WithReadahead gives sequential reads of the operation's files an n-chunk
// prefetch pipeline: while one chunk is being consumed, up to n upcoming
// chunks are fetched and decoded in the background, overlapping network and
// decode latency with consumption. The window ramps up only while the
// access pattern stays sequential and collapses on the first seek, so the
// option is safe to set on handles that may also read randomly. It takes
// effect at open time (Open, ReadFileTo, or a WithPolicy context passed to
// IOFS).
//
// Readahead is speculation — it fetches chunks nobody has asked for yet —
// and is for consumers that read a large file in pieces. A single read that
// spans several chunks (ReadFile, or a ReadAt with a large buffer) needs
// none: the chunks it covers are fetched together, up to 8 at a time, and
// only those.
func WithReadahead(chunks int) CallOption {
	return func(p *IOPolicy) { p.Readahead = chunks }
}

// WithReadPreference pins the order in which the operation's hedged fan-outs
// contact the clouds, given by PreferClouds (e.g. to keep egress at a
// contractual provider). It replaces the default ranking — tracked latency,
// fastest first, with clouds whose breaker is open last — and the breakers do
// not reorder a pinned order. Despite the historical name, the preference
// applies to reads hedged by WithHedge and to the preferred write quorum of
// WithWriteHedge alike (pinning an operation to clouds pins where its data
// lands). An unhedged fan-out contacts every cloud at once, so no order
// applies to it.
func WithReadPreference(pref ReadPreference) CallOption {
	return func(p *IOPolicy) { p.Preference = pref }
}

// PreferClouds pins an explicit cloud order by index (the order the stores
// were passed to WithClouds); unlisted clouds rank after the listed ones.
func PreferClouds(order ...int) ReadPreference { return ReadPreference{Order: order} }

// WithRetry grants every per-cloud RPC of the operation a retry budget of
// maxAttempts total attempts (first try included): transient provider
// failures — outages, throttling — are retried with full-jitter exponential
// backoff inside the budget, while permanent answers (not-found, access
// denied) and context cancellations return immediately. Clouds whose
// circuit breaker is open get no budget (one probe-like attempt only), so
// retries are spent where they can help. maxAttempts <= 1 disables retries,
// the default.
//
// backoff caps the first (jittered) delay between attempts; the delays grow
// exponentially up to 16x backoff. A backoff <= 0 starts at 50ms.
func WithRetry(maxAttempts int, backoff time.Duration) CallOption {
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	return func(p *IOPolicy) { p.Retry = RetryPolicy{MaxAttempts: maxAttempts, BackoffBase: backoff} }
}

// WithBreaker selects how the operation treats clouds whose circuit breaker
// is currently open (suspected of misbehaving): BreakerDemote (default)
// still contacts them but last, BreakerFailFast refuses to contact them at
// all (cheapest, but their quorum slot is forfeit). An inner
// WithPolicy(ctx, WithBreaker(BreakerDemote)) clears an outer
// BreakerFailFast.
func WithBreaker(mode BreakerMode) CallOption {
	return func(p *IOPolicy) { p.Breaker = mode }
}

// WithPolicy returns a context carrying the I/O policy assembled from the
// options. Every SCFS operation run under the returned context — the facade
// functions, reads through the io/fs adapter (IOFS) and through
// already-open handles — applies the policy. Nested calls layer: the
// options are applied over the policy ctx already carries, each setting
// only its own fields.
func WithPolicy(ctx context.Context, opts ...CallOption) context.Context {
	pol := iopolicy.FromContext(ctx)
	for _, opt := range opts {
		opt(&pol)
	}
	return iopolicy.With(ctx, pol)
}
