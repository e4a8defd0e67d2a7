package depsky

// Dispatch: the one cloud round, and the hedge gate it launches through.
//
// Every exchange with the clouds is a round — the same request put to all n
// of them, each answer handed to a collector that stops at its verdict. There
// are four (the descriptor read, the head read, the quorum write, the chunk
// fetch) and startRound owns what they share: the policy, the gate, the
// context whose cancellation aborts the losers, a goroutine per cloud, the
// retry and breaker handling around each RPC (resilient.go) and its trace
// span. A caller supplies its per-cloud request and keeps only its verdict:
// f+1 identical descriptors; n-f answers; n-f acks or f+1 failures; the
// first successful decode.
//
// Hedged dispatch. A full fan-out contacts all n clouds the moment it starts;
// first-quorum-wins cancellation then aborts the losers, which bounds the
// latency tail but still issues every RPC — the straggler's request is
// started, billed a request fee, and only then cancelled. The hedge gate below
// delays the redundant requests instead: a round dispatches to the preferred
// quorum only, and the remaining clouds are contacted when (a) the tracked
// latency percentile of the preferred set elapses without a verdict, or (b) a
// preferred cloud fails or returns an unusable response, whichever comes
// first. In the common case the preferred quorum answers in time and the
// extra RPCs are never issued at all. Reads (Policy.Hedge) and writes
// (Policy.WriteHedge) run the same gate; for writes the savings are ingress
// bytes and PUT fees at the spare clouds.
//
// The preferred set is the head of one ranking: the call's pinned preference
// order if it sets one, otherwise the order of the per-cloud scoreboard
// (iopolicy.Scoreboard): fastest first, with the clouds its breakers suspect
// moved to the back (Basil's rule: fastest quorum first, suspects last).
//
// The gate is policy-driven (iopolicy.Policy carried by the operation's
// context); with no hedge policy it is inert and dispatch stays the
// immediate full fan-out it always was.

import (
	"context"
	"errors"
	"time"

	"scfs/internal/cloud"
	"scfs/internal/iopolicy"
	"scfs/internal/seccrypto"
	"scfs/internal/telemetry"
)

// policyFor resolves the effective I/O policy of one operation: the
// manager's default overlaid with whatever policy the context carries.
func (m *Manager) policyFor(ctx context.Context) iopolicy.Policy {
	if pol, ok := iopolicy.FromContext(ctx); ok {
		return m.opts.Policy.Merge(pol)
	}
	return m.opts.Policy
}

// quorumCtx derives the context under which one round's per-cloud RPCs run.
// Cancelling it is how first-quorum-wins semantics abort the losers of the
// race; when DisableQuorumCancel is set the cancel is a no-op and stragglers
// run to completion as before.
func (m *Manager) quorumCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if m.opts.DisableQuorumCancel {
		return ctx, func() {}
	}
	return context.WithCancel(ctx)
}

// errHedgeSkipped is the outcome of a cloud whose request was never issued
// because the round was decided while its hedge gate was still holding it
// back (or before its goroutine got to run). It counts as that cloud's
// failure and only ever arrives after the verdict, so no caller returns it.
var errHedgeSkipped = errors.New("depsky: request gated out by the quorum verdict")

// outcome is what one cloud contributed to a round: the value made of its
// answer, or why there is none.
type outcome[T any] struct {
	cloud int
	val   T
	err   error
}

// round is one cloud round in flight, as its collector sees it.
type round[T any] struct {
	// outcomes delivers one outcome per cloud, in arrival order. It is
	// buffered for all n, so a collector that has its verdict may stop
	// receiving and no per-cloud goroutine is left blocked.
	outcomes <-chan outcome[T]
	// kick releases one cloud the hedge gate still holds; collectors call it
	// for every failed or unusable answer, so a faulty preferred cloud is
	// replaced without waiting out the hedge delay.
	kick func()
	// cancel ends the round: in-flight requests are aborted, gated ones are
	// never issued. The collector calls it at its verdict, and on every path
	// out at the latest.
	cancel context.CancelFunc
}

// startRound launches one cloud round: rpc, the round's request, is put to
// every cloud, and parse (nil: the answer carries nothing) turns cloud i's
// answer into the round's value on that cloud's goroutine, outside the
// timed and recorded RPC — an unusable answer is the caller's finding, not
// the cloud's failure to respond. kind names the round's trace spans, op
// picks the scoreboard series and breaker of one request, and need is how
// many clouds a hedged round contacts at once: the fewest whose answers can
// decide it.
//
// Under a hedge policy (Policy.Hedge for a GET round, Policy.WriteHedge for
// a PUT round) only the need preferred clouds — the head of rankClouds — are
// contacted immediately, the rest after the tracked delay percentile or a
// kick; in the common case the spare requests are never issued at all.
func startRound[T any](ctx context.Context, m *Manager, kind string, op iopolicy.Op, need int,
	rpc func(ctx context.Context, i int, c cloud.ObjectStore) ([]byte, error),
	parse func(i int, data []byte) (T, error)) round[T] {
	pol := m.policyFor(ctx)
	hedge := pol.Hedge
	if op.Class == iopolicy.OpPut {
		hedge = pol.WriteHedge
	}
	gate := m.newHedgeGate(pol, hedge, need, op)
	tr := telemetry.FromContext(ctx)
	opCtx, cancel := m.quorumCtx(ctx)
	outcomes := make(chan outcome[T], m.N())
	for i, c := range m.opts.Clouds {
		inflight := m.ins.inflight(i) // the goroutine may outlive the verdict
		inflight.Add(1)
		go func() {
			o := outcome[T]{cloud: i, err: errHedgeSkipped}
			if gate.enter(opCtx, i) {
				start := time.Now()
				var data []byte
				o.err = m.timedCloudCall(opCtx, pol, i, op, func(ctx context.Context) error {
					var err error
					data, err = rpc(ctx, i, c)
					return err
				})
				m.recordSpan(tr, kind, i, start, gate.hedged(i), o.err)
				if o.err == nil && parse != nil {
					o.val, o.err = parse(i, data)
				}
			} else {
				m.recordGated(tr, kind, i, gate.hedged(i))
			}
			outcomes <- o
			inflight.Add(-1)
		}()
	}
	return round[T]{outcomes: outcomes, kick: gate.kick, cancel: cancel}
}

// observeRPC files the outcome of one RPC attempt of the given class and
// payload size, which took d: once on the scoreboard (latency on success,
// breaker always), once in the metrics registry. Only successes reach the
// latency histogram: failures return fast and would make a broken cloud
// look attractive. The counters see every attempt, split by outcome —
// cancellations (quorum verdicts cutting down stragglers) are kept apart
// from provider errors. A traced attempt attaches its trace ID to the
// latency bucket it lands in, linking the histogram's tail to the
// flight-recorded trace that explains it.
func (m *Manager) observeRPC(ctx context.Context, i int, op iopolicy.Op, d time.Duration, err error) {
	m.score.Record(i, op, d, err)
	ins := m.ins.at(i, op.Class)
	switch {
	case err == nil:
		ins.ok.Inc()
		ins.observed.Inc()
		ins.lat.ObserveExemplar(d, telemetry.FromContext(ctx).ExemplarID())
	case iopolicy.Ignorable(err):
		ins.cancel.Inc()
	default:
		ins.err.Inc()
	}
}

// Scoreboard exposes the per-cloud latency and breaker scoreboard
// (benchmark warm-up, diagnostics).
func (m *Manager) Scoreboard() *iopolicy.Scoreboard { return m.score }

// rankClouds orders the cloud indices for dispatching op: the policy's
// pinned preference Order if it sets one, otherwise the scoreboard's
// fastest-first ranking with the clouds its breakers suspect demoted to the
// back. A provider the breakers condemned is then among the spares, where
// the quorum verdict usually arrives before its gate ever releases —
// graceful degradation without giving up its vote.
func (m *Manager) rankClouds(pol iopolicy.Policy, op iopolicy.Op) []int {
	n := m.N()
	if pref := pol.Preference; len(pref.Order) > 0 {
		order := make([]int, 0, n)
		used := make([]bool, n)
		for _, i := range pref.Order {
			if i >= 0 && i < n && !used[i] {
				used[i] = true
				order = append(order, i)
			}
		}
		for i := 0; i < n; i++ {
			if !used[i] {
				order = append(order, i)
			}
		}
		return order
	}
	return m.score.Rank(op)
}

// hedgeGate gates the non-preferred clouds of one fan-out. Each per-cloud
// goroutine calls enter before issuing its RPC: preferred clouds pass
// immediately, the rest block until the hedge delay elapses, a kick arrives
// (one kick releases one cloud), or the fan-out's context is cancelled by
// the quorum verdict. A disabled gate (no hedge policy) passes everyone
// immediately, reproducing the immediate full fan-out.
type hedgeGate struct {
	enabled bool
	// pos[i] is cloud i's position in the launch order.
	pos []int
	// need is how many clouds launch immediately (the preferred set).
	need  int
	delay time.Duration
	kicks chan struct{}

	// ins and class pick the hedge counters of a cloud in this fan-out.
	ins   *instruments
	class iopolicy.OpClass
}

// hedged reports whether cloud i sits behind the gate (a spare rather than a
// preferred cloud).
func (g *hedgeGate) hedged(i int) bool {
	return g.enabled && g.pos[i] >= g.need
}

// newHedgeGate builds the gate for a fan-out of op that needs `need` usable
// responses, gated by the hedge configuration h (Policy.Hedge for reads,
// Policy.WriteHedge for writes). With hedging disabled the gate is inert.
func (m *Manager) newHedgeGate(pol iopolicy.Policy, h iopolicy.Hedge, need int, op iopolicy.Op) *hedgeGate {
	n := m.N()
	if !h.Enabled() || need >= n {
		return &hedgeGate{}
	}
	order := m.rankClouds(pol, op)
	pos := make([]int, n)
	for p, i := range order {
		pos[i] = p
	}
	return &hedgeGate{
		enabled: true,
		pos:     pos,
		need:    need,
		delay:   m.score.HedgeDelay(op, h, order[:need]),
		kicks:   make(chan struct{}, n),
		ins:     m.ins,
		class:   op.Class,
	}
}

// enter blocks until cloud i may issue its RPC. It returns false when the
// fan-out was decided (ctx cancelled) before i's turn came — the caller
// then reports an empty result without touching the network.
//
// Every cloud beyond the preferred set waits the one hedge delay, a finite
// timer, so even a fan-out that never cancels (quorum cancellation disabled)
// and never kicks eventually launches everything — hedging bounds extra
// load, never availability.
func (g *hedgeGate) enter(ctx context.Context, i int) bool {
	if !g.enabled || g.pos[i] < g.need {
		return ctx.Err() == nil
	}
	t := time.NewTimer(g.delay)
	defer t.Stop()
	select {
	case <-ctx.Done():
		g.ins.at(i, g.class).hedgeSuppressed.Inc() // verdict beat the hedge: RPC never issued
		return false
	case <-t.C:
		g.ins.at(i, g.class).hedgeFired.Inc() // hedge delay elapsed without a verdict
		return true
	case <-g.kicks:
		g.ins.at(i, g.class).hedgeKicked.Inc() // released early by a failure upstream
		return true
	}
}

// kick releases one gated cloud immediately; the collector calls it for
// every failed or unusable response so a faulty preferred cloud is replaced
// without waiting out the hedge delay.
func (g *hedgeGate) kick() {
	if !g.enabled {
		return
	}
	select {
	case g.kicks <- struct{}{}:
	default:
	}
}

// readNeed is how many usable per-cloud responses a block/chunk read of a
// version encoded with protocol p needs before a decode can possibly
// succeed: one full replica under DepSky-A, f+1 shards (each frame also
// carries a key share) under DepSky-CA.
func (m *Manager) readNeed(p Protocol) int {
	if p == ProtocolA {
		return 1
	}
	return m.witnessSize()
}

// blockOp is the scoreboard Op of fetching one stored frame of a version: a
// download of roughly one erasure shard (CA) or one full replica (A). The
// size only has to land in the right latency bucket.
func (m *Manager) blockOp(protocol Protocol, plainLen int) iopolicy.Op {
	if protocol == ProtocolA {
		return iopolicy.GetOp(plainLen)
	}
	return iopolicy.GetOp(m.coder.ShardSize(plainLen + seccrypto.CiphertextOverhead))
}
