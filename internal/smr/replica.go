package smr

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"scfs/internal/seccrypto"
)

// Replica is one member of a replicated state machine group. Protocol state
// is confined to the run goroutine; public methods communicate with it via
// the inbox or dedicated control channels.
type Replica struct {
	id  int
	cfg Config
	app Application
	net Transport

	inbox    chan message
	stopOnce sync.Once
	stopCh   chan struct{}
	doneCh   chan struct{}

	// Mutable protocol state, owned by run().
	view       int
	nextSeq    uint64
	lastExec   uint64
	highestSeq uint64
	instances  map[uint64]*instance
	pending    map[requestID]pendingReq
	lastReply  map[string]*clientRecord
	vcVotes    map[int]*viewChangeTally

	// lastCheckpointSeq is where executed instances were last pruned, every
	// CheckpointInterval commands. A peer that needs the state itself gets
	// a snapshot taken when it asks (onStateRequest).
	lastCheckpointSeq uint64
	// lastTickExec is lastExec as of the previous liveness tick; an unchanged
	// value with assigned sequence numbers ahead means execution is stalled
	// and needs repair (see checkStalled).
	lastTickExec uint64
	// lastStateReq throttles outgoing state requests: a full snapshot is
	// expensive to serve, so a stalled replica asks at most once a second.
	lastStateReq time.Time
	// lastLeaderSeen is when this replica last heard from the current view's
	// leader; leader suspicion is driven by leader silence, not by slow
	// progress (see checkLeaderLiveness). lastProgress is when lastExec last
	// advanced — the backstop for replacing a live but permanently stuck
	// leader.
	lastLeaderSeen time.Time
	lastProgress   time.Time
	// stateReplyCache and stateReplyClients memoize the marshaled snapshot
	// and reply-record copy served at stateReplySeq, so a burst of stalled
	// peers does not re-serialize the application (or re-copy every retained
	// reply) once per request.
	stateReplySeq     uint64
	stateReplyCache   []byte
	stateReplyClients map[string]clientReplySnapshot

	// Test hooks and observability, protected by statsMu.
	statsMu      sync.Mutex
	byzantine    bool
	executed     int64
	viewSnapshot int
	execSnapshot uint64
}

type pendingReq struct {
	req     request
	arrival time.Time
}

// pruneStride amortizes reply-record pruning: the results map is swept only
// after the client's resolution floor advances this far, so steady-state
// requests do not rescan it. Retained replies can be large (a coalesced
// batch reply holds every result in the batch), so the stride trades a
// slightly more frequent O(map) sweep for a much smaller retained set.
const pruneStride = 128

// clientRecord remembers the replies owed to one client. A pipelined client
// keeps many requests outstanding and they complete out of order -- a single
// delayed request can trail the client's newest completed ID by an unbounded
// distance while the other window slots recycle -- so no window heuristic
// over request IDs can say which replies are still needed. Instead the client
// piggybacks its lowest unresolved ID (request.LowID) on every request:
// everything below that floor is provably resolved and prunable, everything
// at or above it is retained for at-most-once dedup and reply retransmission.
type clientRecord struct {
	results  map[uint64][]byte
	floor    uint64 // lowest possibly-unresolved ID advertised by the client
	prunedTo uint64
}

// observeLow advances the resolution floor from a request's piggybacked
// cumulative ack and periodically prunes replies below it.
func (c *clientRecord) observeLow(low uint64) {
	if low <= c.floor {
		return
	}
	c.floor = low
	if c.floor-c.prunedTo >= pruneStride {
		for id := range c.results {
			if id < c.floor {
				delete(c.results, id)
			}
		}
		c.prunedTo = c.floor
	}
}

// recall returns the recorded reply for reqID, if the record still holds it.
func (c *clientRecord) recall(reqID uint64) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	res, ok := c.results[reqID]
	return res, ok
}

// stale reports whether reqID is resolved at the client: either its reply was
// recorded and since pruned, or the client abandoned it. Stale requests are
// dropped rather than executed -- re-executing would break at-most-once, and
// nobody is waiting for the reply.
func (c *clientRecord) stale(reqID uint64) bool {
	return c != nil && reqID < c.floor
}

// record stores a reply.
func (c *clientRecord) record(reqID uint64, result []byte) {
	if c.results == nil {
		c.results = make(map[uint64][]byte)
	}
	c.results[reqID] = result
}

type instance struct {
	req      request
	digest   string
	hasReq   bool
	prepares map[int]bool
	commits  map[int]bool
	sentPrep bool
	sentComm bool
	executed bool
	// prepared is sticky: it records that (seq, digest) once reached the
	// prepare quorum, and survives the vote-map reset at a view change. It is
	// what a VIEW-CHANGE message certifies — the request may have committed
	// somewhere, so its sequence-number assignment must be preserved.
	prepared bool
}

// viewChangeTally accumulates one prospective view's VIEW-CHANGE votes: who
// voted, the prepared certificates they carried, and the highest executed
// prefix any voter reported. The certificates and maxExec are what the new
// leader needs to fill the log without contradicting prior views (onNewView).
type viewChangeTally struct {
	votes   map[int]bool
	certs   map[uint64]preparedCert
	maxExec uint64
}

// NewReplica creates a replica and registers it with the network. Call Start
// to launch its event loop.
func NewReplica(id int, cfg Config, app Application, net *Network) (*Replica, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	found := false
	for _, rid := range cfg.ReplicaIDs {
		if rid == id {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("smr: replica %d not in configuration %v", id, cfg.ReplicaIDs)
	}
	r := &Replica{
		id:        id,
		cfg:       cfg,
		app:       app,
		net:       net,
		inbox:     make(chan message, 4096),
		stopCh:    make(chan struct{}),
		doneCh:    make(chan struct{}),
		nextSeq:   1,
		instances: make(map[uint64]*instance),
		pending:   make(map[requestID]pendingReq),
		lastReply: make(map[string]*clientRecord),
		vcVotes:   make(map[int]*viewChangeTally),
	}
	net.registerReplica(id, r.inbox)
	return r, nil
}

// ID returns the replica identifier.
func (r *Replica) ID() int { return r.id }

// Start launches the replica's event loop.
func (r *Replica) Start() { go r.run() }

// Stop terminates the event loop. It is idempotent, so a test that crashes
// a replica mid-scenario can still run the group's blanket teardown.
func (r *Replica) Stop() {
	r.stopOnce.Do(func() { close(r.stopCh) })
	<-r.doneCh
}

// SetByzantine makes the replica return corrupted results to clients, to
// ordered invocations and queries alike (test hook exercising the BFT
// reply-voting path).
func (r *Replica) SetByzantine(b bool) {
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	r.byzantine = b
}

func (r *Replica) isByzantine() bool {
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	return r.byzantine
}

// ExecutedCommands reports how many commands this replica has executed.
func (r *Replica) ExecutedCommands() int64 {
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	return r.executed
}

// CurrentView returns the replica's current view (test observability). It is
// safe to call concurrently but the value may be immediately stale.
func (r *Replica) CurrentView() int {
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	return r.viewSnapshot
}

// Progress returns the replica's current view and the highest executed
// sequence number — the observability needed to tell a stalled group (no
// replica advances) from a diverged one (replicas advance but clients
// starve). Safe to call concurrently; values may be immediately stale.
func (r *Replica) Progress() (view int, lastExec uint64) {
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	return r.viewSnapshot, r.execSnapshot
}

// setExecSnapshot mirrors lastExec for concurrent readers; called by run().
func (r *Replica) setExecSnapshot(seq uint64) {
	r.statsMu.Lock()
	r.execSnapshot = seq
	r.statsMu.Unlock()
}

// setViewSnapshot mirrors view for concurrent readers; called by run().
func (r *Replica) setViewSnapshot(v int) {
	r.statsMu.Lock()
	r.viewSnapshot = v
	r.statsMu.Unlock()
}

func (r *Replica) isLeader() bool { return r.cfg.LeaderFor(r.view) == r.id }

func (r *Replica) run() {
	defer close(r.doneCh)
	ticker := time.NewTicker(r.cfg.LeaderTimeout / 2)
	defer ticker.Stop()
	r.setViewSnapshot(r.view)
	r.lastLeaderSeen = time.Now()
	r.lastProgress = time.Now()
	for {
		select {
		case <-r.stopCh:
			return
		case m := <-r.inbox:
			r.handle(m)
		case <-ticker.C:
			r.checkLeaderLiveness()
			r.checkStalled()
		}
	}
}

// broadcast sends m to the peer replicas and processes the local copy
// synchronously. A replica's own proposals and votes must never be lost to
// transport drops — a prepare that fails to reach its own caster silently
// breaks quorum accounting in ways no retransmission repairs — so loopback
// does not traverse the (lossy) network. The inline self-handling recurses
// through handle (a pre-prepare triggers our prepare, which may complete a
// quorum and trigger our commit); the chain is bounded by the protocol's
// phase count.
func (r *Replica) broadcast(m message) {
	r.net.Broadcast(m)
	r.handle(m)
}

func (r *Replica) handle(m message) {
	switch m.Type {
	case msgRequest:
		r.onRequest(m)
	case msgPrePrepare:
		r.onPrePrepare(m)
	case msgPrepare:
		r.onPrepare(m)
	case msgCommit:
		r.onCommit(m)
	case msgViewChange:
		r.onViewChange(m)
	case msgNewView:
		r.onNewView(m)
	case msgStateRequest:
		r.onStateRequest(m)
	case msgStateReply:
		r.onStateReply(m)
	case msgQuery:
		r.onQuery(m)
	}
}

// onQuery answers a read-only command from the state as this replica has
// executed it so far: no sequence number, no log entry, no reply record. A
// replica behind the others answers from an older state; the client's n-f
// identical answers are what make the result current.
func (r *Replica) onQuery(m message) {
	r.sendReply(m.Req, r.app.Query(m.Req.Op))
}

// --- normal case operation ---

func (r *Replica) onRequest(m message) {
	req := m.Req
	// At-most-once execution: if this request was already executed, resend
	// the recorded reply; ancient duplicates that fell out of the reply
	// window are dropped.
	rec := r.lastReply[req.ClientID]
	if rec == nil {
		rec = &clientRecord{}
		r.lastReply[req.ClientID] = rec
	}
	rec.observeLow(req.LowID)
	if result, ok := rec.recall(req.ReqID); ok {
		r.sendReply(req, result)
		return
	}
	if rec.stale(req.ReqID) {
		return
	}
	if _, ok := r.pending[req.id()]; !ok {
		r.pending[req.id()] = pendingReq{req: req, arrival: time.Now()}
	}
	if r.isLeader() {
		r.propose(req)
	}
}

func (r *Replica) propose(req request) {
	// Never propose a request twice: a second arrival is a client
	// retransmission, and the existing instance is repaired by the stall tick
	// (checkStalled), not here — re-driving per retransmission amplifies
	// repair traffic quadratically under load (every duplicate triggers a
	// pre-prepare broadcast, and every receiver re-affirms with two more).
	id := req.id()
	for _, inst := range r.instances {
		if inst.hasReq && !inst.executed && inst.req.id() == id {
			return
		}
	}
	seq := r.nextSeq
	r.nextSeq++
	m := message{
		Type:   msgPrePrepare,
		From:   r.id,
		View:   r.view,
		Seq:    seq,
		Digest: seccrypto.Hash(req.Op),
		Req:    req,
	}
	r.broadcast(m)
}

func (r *Replica) getInstance(seq uint64) *instance {
	inst, ok := r.instances[seq]
	if !ok {
		inst = &instance{prepares: make(map[int]bool), commits: make(map[int]bool)}
		r.instances[seq] = inst
	}
	return inst
}

func (r *Replica) onPrePrepare(m message) {
	if m.View != r.view || m.From != r.cfg.LeaderFor(r.view) {
		return
	}
	r.lastLeaderSeen = time.Now()
	if seccrypto.Hash(m.Req.Op) != m.Digest {
		return // malformed or tampered proposal
	}
	if m.Seq <= r.lastExec {
		// Already executed here. The leader only re-sends a pre-prepare when
		// re-driving a stalled instance for some lagging replica, so re-affirm
		// our prepare and commit (recipients tolerate duplicates) — executed
		// instances are retained until the next checkpoint for exactly this.
		if inst, ok := r.instances[m.Seq]; ok && inst.executed && inst.digest == m.Digest {
			r.broadcast(message{Type: msgPrepare, From: r.id, View: r.view, Seq: m.Seq, Digest: m.Digest})
			r.broadcast(message{Type: msgCommit, From: r.id, View: r.view, Seq: m.Seq, Digest: m.Digest})
		}
		return
	}
	inst := r.getInstance(m.Seq)
	if inst.hasReq && inst.digest != m.Digest {
		return // conflicting proposal for the same sequence number
	}
	inst.req = m.Req
	inst.digest = m.Digest
	inst.hasReq = true
	if m.Seq > r.highestSeq {
		r.highestSeq = m.Seq
	}
	if m.Seq >= r.nextSeq {
		r.nextSeq = m.Seq + 1
	}
	// On the first pre-prepare this sends our prepare; on a re-driven
	// duplicate it re-sends it (and our commit, if any) in case the originals
	// were lost — vote maps make duplicates idempotent at the recipients.
	inst.sentPrep = true
	r.broadcast(message{Type: msgPrepare, From: r.id, View: r.view, Seq: m.Seq, Digest: m.Digest})
	if inst.sentComm {
		r.broadcast(message{Type: msgCommit, From: r.id, View: r.view, Seq: m.Seq, Digest: m.Digest})
	}
	r.maybeAdvance(m.Seq)
}

func (r *Replica) onPrepare(m message) {
	if m.View != r.view || m.Seq <= r.lastExec {
		return
	}
	inst := r.getInstance(m.Seq)
	inst.prepares[m.From] = true
	r.maybeAdvance(m.Seq)
}

func (r *Replica) onCommit(m message) {
	if m.View != r.view || m.Seq <= r.lastExec {
		return
	}
	inst := r.getInstance(m.Seq)
	inst.commits[m.From] = true
	r.maybeAdvance(m.Seq)
}

// maybeAdvance drives an instance through the prepare/commit phases and then
// executes committed instances in sequence order.
func (r *Replica) maybeAdvance(seq uint64) {
	inst := r.instances[seq]
	if inst == nil {
		return
	}
	quorum := r.cfg.Model.QuorumSize(r.cfg.N())
	if inst.hasReq && len(inst.prepares) >= quorum {
		inst.prepared = true
		if !inst.sentComm {
			inst.sentComm = true
			r.broadcast(message{Type: msgCommit, From: r.id, View: r.view, Seq: seq, Digest: inst.digest})
		}
	}
	r.executeReady()
}

// executeReady executes all committed instances whose predecessors have been
// executed.
func (r *Replica) executeReady() {
	quorum := r.cfg.Model.QuorumSize(r.cfg.N())
	start := r.lastExec
	defer func() {
		if r.lastExec != start {
			r.setExecSnapshot(r.lastExec)
		}
	}()
	for {
		next := r.lastExec + 1
		inst, ok := r.instances[next]
		if !ok || !inst.hasReq || inst.executed || len(inst.commits) < quorum || !inst.sentComm {
			return
		}
		inst.executed = true
		r.lastExec = next
		req := inst.req
		if req.ClientID == "" {
			// Null command filling a view-change gap: it advances the log and
			// nothing else — no execution, no reply.
			continue
		}
		delete(r.pending, req.id())

		rec := r.lastReply[req.ClientID]
		if rec == nil {
			rec = &clientRecord{}
			r.lastReply[req.ClientID] = rec
		}
		rec.observeLow(req.LowID)
		result, executedBefore := rec.recall(req.ReqID)
		if !executedBefore {
			// Apply unconditionally: whether a committed command executes must
			// be a pure function of the ordered log, never of the client's
			// resolution floor — the floor rides on retransmissions and
			// advances at different replicas at different times, so gating
			// execution on it would let replicas diverge on the same sequence
			// number. The floor's only jobs are pruning stored replies and
			// muting the reply send below; at-most-once across instances is
			// guarded at proposal time instead (onRequest, onViewChange and
			// onNewView all refuse to re-propose a resolved request).
			result = r.app.Execute(req.Op)
			rec.record(req.ReqID, result)
			r.statsMu.Lock()
			r.executed++
			r.statsMu.Unlock()
		}
		if !rec.stale(req.ReqID) {
			r.sendReply(req, result)
		}
		// Executed instances are retained until the next checkpoint: the
		// leader can re-drive them for lagging replicas (see onPrePrepare).
		if r.lastExec-r.lastCheckpointSeq >= uint64(r.cfg.CheckpointInterval) {
			r.lastCheckpointSeq = r.lastExec
			for seq, inst := range r.instances {
				if inst.executed && seq <= r.lastCheckpointSeq {
					delete(r.instances, seq)
				}
			}
		}
	}
}

func (r *Replica) sendReply(req request, result []byte) {
	out := result
	if r.isByzantine() {
		out = append([]byte("corrupted:"), result...)
	}
	r.net.SendToClient(req.ClientID, Reply{ReqID: req.ReqID, Replica: r.id, View: r.view, Result: out})
}

// --- view change ---

// stuckLeaderFactor scales LeaderTimeout into the backstop deadline for
// replacing a leader that keeps talking but never makes progress. A view
// change destroys every in-flight instance, so while the leader is audibly
// re-driving repair it deserves several timeouts of patience; only persistent
// stagnation justifies the disruption.
const stuckLeaderFactor = 8

func (r *Replica) checkLeaderLiveness() {
	if r.isLeader() || len(r.pending) == 0 {
		return
	}
	// A loaded-but-live leader is not a faulty leader: when execution is
	// advancing, old pending requests mean queueing, not leader failure, and
	// a view change would only add disruption. Only suspect when the log has
	// stopped moving (lastTickExec is refreshed by checkStalled each tick).
	if r.lastExec != r.lastTickExec {
		return
	}
	oldest := time.Now()
	for _, p := range r.pending {
		if p.arrival.Before(oldest) {
			oldest = p.arrival
		}
	}
	if time.Since(oldest) < r.cfg.LeaderTimeout {
		return
	}
	// Suspicion is driven by leader *silence*, not slowness: a leader whose
	// pre-prepares are still arriving is alive and (with checkStalled)
	// re-driving repair, and deposing it resets that repair. A crashed or
	// partitioned leader goes quiet and is replaced after one LeaderTimeout,
	// exactly as before; a live-but-wedged leader is replaced only after the
	// stuckLeaderFactor backstop expires with no execution progress at all.
	if time.Since(r.lastLeaderSeen) < r.cfg.LeaderTimeout &&
		time.Since(r.lastProgress) < stuckLeaderFactor*r.cfg.LeaderTimeout {
		return
	}
	// Suspect the leader: vote to move to the next view.
	newView := r.view + 1
	r.broadcast(r.viewChangeMsg(newView))
	// Reset arrival times so we do not flood view changes every tick.
	for k, p := range r.pending {
		p.arrival = time.Now()
		r.pending[k] = p
	}
}

func (r *Replica) viewChangeMsg(newView int) message {
	pend := make([]request, 0, len(r.pending))
	for _, p := range r.pending {
		pend = append(pend, p.req)
	}
	sort.Slice(pend, func(i, j int) bool { return pend[i].id().less(pend[j].id()) })
	// Certify every unexecuted instance that reached the prepare quorum: its
	// request may have committed at other replicas, so the new leader must
	// re-propose it at this exact sequence number. Executed instances need no
	// certificate — LastExec tells the leader to leave that prefix alone.
	var certs []preparedCert
	for seq, inst := range r.instances {
		if inst.hasReq && !inst.executed && inst.prepared {
			certs = append(certs, preparedCert{Seq: seq, Digest: inst.digest, Req: inst.req})
		}
	}
	sort.Slice(certs, func(i, j int) bool { return certs[i].Seq < certs[j].Seq })
	return message{
		Type:       msgViewChange,
		From:       r.id,
		View:       newView,
		LastExec:   r.lastExec,
		HighestSeq: r.highestSeq,
		Pending:    pend,
		Prepared:   certs,
	}
}

func (r *Replica) onViewChange(m message) {
	if m.View <= r.view {
		// A laggard is still trying to assemble an older view. NEW-VIEW
		// announcements are not retransmitted, so if the one that moved us
		// here was dropped at that replica it would stay behind forever —
		// re-announce the current view to it if we lead it.
		if r.isLeader() && m.From != r.id {
			r.net.SendToReplica(m.From, message{Type: msgNewView, From: r.id, View: r.view, LastExec: r.lastExec})
		}
		return
	}
	tally, ok := r.vcVotes[m.View]
	if !ok {
		tally = &viewChangeTally{votes: make(map[int]bool), certs: make(map[uint64]preparedCert)}
		r.vcVotes[m.View] = tally
	}
	tally.votes[m.From] = true
	if m.LastExec > tally.maxExec {
		tally.maxExec = m.LastExec
	}
	// Collect the prepared certificates the vote carries. Correct replicas
	// cannot certify different digests for one sequence number (both would
	// need prepare quorums, which intersect in a correct replica that accepts
	// only one digest per instance), so first-seen wins.
	for _, cert := range m.Prepared {
		if _, ok := tally.certs[cert.Seq]; !ok {
			tally.certs[cert.Seq] = cert
		}
	}
	// Learn the highest sequence number assigned anywhere in the vote quorum,
	// so a new leader knows how far its gap filling must reach.
	if m.HighestSeq > r.highestSeq {
		r.highestSeq = m.HighestSeq
	}
	// Adopt the pending requests advertised by others so the new leader can
	// re-propose them even if the client request never reached it.
	for _, req := range m.Pending {
		rec := r.lastReply[req.ClientID]
		if _, ok := rec.recall(req.ReqID); ok || rec.stale(req.ReqID) {
			continue
		}
		if _, ok := r.pending[req.id()]; !ok {
			r.pending[req.id()] = pendingReq{req: req, arrival: time.Now()}
		}
	}
	// Echo our own vote once we have seen evidence that others want to move:
	// either the next view (we share the suspicion), or — the PBFT catch-up
	// rule — any higher view that more than f replicas already voted for,
	// which means at least one correct replica is ahead of us and views
	// would otherwise scatter without ever assembling a quorum in any one.
	f := r.cfg.Model.MaxFaults(r.cfg.N())
	if !tally.votes[r.id] && (m.View == r.view+1 || len(tally.votes) > f) {
		tally.votes[r.id] = true
		r.broadcast(r.viewChangeMsg(m.View))
	}
	quorum := r.cfg.Model.QuorumSize(r.cfg.N())
	if len(tally.votes) >= quorum && r.cfg.LeaderFor(m.View) == r.id {
		// We are the leader of the new view: announce it.
		r.broadcast(message{Type: msgNewView, From: r.id, View: m.View, LastExec: r.lastExec})
	}
}

func (r *Replica) onNewView(m message) {
	if m.View <= r.view || m.From != r.cfg.LeaderFor(m.View) {
		return
	}
	r.view = m.View
	r.setViewSnapshot(r.view)
	r.lastLeaderSeen = time.Now()
	// Drop unprepared in-flight instances — nothing can have committed at
	// their sequence numbers, so the new leader is free to reassign them.
	// Prepared instances are retained as local certificates (their request
	// may have committed elsewhere, and a later view change must still be
	// able to certify them), but their vote maps are reset: prepares and
	// commits are only comparable within one view's proposal, and the commits
	// a null fill at the same sequence number would attract must not count
	// toward a conflicting retained request.
	for seq, inst := range r.instances {
		switch {
		case inst.executed:
		case inst.prepared:
			inst.prepares = make(map[int]bool)
			inst.commits = make(map[int]bool)
			inst.sentPrep = false
			inst.sentComm = false
		default:
			delete(r.instances, seq)
		}
	}
	if r.nextSeq <= r.highestSeq {
		r.nextSeq = r.highestSeq + 1
	}
	tally := r.vcVotes[m.View]
	for v := range r.vcVotes {
		if v <= m.View {
			delete(r.vcVotes, v)
		}
	}
	if r.isLeader() {
		// Execution is strictly in sequence order, and the instances dropped
		// above leave holes between lastExec and the highest sequence number
		// the previous views assigned — holes nothing will ever fill, wedging
		// the log forever. Fill them by the PBFT new-view rule: a sequence
		// number with a prepared certificate in the view-change quorum gets
		// its certified request re-proposed (the request may have committed
		// there, so any other assignment could contradict an executed
		// replica); a genuinely unprepared hole gets a null command. Sequence
		// numbers at or below the highest executed prefix reported by the
		// quorum are left alone entirely — they were executed somewhere, this
		// replica may be behind, and state transfer (not re-proposal) is what
		// repairs an executed prefix.
		certs := map[uint64]preparedCert{}
		base := r.lastExec
		if tally != nil {
			certs = tally.certs
			if tally.maxExec > base {
				base = tally.maxExec
			}
		}
		for seq := base + 1; seq <= r.highestSeq; seq++ {
			var req request // null command unless a certificate pins this slot
			if cert, ok := certs[seq]; ok {
				req = cert.Req
			} else if inst, ok := r.instances[seq]; ok && inst.hasReq && !inst.executed && inst.prepared {
				// Our own retained certificate; it may predate our vote's
				// inclusion in the tally.
				req = inst.req
			}
			r.broadcast(message{
				Type:   msgPrePrepare,
				From:   r.id,
				View:   r.view,
				Seq:    seq,
				Digest: seccrypto.Hash(req.Op),
				Req:    req,
			})
		}
		// Whatever pending remains uncertified gets fresh sequence numbers —
		// except requests the client already resolved: their replies may be
		// pruned, so re-proposing them could re-execute a completed command
		// (propose skips the certified ones above via their live instances).
		keys := make([]requestID, 0, len(r.pending))
		for k := range r.pending {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
		for _, k := range keys {
			p := r.pending[k]
			rec := r.lastReply[p.req.ClientID]
			if _, done := rec.recall(p.req.ReqID); done || rec.stale(p.req.ReqID) {
				delete(r.pending, k)
				continue
			}
			r.propose(p.req)
		}
	} else {
		// Restart liveness accounting in the new view.
		for k, p := range r.pending {
			p.arrival = time.Now()
			r.pending[k] = p
		}
	}
}

// --- state transfer ---

// redriveWindow bounds how many stalled instances the leader re-drives per
// liveness tick. Execution is strictly in-order, so repairing the instances
// right at the execution head is what unblocks progress; a wide window only
// multiplies repair traffic (every re-driven pre-prepare triggers re-affirm
// broadcasts at every receiver) without unblocking anything sooner.
const redriveWindow = 8

// checkStalled detects an execution stall — a full liveness tick with no
// execution progress while sequence numbers are known to be assigned ahead of
// us — and runs the two recovery paths that client retransmission cannot
// cover:
//
//   - The leader re-broadcasts the pre-prepares of the oldest unexecuted
//     instances. Client retransmission re-drives live requests, but a null
//     gap-filler or a request already resolved at the client has no
//     retransmission source; if its pre-prepare was lost (the in-memory
//     transport does not preserve ordering across its delivery timers, so a
//     gap fill can race the NEW-VIEW that precedes it and be dropped), only
//     the leader can revive the instance.
//
//   - Everyone broadcasts a state request, so a replica wedged behind an
//     instance its peers have executed and pruned past a checkpoint can adopt
//     a peer's state wholesale (see onStateRequest/onStateReply).
func (r *Replica) checkStalled() {
	if r.lastExec != r.lastTickExec {
		r.lastProgress = time.Now()
	}
	stalled := r.lastExec == r.lastTickExec && r.highestSeq > r.lastExec
	r.lastTickExec = r.lastExec
	if !stalled {
		return
	}
	if r.isLeader() {
		for seq := r.lastExec + 1; seq <= r.lastExec+redriveWindow; seq++ {
			if inst, ok := r.instances[seq]; ok && inst.hasReq && !inst.executed {
				r.broadcast(message{
					Type:   msgPrePrepare,
					From:   r.id,
					View:   r.view,
					Seq:    seq,
					Digest: inst.digest,
					Req:    inst.req,
				})
			}
		}
	}
	// A state transfer is a full snapshot per serving peer — too expensive to
	// solicit on every 125ms tick. One request a second is plenty: transfer
	// is the recovery of last resort behind re-drive repair.
	if time.Since(r.lastStateReq) >= time.Second {
		r.lastStateReq = time.Now()
		r.broadcast(message{Type: msgStateRequest, From: r.id, LastExec: r.lastExec})
	}
}

// onStateRequest answers a stalled replica with this replica's current state:
// an application snapshot, the executed prefix it covers, and the client
// reply records needed to keep deduplicating retransmissions past the jump.
// All three are captured together on the run goroutine, so they are mutually
// consistent. (A production BFT deployment would have the requester verify
// f+1 matching checkpoint digests before adopting one; the in-memory
// transport carries no signatures, so this implementation trusts the first
// usable reply — the Byzantine test hook corrupts client replies only.)
func (r *Replica) onStateRequest(m message) {
	if m.From == r.id || r.lastExec <= m.LastExec {
		return
	}
	// Serialization is the expensive part — the marshaled snapshot AND the
	// reply-record copy (retained replies can be large batch results) — so
	// both are memoized per executed prefix: a burst of stalled peers is
	// served one Snapshot call and one record copy. The cached values are
	// shared read-only with every receiver (Restore only unmarshals the
	// snapshot; onStateReply clones each result it merges). Results below a
	// client's resolution floor are omitted: the floor itself tells the
	// receiver they are stale, and under pipelining they are the bulk of the
	// record.
	if r.stateReplySeq != r.lastExec || r.stateReplyCache == nil {
		r.stateReplySeq = r.lastExec
		r.stateReplyCache = r.app.Snapshot()
		replies := make(map[string]clientReplySnapshot, len(r.lastReply))
		for id, rec := range r.lastReply {
			res := make(map[uint64][]byte)
			for reqID, result := range rec.results {
				if reqID < rec.floor {
					continue
				}
				res[reqID] = cloneBytes(result)
			}
			replies[id] = clientReplySnapshot{Results: res, Floor: rec.floor}
		}
		r.stateReplyClients = replies
	}
	r.net.SendToReplica(m.From, message{
		Type:          msgStateReply,
		From:          r.id,
		LastExec:      r.lastExec,
		Checkpoint:    r.stateReplyCache,
		ClientReplies: r.stateReplyClients,
	})
}

// onStateReply adopts a peer's state if it is ahead of ours: restore the
// application snapshot, jump the executed prefix, merge the reply records,
// and discard everything the jump made obsolete.
func (r *Replica) onStateReply(m message) {
	if m.LastExec <= r.lastExec {
		return
	}
	if err := r.app.Restore(m.Checkpoint); err != nil {
		return
	}
	r.lastExec = m.LastExec
	r.setExecSnapshot(r.lastExec)
	r.lastCheckpointSeq = m.LastExec
	if r.highestSeq < m.LastExec {
		r.highestSeq = m.LastExec
	}
	if r.nextSeq <= m.LastExec {
		r.nextSeq = m.LastExec + 1
	}
	for id, snap := range m.ClientReplies {
		rec := r.lastReply[id]
		if rec == nil {
			rec = &clientRecord{}
			r.lastReply[id] = rec
		}
		for reqID, result := range snap.Results {
			rec.record(reqID, cloneBytes(result))
		}
		rec.observeLow(snap.Floor)
	}
	for seq := range r.instances {
		if seq <= r.lastExec {
			delete(r.instances, seq)
		}
	}
	// Requests the adopted state already resolved must leave pending, or they
	// would keep the leader-liveness timer suspicious forever.
	for key, p := range r.pending {
		rec := r.lastReply[p.req.ClientID]
		if _, ok := rec.recall(p.req.ReqID); ok || rec.stale(p.req.ReqID) {
			delete(r.pending, key)
		}
	}
	r.executeReady()
}
