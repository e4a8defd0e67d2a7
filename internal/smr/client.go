package smr

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"scfs/internal/telemetry"
)

// DefaultMaxInflight is the pipelining window of a client that does not set
// MaxInflight explicitly: up to this many invocations may be outstanding at
// the replica group concurrently.
const DefaultMaxInflight = 64

// Client invokes commands on a replica group and accepts a result once n-f
// replicas returned it identically (n-f of n, f = the fault model's
// MaxFaults): for an ordered command those replicas executed it, so every
// later query's n-f answers include a correct replica that did.
//
// Under a context marked ReadOnly, a command goes out as a query: every
// replica answers it from its current state (Application.Query), with no
// consensus round, no log entry and no reply record, and n-f identical
// answers from distinct replicas are the result. As soon as the answers
// received so far can no longer make n-f identical ones (replicas behind
// or ahead of each other, a lying replica), or when the first
// retransmission of an ordered invocation would be due, the query falls
// back to the ordered invocation of the same command.
//
// A Client is safe for concurrent use and *pipelines* concurrent
// invocations: each in-flight request is tagged with its request ID, a
// single receiver goroutine demultiplexes replies back to their waiters, and
// invocations complete out of order — a slow command does not block the
// replies of the commands submitted after it. At most MaxInflight
// invocations are outstanding at once; excess Invoke calls queue for a
// window slot. Retransmission and reply-vote tracking are per request, not
// per client.
type Client struct {
	id    string
	cfg   Config
	net   *Network
	inbox chan Reply

	// RequestTimeout bounds one invocation; RetryInterval is the
	// retransmission period within an invocation. MaxInflight is the
	// pipelining window (0 selects DefaultMaxInflight; 1 serializes
	// invocations exactly like the pre-pipelining client). All three must be
	// set before the first Invoke.
	RequestTimeout time.Duration
	RetryInterval  time.Duration
	MaxInflight    int

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]*pendingCall

	// maxView is the highest replica view any reply has reported — the
	// client's monotonic observation of the group's view changes. An
	// invocation that sees it grow while in flight crossed a view change.
	maxView atomic.Int64

	windowOnce sync.Once
	window     chan struct{}

	recvOnce sync.Once
	closed   atomic.Bool
	closeCh  chan struct{}
	recvDone chan struct{}
}

// pendingCall is one in-flight invocation. votes and results are owned by
// the receiver goroutine; result/err are published to the waiter by the
// close of done. The vote-timing fields (first, voteDur) are written by
// the receiver only while the call is pending and read by the waiter only
// after done closes, so the close is their publication barrier; they are
// only tracked when stats is set, keeping the untraced path clock-free.
type pendingCall struct {
	done  chan struct{}
	stats bool
	// votes maps result digests to the set of replicas that reported them.
	votes   map[string]map[int]bool
	result  []byte
	first   time.Time
	voteDur time.Duration
	// query marks an unordered invocation; answers counts the answers it
	// got, and split is set (before done closes) once they can no longer
	// reach the quorum.
	query   bool
	answers int
	split   bool
}

// hopeless reports whether the query's answers so far leave no answer able
// to reach need identical ones from the n replicas. A replica that answers
// twice only brings the verdict forward: the query is then ordered.
func (p *pendingCall) hopeless(n, need int) bool {
	best := 0
	for _, who := range p.votes {
		best = max(best, len(who))
	}
	return best+n-p.answers < need
}

// InvokeStats reports how one invocation moved through the pipeline:
// where it waited, how often it retransmitted, how long the reply vote
// took, and whether the replica group changed views while it was in
// flight. Filled by InvokeWithStats; the Coalescer uses it to record
// consensus spans on behalf of batch participants whose contexts never
// reach the client.
type InvokeStats struct {
	// Window is how long the invocation waited for a pipelining slot.
	Window time.Duration
	// Vote is the latency from the first reply to the reply quorum.
	Vote time.Duration
	// Retries counts retransmissions of the request.
	Retries int
	// ViewChange reports whether the group's view advanced while the
	// invocation was in flight (a leader was suspected and replaced).
	ViewChange bool
	// Answer is how the result was reached: AnswerOrdered, AnswerUnordered
	// or AnswerFallback.
	Answer string
}

// How an invocation was answered (InvokeStats.Answer, and the Target of its
// "smr.invoke" span).
const (
	// AnswerOrdered is a command ordered by consensus and executed.
	AnswerOrdered = "ordered"
	// AnswerUnordered is a query answered by n-f replicas identically.
	AnswerUnordered = "unordered"
	// AnswerFallback is a query whose quorum could not form, ordered after
	// all.
	AnswerFallback = "fallback"
)

// queryKey marks a context whose invocations only read.
type queryKey struct{}

// ReadOnly marks ctx so that a Client sends a command invoked under it as a
// query rather than ordering it, and a Coalescer passes it straight to its
// invoker instead of batching it. Only a command the application answers in
// Query may be marked: anything else is refused by the replicas. Invokers
// that keep no replicas (depspace.LocalInvoker) ignore the mark.
func ReadOnly(ctx context.Context) context.Context {
	return context.WithValue(ctx, queryKey{}, true)
}

// isReadOnly reports whether ctx was marked by ReadOnly.
func isReadOnly(ctx context.Context) bool { return ctx.Value(queryKey{}) != nil }

// errSplit ends a query whose quorum cannot form; the caller falls back to
// ordering the command.
var errSplit = errors.New("smr: query answers split")

// StatsInvoker is an Invoker that can report per-invocation pipeline
// statistics. *Client implements it; wrappers that cannot (test doubles,
// counting shims) are used via plain Invoke.
type StatsInvoker interface {
	InvokeWithStats(ctx context.Context, op []byte, st *InvokeStats) ([]byte, error)
}

// ErrTimeout is returned when the group does not answer in time.
var ErrTimeout = errors.New("smr: request timed out")

// ErrClosed is returned by Invoke on a closed client.
var ErrClosed = errors.New("smr: client is closed")

// NewClient registers a client with the network.
func NewClient(id string, cfg Config, net *Network) *Client {
	cfg = cfg.withDefaults()
	return &Client{
		id:             id,
		cfg:            cfg,
		net:            net,
		inbox:          net.RegisterClient(id),
		RequestTimeout: 10 * time.Second,
		RetryInterval:  100 * time.Millisecond,
		pending:        make(map[uint64]*pendingCall),
		closeCh:        make(chan struct{}),
		recvDone:       make(chan struct{}),
	}
}

// Close unregisters the client, stops the receiver goroutine and fails every
// in-flight invocation with ErrClosed.
func (c *Client) Close() {
	if c.closed.CompareAndSwap(false, true) {
		close(c.closeCh)
		c.net.UnregisterClient(c.id)
	}
}

// initWindow sizes the in-flight window on first use, so MaxInflight can be
// assigned field-style after NewClient (like RequestTimeout).
func (c *Client) initWindow() {
	c.windowOnce.Do(func() {
		n := c.MaxInflight
		if n <= 0 {
			n = DefaultMaxInflight
		}
		c.window = make(chan struct{}, n)
	})
}

// register tags a new invocation and makes it visible to the receiver.
func (c *Client) register(stats, query bool) (uint64, *pendingCall) {
	call := &pendingCall{done: make(chan struct{}), stats: stats, query: query}
	c.mu.Lock()
	c.nextID++
	id := c.nextID
	c.pending[id] = call
	c.mu.Unlock()
	return id, call
}

// forget removes an invocation from the demux table; idempotent (both the
// waiter's deferred cleanup and the receiver's completion path call it).
func (c *Client) forget(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// lowID returns the client's lowest unresolved request ID — the cumulative
// acknowledgement piggybacked on every request so replicas can prune their
// reply records. With nothing in flight, everything ever issued is resolved.
func (c *Client) lowID() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.pending) == 0 {
		return c.nextID + 1
	}
	low := uint64(0)
	for id := range c.pending {
		if low == 0 || id < low {
			low = id
		}
	}
	return low
}

// lookup returns the in-flight call for a request ID, or nil when the
// invocation already completed or was abandoned.
func (c *Client) lookup(id uint64) *pendingCall {
	c.mu.Lock()
	call := c.pending[id]
	c.mu.Unlock()
	return call
}

// receive is the single receiver goroutine: it demultiplexes every reply to
// its in-flight invocation by request ID and tallies the per-request vote.
// Replies for completed or abandoned requests are dropped without touching
// any other invocation — concurrent sessions never see each other's replies.
func (c *Client) receive() {
	defer close(c.recvDone)
	n := c.cfg.N()
	needed := n - c.cfg.Model.MaxFaults(n)
	for {
		select {
		case <-c.closeCh:
			return
		case r := <-c.inbox:
			// Track the highest view any reply reports, monotonically: in-flight
			// invocations compare against it to detect crossed view changes.
			for {
				cur := c.maxView.Load()
				if int64(r.View) <= cur || c.maxView.CompareAndSwap(cur, int64(r.View)) {
					break
				}
			}
			call := c.lookup(r.ReqID)
			if call == nil {
				continue // stale reply for a completed or abandoned request
			}
			if call.stats && call.first.IsZero() {
				call.first = time.Now()
			}
			key := string(r.Result)
			if call.votes == nil {
				call.votes = make(map[string]map[int]bool)
			}
			if call.votes[key] == nil {
				call.votes[key] = make(map[int]bool)
			}
			call.votes[key][r.Replica] = true
			switch {
			case len(call.votes[key]) >= needed:
				call.result = cloneBytes(r.Result)
				if call.stats {
					call.voteDur = time.Since(call.first)
				}
			case call.query:
				call.answers++
				if !call.hopeless(n, needed) {
					continue
				}
				call.split = true
			default:
				continue
			}
			c.forget(r.ReqID)
			close(call.done)
		}
	}
}

// Invoke submits op for total ordering and returns the agreed result; under
// a context marked ReadOnly it queries the replicas first (see Client).
// Cancelling ctx abandons the invocation promptly with ctx.Err(); the
// command may still execute at the replicas (an abandoned request is
// indistinguishable from a lost reply). A context carrying a telemetry
// trace gets an "smr.invoke" span recording the invocation's pipeline
// statistics — how it was answered (its Target), window wait,
// retransmissions, vote latency, crossed view changes (direct callers only;
// the Coalescer invokes ordered batches under a detached context and
// records spans for its participants itself, via InvokeWithStats).
func (c *Client) Invoke(ctx context.Context, op []byte) ([]byte, error) {
	tr := telemetry.FromContext(ctx)
	if tr == nil {
		return c.invoke(ctx, op, nil)
	}
	var st InvokeStats
	start := time.Now()
	out, err := c.invoke(ctx, op, &st)
	tr.Record(telemetry.Span{
		Name:       "smr.invoke",
		Target:     st.Answer,
		Start:      start,
		Dur:        time.Since(start),
		Outcome:    invokeOutcome(err),
		Err:        err,
		Wait:       st.Window,
		Vote:       st.Vote,
		Retries:    st.Retries,
		ViewChange: st.ViewChange,
	})
	return out, err
}

// InvokeWithStats is Invoke, filling st (when non-nil) with the
// invocation's pipeline statistics instead of recording a span. It
// implements StatsInvoker.
func (c *Client) InvokeWithStats(ctx context.Context, op []byte, st *InvokeStats) ([]byte, error) {
	return c.invoke(ctx, op, st)
}

// invokeOutcome classifies an invocation error for its span.
func invokeOutcome(err error) telemetry.SpanOutcome {
	switch {
	case err == nil:
		return telemetry.SpanOK
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return telemetry.SpanCanceled
	default:
		return telemetry.SpanError
	}
}

// invoke queries the replicas when ctx is marked ReadOnly, and orders op
// when it is not or when the query's quorum cannot form.
func (c *Client) invoke(ctx context.Context, op []byte, st *InvokeStats) ([]byte, error) {
	answer := AnswerOrdered
	if st != nil {
		defer func() { st.Answer = answer }()
	}
	if isReadOnly(ctx) {
		out, err := c.call(ctx, op, st, true)
		if err != errSplit {
			answer = AnswerUnordered
			return out, err
		}
		answer = AnswerFallback
	}
	return c.call(ctx, op, st, false)
}

// call makes one invocation of op: a query, which ends with errSplit when
// its quorum cannot form or when its first retransmission would be due, or
// an ordered request, retransmitted until its quorum forms. The statistics
// of both rounds of a query that fell back add up in st.
func (c *Client) call(ctx context.Context, op []byte, st *InvokeStats, query bool) ([]byte, error) {
	if c.closed.Load() {
		return nil, fmt.Errorf("%w (%s)", ErrClosed, c.id)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.initWindow()
	c.recvOnce.Do(func() { go c.receive() })

	// Acquire a pipelining window slot.
	var acquire time.Time
	if st != nil {
		acquire = time.Now()
	}
	select {
	case c.window <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-c.closeCh:
		return nil, fmt.Errorf("%w (%s)", ErrClosed, c.id)
	}
	defer func() { <-c.window }()

	reqID, call := c.register(st != nil, query)
	defer c.forget(reqID)

	retries := 0
	if st != nil {
		st.Window += time.Since(acquire)
		viewStart := c.maxView.Load()
		defer func() {
			st.Retries += retries
			st.ViewChange = st.ViewChange || c.maxView.Load() > viewStart
		}()
	}

	msg := message{Type: msgRequest, From: -1, FromCli: c.id,
		Req: request{ClientID: c.id, ReqID: reqID, LowID: c.lowID(), Op: op}}
	if query {
		msg.Type = msgQuery
	}
	c.net.Broadcast(msg)

	// One deadline timer and one retransmission timer per invocation, both
	// reused across wakeups — no per-iteration timer allocation. Retries back
	// off exponentially (capped at 16x): with a full pipelining window every
	// outstanding request retransmits, and a fixed cadence under a loaded
	// group adds exactly the flood that keeps it loaded.
	deadline := time.NewTimer(c.RequestTimeout)
	defer deadline.Stop()
	interval := c.RetryInterval
	retry := time.NewTimer(interval)
	defer retry.Stop()

	for {
		select {
		case <-call.done:
			if call.split {
				return nil, errSplit
			}
			if st != nil {
				st.Vote = call.voteDur
			}
			return call.result, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-retry.C:
			if query {
				// A replica that never answers (crashed, cut off) leaves a
				// quorum that may still form on paper; the order does not
				// wait for it.
				return nil, errSplit
			}
			retries++
			msg.Req.LowID = c.lowID() // refresh the cumulative ack
			c.net.Broadcast(msg)
			if interval < 16*c.RetryInterval {
				interval *= 2
			}
			retry.Reset(interval)
		case <-deadline.C:
			return nil, fmt.Errorf("%w after %v (request %d)", ErrTimeout, c.RequestTimeout, reqID)
		case <-c.closeCh:
			return nil, fmt.Errorf("%w (%s)", ErrClosed, c.id)
		}
	}
}

func cloneBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// equalResults reports whether two replies carry the same payload. Exposed
// for tests of the voting logic.
func equalResults(a, b []byte) bool { return bytes.Equal(a, b) }
