package smr

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"scfs/internal/codec"
	"scfs/internal/telemetry"
)

// Batching lets the metadata plane amortize coordination round trips:
// concurrently submitted operations are packed into one ordered invocation
// and executed back to back at the replicas. The envelope (EncodeBatch, in
// the one codec of internal/codec) frames a batch; BatchApplication unpacks it replica-side; Coalescer packs it
// client-side. Every invocation through them is an envelope, of one
// operation or more. The three pieces are application-agnostic: any
// Application can be wrapped.

// BatchApplication wraps a deterministic Application so that a batch
// envelope executes (or is queried) as its sub-operations in order,
// replying with an envelope of the sub-replies. Bytes that are not an
// envelope execute nothing and get an empty envelope back, which no client
// accepts as the reply to its operations.
type BatchApplication struct {
	App Application
}

var _ Application = (*BatchApplication)(nil)

// NewBatchApplication wraps app.
func NewBatchApplication(app Application) *BatchApplication {
	return &BatchApplication{App: app}
}

// Execute implements Application.
func (b *BatchApplication) Execute(cmd []byte) []byte { return unpack(cmd, b.App.Execute) }

// Query implements Application: an envelope is answered as its
// sub-operations are, each by the wrapped application's Query, so one
// write hidden among reads is refused like a lone one.
func (b *BatchApplication) Query(cmd []byte) []byte { return unpack(cmd, b.App.Query) }

// unpack applies do to each sub-operation of the envelope cmd.
func unpack(cmd []byte, do func([]byte) []byte) []byte {
	ops, _ := DecodeBatch(cmd) // nil when malformed
	replies := make([][]byte, len(ops))
	for i, op := range ops {
		replies[i] = do(op)
	}
	return EncodeBatch(replies)
}

// EncodeBatch frames ops as one envelope: the version, the count of ops, then
// each op as a string. Every coordination invocation is an envelope.
func EncodeBatch(ops [][]byte) []byte {
	size := 2 * codec.MaxUvarintLen
	for _, op := range ops {
		size += codec.MaxUvarintLen + len(op)
	}
	return codec.AppendList(codec.AppendVersion(make([]byte, 0, size)), ops, codec.AppendBytes)
}

// DecodeBatch unpacks an envelope made by EncodeBatch. The ops alias b.
func DecodeBatch(b []byte) ([][]byte, error) {
	d := codec.NewDecoder(b, true)
	ops := codec.List(&d, (*codec.Decoder).Bytes)
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return ops, nil
}

// DecodeBatchReply unpacks the reply to an envelope of n operations. Reply
// bytes come from replicas and are untrusted: anything but the envelope of
// exactly n replies is an error, so callers may index the result by
// operation position.
func DecodeBatchReply(reply []byte, n int) ([][]byte, error) {
	replies, err := DecodeBatch(reply)
	if err != nil || len(replies) != n {
		return nil, fmt.Errorf("smr: malformed batch reply (%d ops, %d replies; replicas must wrap their application in BatchApplication)", n, len(replies))
	}
	return replies, nil
}

// Snapshot implements Application.
func (b *BatchApplication) Snapshot() []byte { return b.App.Snapshot() }

// Restore implements Application.
func (b *BatchApplication) Restore(snapshot []byte) error { return b.App.Restore(snapshot) }

// Invoker submits a serialized command for totally ordered execution and
// returns the serialized result. Client and Coalescer implement it, and
// depspace.Invoker names it. A context marked ReadOnly asks for the command
// to be answered without ordering it; an Invoker may ignore the mark, and
// one that wraps another passes the context on.
type Invoker interface {
	Invoke(ctx context.Context, op []byte) ([]byte, error)
}

// InvokeBatch submits ops through inv as one envelope — one round trip — to
// replicas wrapped in BatchApplication, and returns one reply per
// operation, in order. The replicas execute the operations back to back but
// not atomically.
func InvokeBatch(ctx context.Context, inv Invoker, ops [][]byte) ([][]byte, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	reply, err := inv.Invoke(ctx, EncodeBatch(ops))
	if err != nil {
		return nil, err
	}
	return DecodeBatchReply(reply, len(ops))
}

// Coalescer packs envelopes into batch invocations against replicas wrapped
// in BatchApplication, and batches only what load supplies: what queued
// behind the invocation in flight. A submission that finds none of this
// coalescer's invocations in flight leaves at once, as it came in.
// Submissions that arrive while one is in flight queue, and the goroutine
// that finishes an invocation takes the whole queue with it as the next
// one. A queue that reaches maxBatch operations leaves at once even with
// invocations in flight, so under a storm batches overlap in a pipelined
// Client's window; a mount coordinates through one group, so that overlap
// is all the concurrency its metadata plane has. Nothing waits on a timer: an idle coalescer adds no
// latency to a consensus round, a busy one batches as deep as its round
// trips are long.
//
// Every submission is an envelope, of one operation or more. Its
// sub-operations are flattened into the coalescer's own envelope — adjacent
// and in order, never nested — and it gets an envelope of their replies
// back. An envelope is never split, however many operations it carries.
//
// A submission under a context marked ReadOnly is a query, which needs no
// place in the order: it goes straight to Inv, neither queueing behind the
// invocation in flight nor counting as one.
type Coalescer struct {
	// Inv is the underlying invoker (typically a pipelined *Client).
	Inv Invoker

	mu       sync.Mutex
	queue    []*batchItem
	queued   int // operations in queue, counting an envelope's sub-operations
	inflight int // invocations issued and not yet answered; 0 implies an empty queue
}

// maxBatch is the queue depth, in operations, that leaves without waiting
// for an invocation in flight to finish.
const maxBatch = 32

// batchItem is one submitter's contribution and its reply slot: op, the
// envelope it handed in, and ops, its sub-operations. ctx is the
// submitter's context; the flush aborts only when every item's context is
// done (see flush), so it must be retained past the submitter's return.
// trace/enq carry the submitter's telemetry trace and enqueue time: the
// flush runs under a detached context the trace cannot ride, so batch and
// consensus spans are recorded onto each participant's trace explicitly.
type batchItem struct {
	op     []byte
	ops    [][]byte
	ctx    context.Context
	done   chan struct{}
	result []byte
	err    error
	trace  *telemetry.Trace
	enq    time.Time
}

// NewCoalescer creates a coalescing layer over inv.
func NewCoalescer(inv Invoker) *Coalescer { return &Coalescer{Inv: inv} }

// Invoke implements the invoker shape shared by the coordination clients.
// Cancelling ctx abandons the wait for the reply; as with a lost reply, the
// operation may still execute. The batch itself is invoked under a context
// detached from any single caller — one caller's cancellation never fails
// the other queued operations; the invocation is abandoned only once every
// participant's context is done.
func (c *Coalescer) Invoke(ctx context.Context, op []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if isReadOnly(ctx) {
		return c.Inv.Invoke(ctx, op)
	}
	ops, err := DecodeBatch(op)
	if err != nil || len(ops) == 0 {
		return nil, errors.New("smr: malformed or empty batch envelope")
	}
	item := &batchItem{op: op, ops: ops, ctx: ctx, done: make(chan struct{})}
	if tr := telemetry.FromContext(ctx); tr != nil {
		item.trace, item.enq = tr, time.Now()
	}
	// What makes the queue leave is the batch's flush trigger, surfaced on
	// its telemetry spans.
	c.mu.Lock()
	c.queue = append(c.queue, item)
	c.queued += len(item.ops)
	var batch []*batchItem
	trigger := "immediate"
	switch {
	case c.inflight == 0:
		batch = c.takeLocked()
	case c.queued >= maxBatch:
		batch, trigger = c.takeLocked(), "full"
	}
	c.mu.Unlock()

	// The flush runs in its own goroutine so a submitter whose ctx cancels
	// mid-invocation abandons its wait, while the batch completes for the
	// other submitters and the goroutine goes on to drain the queue.
	if batch != nil {
		go func() {
			for ; batch != nil; trigger = "drain" {
				batch = c.flush(batch, trigger)
			}
		}()
	}
	select {
	case <-item.done:
		return item.result, item.err
	case <-ctx.Done():
		// The batch carries the op anyway; its reply is discarded.
		return nil, ctx.Err()
	}
}

// takeLocked empties the queue into a batch about to be invoked.
func (c *Coalescer) takeLocked() []*batchItem {
	batch := c.queue
	c.queue, c.queued = nil, 0
	c.inflight++
	return batch
}

// answered retires one invocation and returns what queued behind it, now in
// flight itself, or nil.
func (c *Coalescer) answered() []*batchItem {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inflight--
	if len(c.queue) == 0 {
		return nil
	}
	return c.takeLocked()
}

// flush issues one batch, distributes the replies and returns the batch that
// queued behind it for the caller to flush next — taken before any reply is
// published, so a submitter that has its reply finds the coalescer's state
// already past its invocation. The invocation runs under a context detached
// from every individual caller, cancelled only once all batch items'
// contexts are done — at that point nobody is waiting for the replies and
// the invocation may be abandoned.
//
// Because the flush context carries no trace, the flush records telemetry
// for its participants directly: every traced participant gets an
// "smr.batch" span (how the batch flushed, how many ops it carried, how
// long this op lingered in the queue) and — when the underlying invoker is
// a StatsInvoker — an "smr.invoke" span with the consensus round trip's
// pipeline statistics. Spans are recorded before the reply is published,
// so a participant still waiting sees them on its trace before it finishes.
func (c *Coalescer) flush(batch []*batchItem, trigger string) []*batchItem {
	// Detached on purpose (the PR 8 review fix): tying the flush to any one
	// caller's ctx cancelled every participant's op when that caller quit.
	fctx, cancel := context.WithCancel(context.Background())
	stop := make(chan struct{})
	go func() {
		defer cancel()
		for _, it := range batch {
			select {
			case <-it.ctx.Done():
			case <-stop:
				return
			}
		}
	}()
	defer close(stop)

	// A lone submitter's envelope goes out as it came in, and its reply
	// comes back as it was given.
	wire, nops := batch[0].op, len(batch[0].ops)
	if len(batch) > 1 {
		var ops [][]byte
		for _, it := range batch {
			ops = append(ops, it.ops...)
		}
		wire, nops = EncodeBatch(ops), len(ops)
	}

	traced := false
	for _, it := range batch {
		if it.trace != nil {
			traced = true
			break
		}
	}
	var (
		fstart time.Time
		st     *InvokeStats
		reply  []byte
		err    error
	)
	if traced {
		fstart = time.Now()
	}
	if si, ok := c.Inv.(StatsInvoker); ok && traced {
		st = &InvokeStats{}
		reply, err = si.InvokeWithStats(fctx, wire, st)
	} else {
		reply, err = c.Inv.Invoke(fctx, wire)
	}
	next := c.answered()

	switch {
	case err != nil: // every participant gets err, below
	case len(batch) == 1:
		batch[0].result = reply
	default:
		var replies [][]byte
		if replies, err = DecodeBatchReply(reply, nops); err == nil {
			for _, it := range batch {
				it.result, replies = EncodeBatch(replies[:len(it.ops)]), replies[len(it.ops):]
			}
		}
	}
	if traced {
		rtt := time.Since(fstart)
		out := invokeOutcome(err)
		for _, it := range batch {
			if it.trace == nil {
				continue
			}
			it.trace.Record(telemetry.Span{
				Name:    "smr.batch",
				Target:  trigger,
				Start:   fstart,
				Dur:     rtt,
				Outcome: out,
				Err:     err,
				Ops:     nops,
				Wait:    fstart.Sub(it.enq),
			})
			if st != nil {
				it.trace.Record(telemetry.Span{
					Name:       "smr.invoke",
					Target:     st.Answer,
					Start:      fstart,
					Dur:        rtt,
					Outcome:    out,
					Err:        err,
					Wait:       st.Window,
					Vote:       st.Vote,
					Retries:    st.Retries,
					ViewChange: st.ViewChange,
				})
			}
		}
	}
	for _, it := range batch {
		it.err = err
		close(it.done)
	}
	return next
}
