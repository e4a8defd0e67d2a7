package smr

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"scfs/internal/telemetry"
)

// Batching lets the metadata plane amortize coordination round trips:
// concurrently submitted operations are packed into one ordered invocation
// and executed back to back at the replicas. The envelope below frames a
// batch; BatchApplication unpacks it replica-side; Coalescer packs it
// client-side. The three pieces are application-agnostic — any Application
// whose commands never begin with a 0x00 byte (JSON commands, as depspace
// uses, never do) can be wrapped.

// batchMagic prefixes a batch envelope. The leading 0x00 byte cannot start a
// JSON document, so plain commands and envelopes are unambiguous.
var batchMagic = []byte{0x00, 'S', 'B', '1'}

// EncodeBatch frames a list of operations into one envelope.
func EncodeBatch(ops [][]byte) []byte {
	size := len(batchMagic) + binary.MaxVarintLen64
	for _, op := range ops {
		size += binary.MaxVarintLen64 + len(op)
	}
	out := make([]byte, 0, size)
	out = append(out, batchMagic...)
	out = binary.AppendUvarint(out, uint64(len(ops)))
	for _, op := range ops {
		out = binary.AppendUvarint(out, uint64(len(op)))
		out = append(out, op...)
	}
	return out
}

// DecodeBatch unpacks an envelope produced by EncodeBatch. The second return
// is false when b is not an envelope (a plain command); a malformed envelope
// returns (nil, true).
func DecodeBatch(b []byte) ([][]byte, bool) {
	if len(b) < len(batchMagic) || string(b[:len(batchMagic)]) != string(batchMagic) {
		return nil, false
	}
	b = b[len(batchMagic):]
	n, sz := binary.Uvarint(b)
	if sz <= 0 {
		return nil, true
	}
	b = b[sz:]
	// The count is untrusted until checked against the payload: every op
	// needs at least its one-byte length varint, so a count exceeding the
	// remaining bytes is malformed. Rejecting it here also bounds the
	// preallocation below — a forged count must not panic make() inside
	// Application.Execute, where every replica would crash on the same
	// ordered command.
	if n > uint64(len(b)) {
		return nil, true
	}
	ops := make([][]byte, 0, n)
	for i := uint64(0); i < n; i++ {
		l, sz := binary.Uvarint(b)
		if sz <= 0 || uint64(len(b)-sz) < l {
			return nil, true
		}
		b = b[sz:]
		ops = append(ops, b[:l:l])
		b = b[l:]
	}
	return ops, true
}

// DecodeBatchReply unpacks the reply to an envelope of n operations. Reply
// bytes come from replicas and are untrusted: anything but a well-formed
// envelope of exactly n replies is an error, so callers may index the result
// by operation position.
func DecodeBatchReply(reply []byte, n int) ([][]byte, error) {
	replies, isBatch := DecodeBatch(reply)
	if !isBatch || replies == nil || len(replies) != n {
		return nil, fmt.Errorf("smr: malformed batch reply (%d ops, %d replies; replicas must wrap their application in BatchApplication)", n, len(replies))
	}
	return replies, nil
}

// BatchApplication wraps a deterministic Application so that a batch
// envelope executes (or is queried) as its sub-operations in order,
// replying with an envelope of the sub-replies. Plain commands pass through
// untouched, so batching and non-batching clients interoperate against the
// same replicas.
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

// unpack applies do to cmd, or to each sub-operation of an envelope.
func unpack(cmd []byte, do func([]byte) []byte) []byte {
	ops, isBatch := DecodeBatch(cmd)
	if !isBatch {
		return do(cmd)
	}
	replies := make([][]byte, len(ops))
	for i, op := range ops {
		replies[i] = do(op)
	}
	return EncodeBatch(replies)
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

// InvokeBatch submits ops through inv as one ordered invocation — one round
// trip — and returns one reply per operation, in order. The replicas execute
// the operations back to back but not atomically. A single operation goes
// out as the plain command; more need replicas wrapped in BatchApplication.
func InvokeBatch(ctx context.Context, inv Invoker, ops [][]byte) ([][]byte, error) {
	switch len(ops) {
	case 0:
		return nil, nil
	case 1:
		reply, err := inv.Invoke(ctx, ops[0])
		if err != nil {
			return nil, err
		}
		return [][]byte{reply}, nil
	}
	reply, err := inv.Invoke(ctx, EncodeBatch(ops))
	if err != nil {
		return nil, err
	}
	return DecodeBatchReply(reply, len(ops))
}

// Coalescer packs operations into batch invocations against replicas
// wrapped in BatchApplication, and batches only what load supplies: what
// queued behind the invocation in flight. A submission that finds none of
// this coalescer's invocations in flight leaves at once, as it came in (no
// envelope around a lone command, a caller-built envelope as one).
// Submissions that arrive while one is in flight queue, and the goroutine
// that finishes an invocation takes the whole queue with it as the next
// one. A queue that reaches maxBatch operations leaves at once even with
// invocations in flight, so under a storm batches overlap in a pipelined
// Client's window; a mount coordinates through one group, so that overlap
// is all the concurrency its metadata plane has. Nothing waits on a timer: an idle coalescer adds no
// latency to a consensus round, a busy one batches as deep as its round
// trips are long.
//
// A submitter may hand in an envelope it built itself (a client that wants
// several commands executed back to back in one round trip). Its
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

// batchItem is one submitter's contribution and its reply slot: op as it
// was handed in, ops what it adds to a flush (op itself, or the
// sub-operations when op is a caller-built envelope). ctx is the
// submitter's context; the flush aborts only when every item's context is
// done (see flush), so it must be retained past the submitter's return.
// trace/enq carry the submitter's telemetry trace and enqueue time: the
// flush runs under a detached context the trace cannot ride, so batch and
// consensus spans are recorded onto each participant's trace explicitly.
type batchItem struct {
	op       []byte
	ops      [][]byte
	envelope bool
	ctx      context.Context
	done     chan struct{}
	result   []byte
	err      error
	trace    *telemetry.Trace
	enq      time.Time
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
	item := &batchItem{op: op, ops: [][]byte{op}, ctx: ctx, done: make(chan struct{})}
	if ops, isBatch := DecodeBatch(op); isBatch {
		if len(ops) == 0 {
			return nil, errors.New("smr: malformed or empty batch envelope")
		}
		item.ops, item.envelope = ops, true
	}
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

	// A lone submitter's command — or its own envelope — goes out as it
	// came in.
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
				n := len(it.ops)
				if it.envelope {
					it.result = EncodeBatch(replies[:n])
				} else {
					it.result = cloneBytes(replies[0])
				}
				replies = replies[n:]
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
