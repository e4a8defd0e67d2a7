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
// whose commands never begin with a 0x00 byte (JSON commands, as both
// depspace and zkcoord use, never do) can be wrapped.

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
// envelope executes as its sub-operations in order, replying with an
// envelope of the sub-replies. Plain commands pass through untouched, so
// batching and non-batching clients interoperate against the same replicas.
type BatchApplication struct {
	App Application
}

var _ Application = (*BatchApplication)(nil)

// NewBatchApplication wraps app.
func NewBatchApplication(app Application) *BatchApplication {
	return &BatchApplication{App: app}
}

// Execute implements Application.
func (b *BatchApplication) Execute(cmd []byte) []byte {
	ops, isBatch := DecodeBatch(cmd)
	if !isBatch {
		return b.App.Execute(cmd)
	}
	replies := make([][]byte, len(ops))
	for i, op := range ops {
		replies[i] = b.App.Execute(op)
	}
	return EncodeBatch(replies)
}

// Snapshot implements Application.
func (b *BatchApplication) Snapshot() []byte { return b.App.Snapshot() }

// Restore implements Application.
func (b *BatchApplication) Restore(snapshot []byte) error { return b.App.Restore(snapshot) }

// Invoker submits a serialized command for totally ordered execution and
// returns the serialized result (the same shape depspace.Invoker and
// zkcoord.Invoker declare). Client implements it.
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

// Coalescer packs concurrently submitted operations into batch invocations
// against replicas wrapped in BatchApplication. The first submitter of a
// generation becomes its flusher: it waits up to MaxDelay for concurrent
// submitters to pile in (or until MaxBatch operations are queued), then
// issues the whole batch as one ordered invocation and distributes the
// replies. A lone operation is invoked directly with no envelope and no
// delay beyond MaxDelay.
//
// A submitter may hand in an envelope it built itself (a client that wants
// several commands executed back to back in one round trip). Its
// sub-operations are flattened into the coalescer's own envelope — adjacent
// and in order, never nested — and it gets an envelope of their replies
// back.
//
// Combined with a pipelined Client, multiple batches are in flight at once:
// the coalescer bounds round trips per operation, the pipeline overlaps the
// round trips that remain.
type Coalescer struct {
	// Inv is the underlying invoker (typically a pipelined *Client).
	Inv Invoker
	// MaxBatch is the largest batch packed into one invocation (default 32).
	MaxBatch int
	// MaxDelay is how long the flusher waits for concurrent submitters
	// (default 200µs). Zero after NewCoalescer means the default; negative
	// disables the wait (batching then only captures ops submitted in the
	// same instant).
	MaxDelay time.Duration

	mu       sync.Mutex
	queue    []*batchItem
	queued   int // operations in queue, counting an envelope's sub-operations
	flushing bool
	full     chan struct{} // signaled when the queue reaches MaxBatch
}

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
	//scfslint:ignore ctxdiscipline request-carrier: flush aborts only when every participant's ctx is done
	ctx    context.Context
	done   chan struct{}
	result []byte
	err    error
	trace  *telemetry.Trace
	enq    time.Time
}

// NewCoalescer creates a coalescing layer over inv.
func NewCoalescer(inv Invoker) *Coalescer {
	return &Coalescer{Inv: inv, MaxBatch: 32, MaxDelay: 200 * time.Microsecond}
}

func (c *Coalescer) maxBatch() int {
	if c.MaxBatch <= 0 {
		return 32
	}
	return c.MaxBatch
}

// Invoke implements the invoker shape shared by the coordination clients.
// Cancelling ctx abandons the wait for the reply; as with a lost reply, the
// operation may still execute. The batch itself is invoked under a context
// detached from any single caller — one caller's cancellation (flusher or
// follower) never fails the other queued operations; the invocation is
// abandoned only once every participant's context is done.
func (c *Coalescer) Invoke(ctx context.Context, op []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
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
	c.mu.Lock()
	c.queue = append(c.queue, item)
	c.queued += len(item.ops)
	leader := !c.flushing
	if leader {
		c.flushing = true
		c.full = make(chan struct{})
	} else if c.queued >= c.maxBatch() && c.full != nil {
		// Wake the flusher early: the batch is full.
		close(c.full)
		c.full = nil
	}
	full := c.full
	c.mu.Unlock()

	if !leader {
		select {
		case <-item.done:
			return item.result, item.err
		case <-ctx.Done():
			// The batch will carry the op anyway; its reply is discarded.
			return nil, ctx.Err()
		}
	}

	// Flusher: linger briefly so concurrent submitters coalesce. The chosen
	// wakeup is the batch's flush trigger, surfaced on its telemetry spans.
	trigger := "immediate"
	if d := c.MaxDelay; d >= 0 {
		if d == 0 {
			d = 200 * time.Microsecond
		}
		timer := time.NewTimer(d)
		select {
		case <-timer.C:
			trigger = "timer"
		case <-full:
			timer.Stop()
			trigger = "full"
		case <-ctx.Done():
			timer.Stop()
			trigger = "abort"
		}
	}

	c.mu.Lock()
	batch := c.queue
	c.queue, c.queued = nil, 0
	c.flushing = false
	c.full = nil
	c.mu.Unlock()

	// The flush runs in its own goroutine so a flusher whose ctx is already
	// cancelled (or cancels mid-invocation) abandons its wait like any
	// follower, while the batch completes for the other submitters.
	go c.flush(batch, trigger)
	select {
	case <-item.done:
		return item.result, item.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// flush issues one generation of queued operations and distributes replies.
// The invocation runs under a context detached from every individual caller,
// cancelled only once all batch items' contexts are done — at that point
// nobody is waiting for the replies and the invocation may be abandoned.
//
// Because the flush context carries no trace, the flush records telemetry
// for its participants directly: every traced participant gets an
// "smr.batch" span (how the batch flushed, how many ops it carried, how
// long this op lingered in the queue) and — when the underlying invoker is
// a StatsInvoker — an "smr.invoke" span with the consensus round trip's
// pipeline statistics. Spans are recorded before the reply is published,
// so a participant still waiting sees them on its trace before it finishes.
func (c *Coalescer) flush(batch []*batchItem, trigger string) {
	if len(batch) == 0 {
		return
	}
	// Detached on purpose (the PR 8 review fix): tying the flush to any one
	// caller's ctx cancelled every participant's op when that caller quit.
	//scfslint:ignore ctxdiscipline batch flush must outlive individual callers; cancelled when all participants are done
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

	var ops [][]byte
	for _, it := range batch {
		ops = append(ops, it.ops...)
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
	)
	if traced {
		fstart = time.Now()
	}
	invoke := func(op []byte) ([]byte, error) {
		if traced {
			if si, ok := c.Inv.(StatsInvoker); ok {
				st = &InvokeStats{}
				return si.InvokeWithStats(fctx, op, st)
			}
		}
		return c.Inv.Invoke(fctx, op)
	}
	record := func(err error) {
		if !traced {
			return
		}
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
				Ops:     len(ops),
				Wait:    fstart.Sub(it.enq),
			})
			if st != nil {
				it.trace.Record(telemetry.Span{
					Name:       "smr.invoke",
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

	if len(batch) == 1 {
		// A lone submitter's command — or its own envelope — goes out as
		// it came in.
		batch[0].result, batch[0].err = invoke(batch[0].op)
		record(batch[0].err)
		close(batch[0].done)
		return
	}
	reply, err := invoke(EncodeBatch(ops))
	if err == nil {
		var replies [][]byte
		if replies, err = DecodeBatchReply(reply, len(ops)); err == nil {
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
	if err != nil {
		for _, it := range batch {
			it.err = err
		}
	}
	record(err)
	for _, it := range batch {
		close(it.done)
	}
}
