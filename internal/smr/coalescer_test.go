package smr

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"scfs/internal/codec"
	"scfs/internal/telemetry"
)

// The coalescer's tests run on a parking invoker: every invocation the
// coalescer issues announces itself and waits until the test releases it, so
// what is in flight, what queued behind it and what leaves next are set by
// the test, never by a timer, a sleep or the scheduler.

// parkedCall is one invocation held by a parkingInvoker.
type parkedCall struct {
	op      []byte
	release chan struct{}
}

// parkingInvoker parks each invocation until the test closes its release
// channel (or the invocation's context ends), then hands it to inner.
type parkingInvoker struct {
	inner  Invoker
	parked chan *parkedCall
	taken  int
}

func newParkingInvoker(inner Invoker) *parkingInvoker {
	// Buffered past what any test leaves unreceived, so an invocation
	// announces itself without waiting for the test to look.
	return &parkingInvoker{inner: inner, parked: make(chan *parkedCall, 64)}
}

func (p *parkingInvoker) Invoke(ctx context.Context, op []byte) ([]byte, error) {
	call := &parkedCall{op: op, release: make(chan struct{})}
	p.parked <- call
	select {
	case <-call.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return p.inner.Invoke(ctx, op)
}

// next blocks until the coalescer issues its next invocation.
func (p *parkingInvoker) next() *parkedCall {
	p.taken++
	return <-p.parked
}

// invocations is how many invocations were issued so far (test goroutine only).
func (p *parkingInvoker) invocations() int { return p.taken + len(p.parked) }

// appInvoker executes against a BatchApplication in process.
func appInvoker(app Application) Invoker {
	b := NewBatchApplication(app)
	return &countingInvoker{inner: func(_ context.Context, op []byte) ([]byte, error) {
		return b.Execute(op), nil
	}}
}

// waitQueued spins until exactly n operations sit in the coalescer's queue:
// how a test knows a submission it started on another goroutine has queued.
func waitQueued(co *Coalescer, n int) {
	for {
		co.mu.Lock()
		q := co.queued
		co.mu.Unlock()
		if q == n {
			return
		}
		runtime.Gosched()
	}
}

// submission is one Invoke running on its own goroutine under its own trace.
type submission struct {
	reply []byte
	err   error
	trace *telemetry.Trace
	done  chan struct{}
}

var testTracer = telemetry.NewTracer(nil)

// env is the envelope of the given operations.
func env(ops ...string) []byte {
	b := make([][]byte, len(ops))
	for i, op := range ops {
		b[i] = []byte(op)
	}
	return EncodeBatch(b)
}

func submit(ctx context.Context, co *Coalescer, op []byte) *submission {
	ctx, tr := testTracer.Start(ctx, "test", "")
	s := &submission{trace: tr, done: make(chan struct{})}
	go func() {
		s.reply, s.err = co.Invoke(ctx, op)
		close(s.done)
	}()
	return s
}

// answered waits for the submission and checks its reply, the envelope of
// replies, and the smr.batch span its trace got: what made the batch leave
// and how many operations it carried.
func (s *submission) answered(t *testing.T, reply, trigger string, ops int) {
	t.Helper()
	<-s.done
	if s.err != nil || string(s.reply) != string(env(reply)) {
		t.Fatalf("reply = %q, %v; want the envelope of %q", s.reply, s.err, reply)
	}
	for _, sp := range s.trace.Spans() {
		if sp.Name == "smr.batch" {
			if sp.Target != trigger || sp.Ops != ops {
				t.Fatalf("%s left by trigger %q carrying %d ops, want %q carrying %d", reply, sp.Target, sp.Ops, trigger, ops)
			}
			return
		}
	}
	t.Fatalf("%s: no smr.batch span on the submitter's trace", reply)
}

// wantOps checks the operations one invocation's envelope carried, in order.
func wantOps(t *testing.T, call *parkedCall, want ...string) {
	t.Helper()
	got, err := DecodeBatch(call.op)
	if err != nil || len(got) != len(want) {
		t.Fatalf("invocation carried %d ops (%v), want %d", len(got), err, len(want))
	}
	for i := range want {
		if string(got[i]) != want[i] {
			t.Fatalf("sub-operation %d = %q, want %q (submission order, nothing nested)", i, got[i], want[i])
		}
	}
}

// TestCoalescerPacksConcurrentOps: a lone submission leaves at once, as it
// came in; everything submitted while it is in flight leaves as exactly one
// more invocation when it is answered, in submission order, and every
// submitter gets its own reply.
func TestCoalescerPacksConcurrentOps(t *testing.T) {
	park := newParkingInvoker(appInvoker(&logApp{}))
	co := NewCoalescer(park)

	first := submit(bg, co, env("op00"))
	call := park.next()
	wantOps(t, call, "op00")

	const n = 24
	queued, names := make([]*submission, n), make([]string, n)
	for i := range queued {
		names[i] = fmt.Sprintf("op%02d", i+1)
		queued[i] = submit(bg, co, env(names[i]))
		waitQueued(co, i+1)
	}
	if got := park.invocations(); got != 1 {
		t.Fatalf("%d invocations issued while the first was in flight and the queue below %d, want 1", got, maxBatch)
	}
	close(call.release)
	first.answered(t, "1:op00", "immediate", 1)

	call = park.next()
	wantOps(t, call, names...)
	close(call.release)
	for i, s := range queued {
		s.answered(t, fmt.Sprintf("%d:%s", i+2, names[i]), "drain", n)
	}
	if got := park.invocations(); got != 2 {
		t.Fatalf("%d operations used %d invocations, want 2", n+1, got)
	}

	// Idle again: the next lone submission leaves at once, too.
	last := submit(bg, co, env("last"))
	call = park.next()
	wantOps(t, call, "last")
	close(call.release)
	last.answered(t, fmt.Sprintf("%d:last", n+2), "immediate", 1)
}

// TestCoalescerPassesQueriesStraightThrough: a read-only submission needs
// no place in the order, so it neither waits behind the invocation in
// flight nor joins the queue behind it: it reaches the invoker at once,
// alone, while what queued still leaves as the next batch.
func TestCoalescerPassesQueriesStraightThrough(t *testing.T) {
	park := newParkingInvoker(appInvoker(&logApp{}))
	co := NewCoalescer(park)

	first := submit(bg, co, env("w1"))
	inFlight := park.next()
	queued := submit(bg, co, env("w2"))
	waitQueued(co, 1)

	read := submit(ReadOnly(bg), co, env("r"))
	call := park.next() // nothing was released
	wantOps(t, call, "r")
	close(call.release)
	<-read.done
	if read.err != nil || string(read.reply) != string(env("1:r")) {
		t.Fatalf("read-only reply = %q, %v; want the envelope of %q", read.reply, read.err, "1:r")
	}
	for _, sp := range read.trace.Spans() {
		if sp.Name == "smr.batch" {
			t.Fatalf("a read-only submission was batched: %v", read.trace.Describe())
		}
	}
	waitQueued(co, 1)

	close(inFlight.release)
	first.answered(t, "2:w1", "immediate", 1)
	call = park.next()
	wantOps(t, call, "w2")
	close(call.release)
	queued.answered(t, "3:w2", "drain", 1)
}

// TestCoalescerFullQueueLeavesAtOnce: the operation that brings the queue to
// maxBatch starts an invocation although the first is still in flight, and
// the two overlap — the second is answered first.
func TestCoalescerFullQueueLeavesAtOnce(t *testing.T) {
	park := newParkingInvoker(appInvoker(&logApp{}))
	co := NewCoalescer(park)

	first := submit(bg, co, env("first"))
	inFlight := park.next()

	queued, names := make([]*submission, maxBatch), make([]string, maxBatch)
	for i := range queued {
		names[i] = fmt.Sprintf("q%02d", i)
		queued[i] = submit(bg, co, env(names[i]))
		if i < maxBatch-1 {
			waitQueued(co, i+1)
		}
	}
	full := park.next() // nothing was released
	wantOps(t, full, names...)

	close(full.release)
	for i, s := range queued {
		s.answered(t, fmt.Sprintf("%d:%s", i+1, names[i]), "full", maxBatch)
	}
	close(inFlight.release)
	first.answered(t, fmt.Sprintf("%d:first", maxBatch+1), "immediate", 1)
	if got := park.invocations(); got != 2 {
		t.Fatalf("%d invocations, want 2", got)
	}
}

// TestCoalescerFlattensCallerEnvelopes: an envelope of several operations,
// queued between envelopes of one, travels in the coalescer's one flat
// envelope — its sub-operations adjacent and in order, none nested — and
// every submitter gets its own replies back; an envelope is never split,
// however large.
func TestCoalescerFlattensCallerEnvelopes(t *testing.T) {
	park := newParkingInvoker(appInvoker(&logApp{}))
	co := NewCoalescer(park)

	first := submit(bg, co, env("first"))
	call := park.next()
	s1 := submit(bg, co, env("s1"))
	waitQueued(co, 1)
	three := submit(bg, co, env("e.0", "e.1", "e.2"))
	waitQueued(co, 4)
	s2 := submit(bg, co, env("s2"))
	waitQueued(co, 5)
	close(call.release)
	first.answered(t, "1:first", "immediate", 1)

	call = park.next()
	wantOps(t, call, "s1", "e.0", "e.1", "e.2", "s2")
	close(call.release)
	s1.answered(t, "2:s1", "drain", 5)
	<-three.done
	if want := env("3:e.0", "4:e.1", "5:e.2"); three.err != nil || !bytes.Equal(three.reply, want) {
		t.Fatalf("three-op envelope's reply = %q, %v; want %q", three.reply, three.err, want)
	}
	s2.answered(t, "6:s2", "drain", 5)

	// maxBatch+1 operations in one caller envelope: alone it goes out as it
	// came in, byte for byte; queued behind an invocation in flight it fills
	// the queue and leaves at once, still whole.
	big := make([][]byte, maxBatch+1)
	for i := range big {
		big[i] = []byte(fmt.Sprintf("big.%02d", i))
	}
	lone := submit(bg, co, EncodeBatch(big))
	call = park.next()
	if !bytes.Equal(call.op, EncodeBatch(big)) {
		t.Fatal("a lone caller envelope was re-framed on its way out")
	}
	behind := submit(bg, co, EncodeBatch(big))
	whole := park.next()
	if !bytes.Equal(whole.op, EncodeBatch(big)) {
		t.Fatalf("an envelope of %d operations queued behind an invocation did not leave whole", len(big))
	}
	close(call.release)
	close(whole.release)
	for _, s := range []*submission{lone, behind} {
		<-s.done
		if replies, err := DecodeBatchReply(s.reply, len(big)); s.err != nil || err != nil {
			t.Fatalf("large envelope: %v, %v (%d replies)", s.err, err, len(replies))
		}
	}
	if got := park.invocations(); got != 4 {
		t.Fatalf("%d invocations, want 4", got)
	}

	if _, err := co.Invoke(bg, EncodeBatch(nil)); err == nil {
		t.Fatal("empty envelope accepted")
	}
	if _, err := co.Invoke(bg, []byte{codec.Version, 0xFF}); err == nil {
		t.Fatal("malformed envelope accepted")
	}
	if _, err := co.Invoke(bg, []byte("plain")); err == nil {
		t.Fatal("a command outside an envelope accepted")
	}
}

// TestCoalescerFlusherCancellationDoesNotFailBatch pins the flush-context
// fix: an invocation runs under a context detached from any single caller.
// The caller whose submission started it gets context.Canceled when it
// cancels; what queued behind it still leaves and is answered, and one
// participant of that batch cancelling does not fail the other.
func TestCoalescerFlusherCancellationDoesNotFailBatch(t *testing.T) {
	park := newParkingInvoker(appInvoker(echoApp{}))
	co := NewCoalescer(park)

	firstCtx, cancelFirst := context.WithCancel(bg)
	first := submit(firstCtx, co, env("op-first"))
	park.next() // parked, never released
	stays := submit(bg, co, env("op-stays"))
	waitQueued(co, 1)
	quitterCtx, cancelQuitter := context.WithCancel(bg)
	quitter := submit(quitterCtx, co, env("op-quitter"))
	waitQueued(co, 2)

	cancelFirst()
	<-first.done
	if !errors.Is(first.err, context.Canceled) {
		t.Fatalf("cancelled first caller returned %v, want context.Canceled", first.err)
	}
	// Its invocation had no other participant and was abandoned; the queue
	// left behind it.
	call := park.next()
	wantOps(t, call, "op-stays", "op-quitter")
	cancelQuitter()
	<-quitter.done
	if !errors.Is(quitter.err, context.Canceled) {
		t.Fatalf("cancelled participant returned %v, want context.Canceled", quitter.err)
	}
	close(call.release)
	stays.answered(t, "r:op-stays", "drain", 2)
}

// TestCoalescerAgainstReplicatedGroup: 40 concurrent operations against four
// Byzantine replicas, the parking invoker between coalescer and client. One
// is in flight, the 32nd behind it leaves at once, the remaining 7 drain:
// three consensus invocations, every operation answered with its own reply.
func TestCoalescerAgainstReplicatedGroup(t *testing.T) {
	ids := []int{0, 1, 2, 3}
	cfg := Config{ReplicaIDs: ids, Model: ByzantineFaults}
	net := NewNetwork()
	for _, id := range ids {
		r, err := NewReplica(id, cfg, NewBatchApplication(&logApp{}), net)
		if err != nil {
			t.Fatal(err)
		}
		r.Start()
		defer r.Stop()
	}
	cl := NewClient("co", cfg, net)
	defer cl.Close()
	park := newParkingInvoker(cl)
	co := NewCoalescer(park)

	const ops = 40
	subs := make([]*submission, ops)
	subs[0] = submit(bg, co, env("b-00"))
	first := park.next()
	for i := 1; i < ops; i++ {
		subs[i] = submit(bg, co, env(fmt.Sprintf("b-%02d", i)))
	}
	full := park.next()
	waitQueued(co, ops-1-maxBatch)
	close(first.release)
	close(full.release)
	close(park.next().release)
	for i, s := range subs {
		<-s.done
		replies, err := DecodeBatchReply(s.reply, 1)
		if s.err != nil || err != nil || !bytes.HasSuffix(replies[0], []byte(fmt.Sprintf(":b-%02d", i))) {
			t.Fatalf("reply %q, %v, %v mismatched for b-%02d", s.reply, s.err, err, i)
		}
	}
	if got := park.invocations(); got != 3 {
		t.Fatalf("%d operations used %d consensus invocations, want 3", ops, got)
	}
}
