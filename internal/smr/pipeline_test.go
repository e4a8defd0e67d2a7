package smr

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scfs/internal/codec"
)

// slowApp delays commands carrying a "slow:" prefix, so a test can park one
// invocation at the replicas while later ones complete.
type slowApp struct {
	logApp
	delay time.Duration
}

func (a *slowApp) Execute(cmd []byte) []byte {
	if bytes.HasPrefix(cmd, []byte("slow:")) {
		time.Sleep(a.delay)
	}
	return a.logApp.Execute(cmd)
}

func TestPipelinedInvocationsCompleteConcurrently(t *testing.T) {
	c := newCluster(t, 3, CrashFaults)
	c.net.SetDelay(2 * time.Millisecond)
	cl := c.client("pipe")
	defer cl.Close()

	// 32 concurrent sessions over ONE client. Serialized, 32 round trips at
	// >=6ms each would take ~200ms; pipelined they overlap.
	const sessions = 32
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := cl.Invoke(bg, []byte(fmt.Sprintf("op-%d", i)))
			if err != nil {
				errs <- err
				return
			}
			if !bytes.HasSuffix(res, []byte(fmt.Sprintf("op-%d", i))) {
				errs <- fmt.Errorf("reply %q does not match op-%d", res, i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// The serialized lower bound is sessions * 3 one-way hops * delay.
	serializedFloor := time.Duration(sessions) * 3 * 2 * time.Millisecond
	if elapsed >= serializedFloor {
		t.Fatalf("32 pipelined invocations took %v, not faster than the serialized floor %v", elapsed, serializedFloor)
	}
}

func TestOutOfOrderCompletion(t *testing.T) {
	app0 := &slowApp{delay: 100 * time.Millisecond}
	ids := []int{0, 1, 2}
	cfg := Config{ReplicaIDs: ids, Model: CrashFaults}
	net := NewNetwork()
	for _, id := range ids {
		r, err := NewReplica(id, cfg, &slowApp{delay: app0.delay}, net)
		if err != nil {
			t.Fatal(err)
		}
		r.Start()
		defer r.Stop()
	}
	cl := NewClient("ooo", cfg, net)
	defer cl.Close()

	slowDone := make(chan time.Time, 1)
	go func() {
		if _, err := cl.Invoke(bg, []byte("slow:one")); err != nil {
			t.Errorf("slow invoke: %v", err)
		}
		slowDone <- time.Now()
	}()
	time.Sleep(10 * time.Millisecond) // let the slow command get ordered first

	// A fast command submitted after the slow one must not wait for it...
	// except that replicas execute in order, so what out-of-order completion
	// buys is the *submission* overlapping: the fast command is already
	// ordered and executes immediately after the slow one finishes, instead
	// of its request only being sent once the slow reply returned.
	start := time.Now()
	if _, err := cl.Invoke(bg, []byte("fast")); err != nil {
		t.Fatalf("fast invoke: %v", err)
	}
	fastElapsed := time.Since(start)
	<-slowDone
	// Serialized clients pay slow (100ms) + fast back to back; pipelined,
	// the fast command completes within roughly the slow command's window.
	if fastElapsed > 300*time.Millisecond {
		t.Fatalf("fast invocation took %v behind a slow one; pipelining is not overlapping", fastElapsed)
	}
}

func TestMaxInflightBoundsOutstandingRequests(t *testing.T) {
	c := newCluster(t, 3, CrashFaults)
	cl := c.client("windowed")
	cl.MaxInflight = 2
	defer cl.Close()

	// With a window of 2 and 8 concurrent invocations, everything still
	// completes (the window queues, it does not reject).
	var wg sync.WaitGroup
	var failures atomic.Int64
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := cl.Invoke(bg, []byte(fmt.Sprintf("w-%d", i))); err != nil {
				failures.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d invocations failed under a small in-flight window", failures.Load())
	}
}

func TestPipelinedClientCloseFailsWaiters(t *testing.T) {
	c := newCluster(t, 3, CrashFaults)
	for _, id := range c.cfg.ReplicaIDs {
		c.net.Disconnect(id) // nobody will answer
	}
	cl := c.client("closing")
	cl.RequestTimeout = 10 * time.Second
	started := make(chan struct{})
	errCh := make(chan error, 1)
	go func() {
		close(started)
		_, err := cl.Invoke(bg, []byte("never-answered"))
		errCh <- err
	}()
	<-started
	time.Sleep(20 * time.Millisecond)
	cl.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("Invoke succeeded after Close with no replicas reachable")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Invoke did not return after Close")
	}
}

func TestPipelinedRetransmissionSurvivesMessageLoss(t *testing.T) {
	c := newCluster(t, 3, CrashFaults)
	cl := c.client("retrans")
	cl.RetryInterval = 20 * time.Millisecond
	defer cl.Close()

	// Pound the group with concurrent invocations while the leader flaps:
	// per-request retransmission must recover each one individually.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			c.net.Disconnect(0)
			time.Sleep(5 * time.Millisecond)
			c.net.Reconnect(0)
			time.Sleep(15 * time.Millisecond)
		}
	}()
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := cl.Invoke(bg, []byte(fmt.Sprintf("flap-%d", i))); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	close(errs)
	for err := range errs {
		t.Fatalf("invocation lost under a flapping leader: %v", err)
	}
}

func TestBatchEnvelopeRoundTrip(t *testing.T) {
	ops := [][]byte{[]byte("a"), []byte(``), []byte("c=1")}
	env := EncodeBatch(ops)
	got, err := DecodeBatch(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ops) {
		t.Fatalf("decoded %d ops, want %d", len(got), len(ops))
	}
	for i := range ops {
		if !bytes.Equal(got[i], ops[i]) {
			t.Fatalf("op %d = %q, want %q", i, got[i], ops[i])
		}
	}
	for _, b := range [][]byte{[]byte("plain"), {codec.Version, 0xFF}, nil} {
		if ops, err := DecodeBatch(b); err == nil {
			t.Fatalf("%q decoded as an envelope of %d ops", b, len(ops))
		}
	}
}

func TestBatchApplicationExecutesSubOpsInOrder(t *testing.T) {
	app := &logApp{}
	b := NewBatchApplication(app)
	reply := b.Execute(EncodeBatch([][]byte{[]byte("x"), []byte("y")}))
	replies, err := DecodeBatch(reply)
	if err != nil || len(replies) != 2 {
		t.Fatalf("batch reply = %q (%v)", reply, err)
	}
	if string(replies[0]) != "1:x" || string(replies[1]) != "2:y" {
		t.Fatalf("sub-replies = %q, %q", replies[0], replies[1])
	}
	// A command outside an envelope executes nothing: the reply is an
	// envelope of no replies, which the client rejects.
	if res := b.Execute([]byte("z")); !bytes.Equal(res, EncodeBatch(nil)) || len(app.Log()) != 2 {
		t.Fatalf("plain command through BatchApplication = %q, log %v", res, app.Log())
	}
}

// countingInvoker counts round trips and delegates to an inner function.
type countingInvoker struct {
	n     atomic.Int64
	inner func(ctx context.Context, op []byte) ([]byte, error)
}

func (ci *countingInvoker) Invoke(ctx context.Context, op []byte) ([]byte, error) {
	ci.n.Add(1)
	return ci.inner(ctx, op)
}

func TestReplyWindowDedup(t *testing.T) {
	rec := &clientRecord{}
	rec.record(1, []byte("one"))
	if res, ok := rec.recall(1); !ok || string(res) != "one" {
		t.Fatal("recall of a recorded reply failed")
	}
	if rec.stale(1) {
		t.Fatal("fresh request marked stale")
	}
	// A delayed-but-active request must NOT go stale, no matter how many
	// later requests complete or arrive: only the client's own cumulative
	// ack (LowID) advances the resolution floor.
	lag := &clientRecord{}
	for id := uint64(2); id < 10*pruneStride; id++ {
		lag.record(id, []byte("later"))
		lag.observeLow(1) // request 1 still unresolved at the client
	}
	if lag.stale(1) {
		t.Fatal("in-flight request marked stale by later completions")
	}
	// Once the client acknowledges everything below an ID, earlier requests
	// become stale and (past the prune stride) their replies are reclaimed.
	lag.observeLow(10 * pruneStride)
	if !lag.stale(1) {
		t.Fatal("request below the client's ack floor not marked stale")
	}
	if _, ok := lag.recall(5); ok {
		t.Fatal("reply below the pruned floor still retained")
	}
	if len(lag.results) != 0 {
		t.Fatalf("reply map holds %d entries after full acknowledgement", len(lag.results))
	}
	// A nil record recalls nothing and is never stale.
	var nilRec *clientRecord
	if _, ok := nilRec.recall(5); ok || nilRec.stale(5) {
		t.Fatal("nil clientRecord misbehaves")
	}
}

func TestPipelinedDuplicatesExecuteOnce(t *testing.T) {
	c := newCluster(t, 3, CrashFaults)
	cl := c.client("dup")
	cl.RetryInterval = 5 * time.Millisecond // aggressive retransmission
	defer cl.Close()
	c.net.SetDelay(2 * time.Millisecond) // make retransmits overlap replies

	const ops = 20
	var wg sync.WaitGroup
	for i := 0; i < ops; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := cl.Invoke(bg, []byte(fmt.Sprintf("d-%d", i))); err != nil {
				t.Errorf("invoke %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	waitForAll(t, c, ops)
	time.Sleep(50 * time.Millisecond) // let stray retransmissions drain
	for i, app := range c.apps {
		if n := len(app.Log()); n != ops {
			t.Fatalf("replica %d executed %d commands, want exactly %d", i, n, ops)
		}
	}
}
