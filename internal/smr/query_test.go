package smr

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"
)

// queryCluster starts a four-replica Byzantine group over the given apps.
func queryCluster(t *testing.T, apps ...Application) *cluster {
	t.Helper()
	cfg := Config{ReplicaIDs: []int{0, 1, 2, 3}, Model: ByzantineFaults, LeaderTimeout: 150 * time.Millisecond}
	c := &cluster{cfg: cfg, net: NewNetwork()}
	for id, app := range apps {
		r, err := NewReplica(id, cfg, app, c.net)
		if err != nil {
			t.Fatal(err)
		}
		r.Start()
		c.replicas = append(c.replicas, r)
	}
	t.Cleanup(func() {
		for _, r := range c.replicas {
			r.Stop()
		}
		c.net.Close()
	})
	return c
}

func executed(c *cluster) (n int64) {
	for _, r := range c.replicas {
		n += r.ExecutedCommands()
	}
	return n
}

// traced invokes op under a ReadOnly context with a trace, and returns the
// result and how the trace's smr.invoke span says it was answered.
func traced(t *testing.T, cl *Client, op string) (string, string) {
	t.Helper()
	ctx, tr := testTracer.Start(ReadOnly(bg), "test", "")
	res, err := cl.Invoke(ctx, []byte(op))
	if err != nil {
		t.Fatalf("read-only Invoke(%s): %v", op, err)
	}
	for _, sp := range tr.Spans() {
		if sp.Name == "smr.invoke" {
			return string(res), sp.Target
		}
	}
	t.Fatalf("read-only Invoke(%s) recorded no smr.invoke span", op)
	return "", ""
}

// TestQueryIsAnsweredWithoutOrdering: a read-only invocation is answered by
// the replicas' Query from the state the ordered commands left, and nothing
// executes, whichever replica lies in its replies.
func TestQueryIsAnsweredWithoutOrdering(t *testing.T) {
	apps := []*logApp{{}, {}, {}, {}}
	c := queryCluster(t, apps[0], apps[1], apps[2], apps[3])
	c.replicas[2].SetByzantine(true)
	cl := c.client("reader")
	defer cl.Close()
	for i := 0; i < 3; i++ {
		if _, err := cl.Invoke(bg, []byte(fmt.Sprintf("w%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// The third ordered command returned with three replies; the fourth
	// replica may still be executing it.
	waitForExecuted(t, c, 12)
	res, answer := traced(t, cl, "len")
	if res != "3?len" || answer != AnswerUnordered {
		t.Fatalf("query answered %q (%s), want %q (%s)", res, answer, "3?len", AnswerUnordered)
	}
	if n := executed(c); n != 12 {
		t.Fatalf("the replicas executed %d commands after the query, want 12", n)
	}
	for i, app := range apps {
		if got := len(app.Log()); got != 3 {
			t.Fatalf("replica %d logged %d commands, want 3", i, got)
		}
	}
}

// splitApp is a logApp whose queries some replicas answer differently: one
// that cannot reach n-f identical answers.
type splitApp struct {
	logApp
	tag string
}

func (a *splitApp) Query(cmd []byte) []byte {
	return append(a.logApp.Query(cmd), a.tag...)
}

// TestQueryFallsBackWhenAnswersSplit: two replicas answer one thing and two
// another, so no answer reaches three; the client orders the command at
// once rather than waiting for a timer.
func TestQueryFallsBackWhenAnswersSplit(t *testing.T) {
	c := queryCluster(t, &splitApp{tag: "a"}, &splitApp{tag: "a"}, &splitApp{tag: "b"}, &splitApp{tag: "b"})
	cl := c.client("reader")
	cl.RetryInterval = time.Hour // the fallback must not wait for a retransmission
	defer cl.Close()
	res, answer := traced(t, cl, "len")
	if res != "1:len" || answer != AnswerFallback {
		t.Fatalf("split query answered %q (%s), want the ordered %q (%s)", res, answer, "1:len", AnswerFallback)
	}
}

// TestQueryFallsBackPastASilentReplica: with one replica cut off and the
// other three split two to one, a quorum could still form on paper, if the
// silent replica answered; the query gives up at its first retransmission
// tick and is ordered by the three.
func TestQueryFallsBackPastASilentReplica(t *testing.T) {
	c := queryCluster(t, &splitApp{tag: "a"}, &splitApp{tag: "a"}, &splitApp{tag: "b"}, &splitApp{tag: "a"})
	c.net.Disconnect(3)
	cl := c.client("reader")
	defer cl.Close()
	res, answer := traced(t, cl, "len")
	if res != "1:len" || answer != AnswerFallback {
		t.Fatalf("query answered %q (%s), want the ordered %q (%s)", res, answer, "1:len", AnswerFallback)
	}
}

// register is a one-value application: "w:<v>" stores v, any other command
// and every query read it.
type register struct {
	mu sync.Mutex
	v  string
}

func (a *register) Execute(cmd []byte) []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(cmd) > 2 && string(cmd[:2]) == "w:" {
		a.v = string(cmd[2:])
		return []byte("ok")
	}
	return []byte(a.v)
}

func (a *register) Query([]byte) []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	return []byte(a.v)
}

func (a *register) Snapshot() []byte     { return nil }
func (a *register) Restore([]byte) error { return nil }

// stalePin is the Byzantine replica's hook: it executes like a register but
// answers every query from the value it held when pinned.
type stalePin struct {
	register
	pinned string
}

func (a *stalePin) Query([]byte) []byte { return []byte(a.pinned) }

// TestStaleQuorumRead is the quorum arithmetic of unordered reads. Two
// clients stand for two agents over one group whose replica 1 is
// Byzantine: it answers queries from the state before the write. The
// COMMITs of the write to the correct replicas 2 and 3 are held back, so
// only replica 0 and the Byzantine replica execute it. A read by the second
// client then gets three identical old answers. That is only allowed while
// the write has not returned: a write that returned on two replies (f+1)
// would be lost to the stale quorum. Once the held COMMITs arrive, the
// write returns and the read sees it.
func TestStaleQuorumRead(t *testing.T) {
	ids := []int{0, 1, 2, 3}
	cfg := Config{ReplicaIDs: ids, Model: ByzantineFaults, LeaderTimeout: time.Hour, CheckpointInterval: 1024}
	net := NewNetwork()
	t.Cleanup(net.Close)
	byz := &stalePin{}
	apps := []Application{&register{}, byz, &register{}, &register{}}
	replicas := make([]*Replica, len(ids))
	for _, id := range ids {
		r, err := NewReplica(id, cfg, apps[id], net)
		if err != nil {
			t.Fatal(err)
		}
		replicas[id] = r // driven by hand: no Start
	}
	agent := func(id string) *Client {
		cl := NewClient(id, cfg, net)
		cl.RetryInterval = time.Hour // nothing but the test moves a message
		t.Cleanup(cl.Close)
		return cl
	}
	writer, reader := agent("writer"), agent("reader")

	var held []func()
	holdCommits := func(to int, m message) bool {
		if m.Type == msgCommit && (to == 2 || to == 3) {
			r := replicas[to]
			held = append(held, func() { r.handle(m) })
			return true
		}
		return false
	}
	noHold := func(int, message) bool { return false }
	// pumpUntil delivers the replicas' messages, minus the held ones, until
	// done reports true.
	pumpUntil := func(what string, hold func(int, message) bool, done func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !done() {
			for _, r := range replicas {
				select {
				case m := <-r.inbox:
					if !hold(r.id, m) {
						r.handle(m)
					}
				default:
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("pumping timed out waiting for %s", what)
			}
			runtime.Gosched()
		}
	}
	invoke := func(cl *Client, ctx context.Context, op string) *outcome {
		o := &outcome{out: make(chan string, 1)}
		go func() {
			res, err := cl.Invoke(ctx, []byte(op))
			if err != nil {
				t.Errorf("%s: %v", op, err)
			}
			o.out <- string(res)
		}()
		return o
	}
	executedBy := func(n int64, which ...int) func() bool {
		return func() bool {
			for _, id := range which {
				if replicas[id].ExecutedCommands() < n {
					return false
				}
			}
			return true
		}
	}

	// The old value reaches every replica, and the Byzantine one pins it.
	first := invoke(writer, bg, "w:old")
	pumpUntil("the first write", noHold, first.done)
	pumpUntil("every replica to execute the first write", noHold, executedBy(1, 0, 1, 2, 3))
	byz.pinned = "old"

	// The new value is executed by replica 0 and the Byzantine replica only.
	write := invoke(writer, bg, "w:new")
	pumpUntil("replicas 0 and 1 to execute the write", holdCommits, executedBy(2, 0, 1))
	if replicas[2].ExecutedCommands() != 1 || replicas[3].ExecutedCommands() != 1 {
		t.Fatal("choreography broken: a replica whose COMMITs were held executed the write")
	}
	returned := settled(writer)

	read := invoke(reader, ReadOnly(bg), "r")
	pumpUntil("the read", holdCommits, read.done)
	if returned && read.got != "new" {
		t.Fatalf("the write returned on replies from replica 0 and the Byzantine replica, yet a later read got %q from a stale quorum", read.got)
	}

	for _, deliver := range held {
		deliver()
	}
	pumpUntil("the write to return", noHold, write.done)
	read = invoke(reader, ReadOnly(bg), "r")
	pumpUntil("the second read", noHold, read.done)
	if first.got != "ok" || write.got != "ok" || read.got != "new" {
		t.Fatalf("writes answered %q and %q; a read after both returned got %q", first.got, write.got, read.got)
	}
}

// outcome is an invocation running on its own goroutine.
type outcome struct {
	out chan string
	got string
	ok  bool
}

// done reports whether the invocation returned, its result then in got.
func (o *outcome) done() bool {
	if !o.ok {
		select {
		case o.got = <-o.out:
			o.ok = true
		default:
		}
	}
	return o.ok
}

// settled reports whether every invocation of cl has reached its quorum,
// once cl's receiver has taken in every reply already sent to it: a marker
// reply for no request goes in behind them, and the receiver handles
// replies one at a time, in order.
func settled(cl *Client) bool {
	cl.net.SendToClient(cl.id, Reply{ReqID: math.MaxUint64})
	for len(cl.inbox) > 0 {
		runtime.Gosched()
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return len(cl.pending) == 0
}

// waitForExecuted waits until the replicas executed n commands in all.
func waitForExecuted(t *testing.T, c *cluster, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for executed(c) < n {
		if time.Now().After(deadline) {
			t.Fatalf("the replicas executed %d commands, want %d", executed(c), n)
		}
		runtime.Gosched()
	}
}
