package depspace

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"scfs/internal/clock"
	"scfs/internal/smr"
)

var bg = context.Background()

func newLocalClient(requester string) (*Client, *Space, *clock.Sim) {
	space := NewSpace()
	clk := clock.NewSim(time.Unix(1_000_000, 0))
	return NewClient(&LocalInvoker{Space: space}, requester, clk), space, clk
}

func TestTupleMatching(t *testing.T) {
	cases := []struct {
		tuple, template Tuple
		want            bool
	}{
		{Tuple{"meta", "/a", "x"}, Tuple{"meta", "/a", "x"}, true},
		{Tuple{"meta", "/a", "x"}, Tuple{"meta", "*", "*"}, true},
		{Tuple{"meta", "/a", "x"}, Tuple{"*", "*", "*"}, true},
		{Tuple{"meta", "/a", "x"}, Tuple{"meta", "/b", "*"}, false},
		{Tuple{"meta", "/a"}, Tuple{"meta", "/a", "*"}, false},
		{Tuple{}, Tuple{}, true},
	}
	for _, c := range cases {
		if got := c.tuple.Matches(c.template); got != c.want {
			t.Errorf("%v.Matches(%v) = %v, want %v", c.tuple, c.template, got, c.want)
		}
	}
}

func TestOutAndRdp(t *testing.T) {
	c, _, _ := newLocalClient("alice")
	v, err := c.Out(bg, Tuple{"meta", "/file1", "hash1"}, ACL{})
	if err != nil {
		t.Fatal(err)
	}
	if v == 0 {
		t.Fatal("version must be non-zero")
	}
	e, err := c.Rdp(bg, Tuple{"meta", "/file1", "*"})
	if err != nil {
		t.Fatal(err)
	}
	if e.Tuple[2] != "hash1" {
		t.Fatalf("got %v", e.Tuple)
	}
	if _, err := c.Rdp(bg, Tuple{"meta", "/other", "*"}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestInpRemoves(t *testing.T) {
	c, space, _ := newLocalClient("alice")
	if _, err := c.Out(bg, Tuple{"lock", "/f"}, ACL{}); err != nil {
		t.Fatal(err)
	}
	res, err := c.do(bg, CmdInp(Tuple{"lock", "/f"}))
	if err != nil || res.Entry == nil {
		t.Fatalf("Inp: %v", err)
	}
	if _, err := c.Rdp(bg, Tuple{"lock", "/f"}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("tuple still present after Inp: %v", err)
	}
	if space.Len() != 0 {
		t.Fatalf("space should be empty, has %d", space.Len())
	}
}

func TestRdAllFiltersAndSorts(t *testing.T) {
	c, _, _ := newLocalClient("alice")
	for _, name := range []string{"/b", "/a", "/c"} {
		if _, err := c.Out(bg, Tuple{"meta", name, "h"}, ACL{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Out(bg, Tuple{"lock", "/a"}, ACL{}); err != nil {
		t.Fatal(err)
	}
	entries, err := c.RdAll(bg, Tuple{"meta", "*", "*"})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("got %d entries, want 3", len(entries))
	}
	if entries[0].Tuple[1] != "/a" || entries[2].Tuple[1] != "/c" {
		t.Fatalf("entries not sorted: %v", entries)
	}
}

func TestReplaceSubstitutesAtomically(t *testing.T) {
	c, space, _ := newLocalClient("alice")
	if _, err := c.Out(bg, Tuple{"meta", "/f", "v1"}, ACL{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.do(bg, CmdReplace(Tuple{"meta", "/f", "*"}, Tuple{"meta", "/f", "v2"}, ACL{})); err != nil {
		t.Fatal(err)
	}
	e, err := c.Rdp(bg, Tuple{"meta", "/f", "*"})
	if err != nil {
		t.Fatal(err)
	}
	if e.Tuple[2] != "v2" {
		t.Fatalf("got %v, want v2", e.Tuple)
	}
	if space.Len() != 1 {
		t.Fatalf("replace left %d tuples, want 1", space.Len())
	}
	// Replace with no existing match behaves like out.
	if _, err := c.do(bg, CmdReplace(Tuple{"meta", "/new", "*"}, Tuple{"meta", "/new", "v1"}, ACL{})); err != nil {
		t.Fatal(err)
	}
	if space.Len() != 2 {
		t.Fatalf("expected 2 tuples, got %d", space.Len())
	}
}

func TestCasCreateIfAbsentAndVersionCheck(t *testing.T) {
	c, _, _ := newLocalClient("alice")
	// Create if absent.
	v1, _, err := c.Cas(bg, Tuple{"pns", "alice", "*"}, Tuple{"pns", "alice", "ref1"}, 0, ACL{Owner: "alice"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Second create must conflict and return the existing entry.
	_, existing, err := c.Cas(bg, Tuple{"pns", "alice", "*"}, Tuple{"pns", "alice", "ref2"}, 0, ACL{Owner: "alice"}, 0)
	if !errors.Is(err, ErrExists) {
		t.Fatalf("err = %v, want ErrExists", err)
	}
	if existing == nil || existing.Tuple[2] != "ref1" {
		t.Fatalf("conflicting entry = %+v", existing)
	}
	// Versioned swap with the right version succeeds.
	v2, _, err := c.Cas(bg, Tuple{"pns", "alice", "*"}, Tuple{"pns", "alice", "ref3"}, v1, ACL{Owner: "alice"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v2 <= v1 {
		t.Fatalf("new version %d not greater than %d", v2, v1)
	}
	// Swap with a stale version fails.
	if _, _, err := c.Cas(bg, Tuple{"pns", "alice", "*"}, Tuple{"pns", "alice", "ref4"}, v1, ACL{Owner: "alice"}, 0); !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}

func TestEphemeralTuplesExpire(t *testing.T) {
	c, _, clk := newLocalClient("alice")
	lock := Command{Op: opOut, Tuple: Tuple{"lock", "/f", "alice"}, TTLNanos: int64(10 * time.Second)}
	if _, err := c.do(bg, lock); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Rdp(bg, Tuple{"lock", "/f", "*"}); err != nil {
		t.Fatalf("lock should be visible before expiry: %v", err)
	}
	clk.Advance(11 * time.Second)
	if _, err := c.Rdp(bg, Tuple{"lock", "/f", "*"}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expired lock still visible: %v", err)
	}
	// Clean removes the expired entry physically.
	res, err := c.do(bg, Command{Op: opClean})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 1 {
		t.Fatalf("Clean removed %d, want 1", res.Count)
	}
}

func TestACLEnforcement(t *testing.T) {
	alice, space, clk := newLocalClient("alice")
	bob := NewClient(&LocalInvoker{Space: space}, "bob", clk)

	if _, err := alice.Out(bg, Tuple{"meta", "/private", "h"}, ACL{Owner: "alice"}); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Rdp(bg, Tuple{"meta", "/private", "*"}); !errors.Is(err, ErrDenied) {
		t.Fatalf("bob read err = %v, want ErrDenied", err)
	}
	if _, err := bob.do(bg, CmdInp(Tuple{"meta", "/private", "*"})); !errors.Is(err, ErrDenied) {
		t.Fatalf("bob take err = %v, want ErrDenied", err)
	}
	// Shared with read permission.
	if _, err := alice.do(bg, CmdReplace(Tuple{"meta", "/private", "*"}, Tuple{"meta", "/private", "h2"},
		ACL{Owner: "alice", Readers: []string{"bob"}})); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Rdp(bg, Tuple{"meta", "/private", "*"}); err != nil {
		t.Fatalf("bob should read shared tuple: %v", err)
	}
	if _, err := bob.do(bg, CmdReplace(Tuple{"meta", "/private", "*"}, Tuple{"meta", "/private", "bobs"}, ACL{Owner: "bob"})); !errors.Is(err, ErrDenied) {
		t.Fatalf("bob write err = %v, want ErrDenied", err)
	}
	// Writers may both read and write.
	if _, err := alice.do(bg, CmdReplace(Tuple{"meta", "/private", "*"}, Tuple{"meta", "/private", "h3"},
		ACL{Owner: "alice", Writers: []string{"bob"}})); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.do(bg, CmdReplace(Tuple{"meta", "/private", "*"}, Tuple{"meta", "/private", "h4"},
		ACL{Owner: "alice", Writers: []string{"bob"}})); err != nil {
		t.Fatalf("bob write as writer: %v", err)
	}
	// RdAll must silently hide unreadable tuples.
	if _, err := alice.Out(bg, Tuple{"meta", "/alice-only", "h"}, ACL{Owner: "alice"}); err != nil {
		t.Fatal(err)
	}
	entries, err := bob.RdAll(bg, Tuple{"meta", "*", "*"})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Tuple[1] == "/alice-only" {
			t.Fatal("RdAll leaked an unreadable tuple")
		}
	}
}

func TestRenameTrigger(t *testing.T) {
	c, _, _ := newLocalClient("alice")
	paths := []string{"/dir/a", "/dir/b", "/dir/sub/c", "/other/d", "/dirx"}
	for _, p := range paths {
		if _, err := c.Out(bg, Tuple{"meta", p, "h"}, ACL{Owner: "alice"}); err != nil {
			t.Fatal(err)
		}
	}
	n, err := c.Rename(bg, 1, "/dir", "/renamed")
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("renamed %d tuples, want 3", n)
	}
	for _, want := range []string{"/renamed/a", "/renamed/b", "/renamed/sub/c", "/other/d", "/dirx"} {
		if _, err := c.Rdp(bg, Tuple{"meta", want, "*"}); err != nil {
			t.Errorf("missing tuple for %s after rename: %v", want, err)
		}
	}
}

func TestMalformedCommandsRejected(t *testing.T) {
	space := NewSpace()
	res := space.Execute([]byte("not json"))
	if string(res) == "" {
		t.Fatal("empty reply for malformed command")
	}
	c, _, _ := newLocalClient("alice")
	if _, err := c.Out(bg, nil, ACL{}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("empty tuple err = %v, want ErrMalformed", err)
	}
	if _, err := c.Rename(bg, 0, "", "/x"); !errors.Is(err, ErrMalformed) {
		t.Fatalf("rename without prefix err = %v, want ErrMalformed", err)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	c, space, _ := newLocalClient("alice")
	for i := 0; i < 5; i++ {
		if _, err := c.Out(bg, Tuple{"meta", string(rune('a' + i)), "h"}, ACL{Owner: "alice"}); err != nil {
			t.Fatal(err)
		}
	}
	snap := space.Snapshot()
	restored := NewSpace()
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 5 {
		t.Fatalf("restored %d tuples, want 5", restored.Len())
	}
	// Version counter must continue past restored versions.
	rc := NewClient(&LocalInvoker{Space: restored}, "alice", clock.Real())
	v, err := rc.Out(bg, Tuple{"meta", "new", "h"}, ACL{})
	if err != nil {
		t.Fatal(err)
	}
	if v < 6 {
		t.Fatalf("version after restore = %d, want >= 6", v)
	}
	if err := restored.Restore([]byte("garbage")); err == nil {
		t.Fatal("Restore accepted garbage")
	}
}

func TestReplicatedTupleSpace(t *testing.T) {
	// DepSpace over the BFT replication engine: 4 replicas, one Byzantine.
	ids := []int{0, 1, 2, 3}
	cfg := smr.Config{ReplicaIDs: ids, Model: smr.ByzantineFaults}
	net := smr.NewNetwork()
	var replicas []*smr.Replica
	for _, id := range ids {
		r, err := smr.NewReplica(id, cfg, smr.NewBatchApplication(NewSpace()), net)
		if err != nil {
			t.Fatal(err)
		}
		r.Start()
		replicas = append(replicas, r)
	}
	defer func() {
		for _, r := range replicas {
			r.Stop()
		}
	}()
	replicas[3].SetByzantine(true)

	cli := NewClient(smr.NewClient("scfs-agent-1", cfg, net), "alice", clock.Real())
	if _, err := cli.Out(bg, Tuple{"meta", "/f", "hash"}, ACL{Owner: "alice"}); err != nil {
		t.Fatal(err)
	}
	e, err := cli.Rdp(bg, Tuple{"meta", "/f", "*"})
	if err != nil {
		t.Fatal(err)
	}
	if e.Tuple[2] != "hash" {
		t.Fatalf("replicated rdp returned %v", e.Tuple)
	}
	// Conditional write through the replicated path.
	if _, _, err := cli.Cas(bg, Tuple{"lock", "/f", "*"}, Tuple{"lock", "/f", "alice"}, 0, ACL{Owner: "alice"}, time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cli.Cas(bg, Tuple{"lock", "/f", "*"}, Tuple{"lock", "/f", "alice"}, 0, ACL{Owner: "alice"}, time.Minute); !errors.Is(err, ErrExists) {
		t.Fatalf("second lock acquisition err = %v, want ErrExists", err)
	}
}

// batchScript is a sequence with successes, failures and a conditional
// command whose outcome depends on the ones before it.
func batchScript() []Command {
	lock, held := Tuple{"lock", "/f", "*"}, Tuple{"lock", "/f", "alice"}
	meta := func(v string) Tuple { return Tuple{"meta", "/f", v} }
	return []Command{
		CmdCas(lock, held, 0, ACL{}, time.Minute),
		CmdRdp(meta("*")), // no match yet
		CmdReplace(meta("*"), meta("v1"), ACL{Owner: "alice"}),
		CmdRdp(meta("*")),
		CmdCas(lock, held, 0, ACL{}, time.Minute), // already held
		CmdReplace(meta("*"), meta("v2"), ACL{Owner: "alice"}),
		CmdInp(held),
		CmdRdAll(Tuple{"*", "*", "*"}),
		CmdInp(held), // already released
	}
}

// TestBatchEqualsSingleCommands: a batch is the same commands, in order,
// with nothing in between — result for result what issuing them one at a
// time returns — in one invocation.
func TestBatchEqualsSingleCommands(t *testing.T) {
	single, _, _ := newLocalClient("alice")
	var want []Result
	for _, cmd := range batchScript() {
		res, _ := single.do(bg, cmd)
		want = append(want, res)
	}

	space := NewSpace()
	invocations := 0
	inv := invokerFunc(func(ctx context.Context, cmd []byte) ([]byte, error) {
		invocations++
		return (&LocalInvoker{Space: space}).Invoke(ctx, cmd)
	})
	batched := NewClient(inv, "alice", clock.NewSim(time.Unix(1_000_000, 0)))
	got, err := batched.Batch(bg, batchScript())
	if err != nil {
		t.Fatal(err)
	}
	if invocations != 1 {
		t.Fatalf("batch used %d invocations, want 1", invocations)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("batch results differ from single commands\n got %+v\nwant %+v", got, want)
	}
	if err := got[4].Failed(); !errors.Is(err, ErrExists) {
		t.Fatalf("second lock in the batch: %v, want ErrExists", err)
	}
	if err := got[8].Failed(); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second unlock in the batch: %v, want ErrNotFound", err)
	}
}

type invokerFunc func(ctx context.Context, cmd []byte) ([]byte, error)

func (f invokerFunc) Invoke(ctx context.Context, cmd []byte) ([]byte, error) { return f(ctx, cmd) }

// TestBatchThroughReplicatedCoalescer sends a client-built batch down the
// deployed path, a Group: a coalescer over a pipelined client over four
// replicas running BatchApplication, concurrently with single commands.
func TestBatchThroughReplicatedCoalescer(t *testing.T) {
	g, err := NewGroup("agent-1")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	cli := NewClient(g.Invoker, "alice", clock.Real())

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("/f%d", i)
			if i%2 == 0 {
				if _, err := cli.Out(bg, Tuple{"meta", key, "single"}, ACL{}); err != nil {
					t.Errorf("single %d: %v", i, err)
				}
				return
			}
			res, err := cli.Batch(bg, []Command{
				CmdCas(Tuple{"lock", key, "*"}, Tuple{"lock", key, "alice"}, 0, ACL{}, time.Minute),
				CmdReplace(Tuple{"meta", key, "*"}, Tuple{"meta", key, "batched"}, ACL{}),
				CmdRdp(Tuple{"meta", key, "*"}),
				CmdInp(Tuple{"lock", key, "alice"}),
			})
			if err != nil {
				t.Errorf("batch %d: %v", i, err)
				return
			}
			for j, r := range res {
				if err := r.Failed(); err != nil {
					t.Errorf("batch %d command %d: %v", i, j, err)
				}
			}
			if e := res[2].Entry; e == nil || e.Tuple[2] != "batched" {
				t.Errorf("batch %d read %+v behind its own write", i, e)
			}
		}(i)
	}
	wg.Wait()
}

// TestGroupReadsAreQueries: through the deployed path, a Group with one
// replica lying in every reply, reads and batches of reads are answered by
// the replicas without executing anything, and see what the writes before
// them left; a batch with one write among its reads is ordered.
func TestGroupReadsAreQueries(t *testing.T) {
	g, err := NewGroup("agent-1")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	g.Replicas[3].SetByzantine(true)
	cli := NewClient(g.Invoker, "alice", clock.Real())
	executed := func() (n int64) {
		for _, r := range g.Replicas {
			n += r.ExecutedCommands()
		}
		return n
	}
	for _, key := range []string{"/a", "/b"} {
		if _, err := cli.Out(bg, Tuple{"meta", key, "v1"}, ACL{Owner: "alice"}); err != nil {
			t.Fatal(err)
		}
	}
	// Each write returned on three replicas; let the fourth catch up, so
	// every count below is exact.
	deadline := time.Now().Add(5 * time.Second)
	for executed() < 8 {
		if time.Now().After(deadline) {
			t.Fatalf("the replicas executed %d commands, want 8", executed())
		}
		runtime.Gosched()
	}

	if e, err := cli.Rdp(bg, Tuple{"meta", "/a", "*"}); err != nil || e.Tuple[2] != "v1" {
		t.Fatalf("rdp: %v, %v", e, err)
	}
	if all, err := cli.RdAll(bg, Tuple{"meta", "*", "*"}); err != nil || len(all) != 2 {
		t.Fatalf("rdall: %v, %v", all, err)
	}
	res, err := cli.Batch(bg, []Command{CmdRdp(Tuple{"meta", "/b", "*"}), CmdRdAll(Tuple{"meta", "*", "*"})})
	if err != nil || res[0].Entry == nil || res[0].Entry.Tuple[1] != "/b" || res[1].Count != 2 {
		t.Fatalf("batch of reads: %+v, %v", res, err)
	}
	if n := executed(); n != 8 {
		t.Fatalf("the reads executed %d commands at the replicas, want none", n-8)
	}

	res, err = cli.Batch(bg, []Command{CmdRdp(Tuple{"meta", "/b", "*"}), CmdInp(Tuple{"meta", "/b", "*"})})
	if err != nil || res[1].Failed() != nil {
		t.Fatalf("batch with a write: %+v, %v", res, err)
	}
	if _, err := cli.Rdp(bg, Tuple{"meta", "/b", "*"}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("rdp after the batch removed /b: %v, want ErrNotFound", err)
	}
}
