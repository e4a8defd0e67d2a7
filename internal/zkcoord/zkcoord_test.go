package zkcoord

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"scfs/internal/clock"
	"scfs/internal/smr"
)

var bg = context.Background()

func newLocal(session string) (*Client, *Tree, *clock.Sim) {
	tree := NewTree()
	clk := clock.NewSim(time.Unix(1_000_000, 0))
	c := NewClient(&LocalInvoker{Tree: tree}, session, clk)
	c.SessionTTL = 10 * time.Second
	return c, tree, clk
}

func TestCreateGetSetDelete(t *testing.T) {
	c, _, _ := newLocal("s1")
	p, err := c.Create(bg, "/scfs", []byte("root"))
	if err != nil {
		t.Fatal(err)
	}
	if p != "/scfs" {
		t.Fatalf("created path = %q", p)
	}
	data, st, err := c.Get(bg, "/scfs")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "root" || st.Version != 1 {
		t.Fatalf("data=%q version=%d", data, st.Version)
	}
	st, err = c.Set(bg, "/scfs", []byte("updated"), int64(st.Version))
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != 2 {
		t.Fatalf("version after set = %d, want 2", st.Version)
	}
	if _, err := c.Set(bg, "/scfs", []byte("stale"), 1); !errors.Is(err, ErrVersion) {
		t.Fatalf("stale set err = %v, want ErrVersion", err)
	}
	if _, err := c.Set(bg, "/scfs", []byte("any"), AnyVersion); err != nil {
		t.Fatalf("Set AnyVersion: %v", err)
	}
	if err := c.Delete(bg, "/scfs", AnyVersion); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(bg, "/scfs"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete err = %v, want ErrNotFound", err)
	}
}

func TestCreateRequiresParentAndRejectsDuplicates(t *testing.T) {
	c, _, _ := newLocal("s1")
	if _, err := c.Create(bg, "/a/b", nil); !errors.Is(err, ErrParent) {
		t.Fatalf("err = %v, want ErrParent", err)
	}
	if _, err := c.Create(bg, "/a", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create(bg, "/a", nil); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create err = %v, want ErrExists", err)
	}
	if _, err := c.Create(bg, "/a/b", nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteNonEmptyRejected(t *testing.T) {
	c, _, _ := newLocal("s1")
	if _, err := c.Create(bg, "/dir", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create(bg, "/dir/child", nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(bg, "/dir", AnyVersion); !errors.Is(err, ErrChildren) {
		t.Fatalf("err = %v, want ErrChildren", err)
	}
	if err := c.Delete(bg, "/dir/child", AnyVersion); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(bg, "/dir", AnyVersion); err != nil {
		t.Fatal(err)
	}
}

func TestChildrenListsDirectChildrenOnly(t *testing.T) {
	c, _, _ := newLocal("s1")
	for _, p := range []string{"/locks", "/locks/a", "/locks/b", "/locks/b/inner", "/meta"} {
		if _, err := c.Create(bg, p, nil); err != nil {
			t.Fatalf("create %s: %v", p, err)
		}
	}
	kids, err := c.Children(bg, "/locks")
	if err != nil {
		t.Fatal(err)
	}
	if len(kids) != 2 || kids[0] != "a" || kids[1] != "b" {
		t.Fatalf("children = %v", kids)
	}
	rootKids, err := c.Children(bg, "/")
	if err != nil {
		t.Fatal(err)
	}
	if len(rootKids) != 2 {
		t.Fatalf("root children = %v", rootKids)
	}
	if _, err := c.Children(bg, "/missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestExists(t *testing.T) {
	c, _, _ := newLocal("s1")
	ok, _, err := c.Exists(bg, "/nope")
	if err != nil || ok {
		t.Fatalf("Exists(/nope) = %v, %v", ok, err)
	}
	if _, err := c.Create(bg, "/yes", []byte("data")); err != nil {
		t.Fatal(err)
	}
	ok, st, err := c.Exists(bg, "/yes")
	if err != nil || !ok {
		t.Fatalf("Exists(/yes) = %v, %v", ok, err)
	}
	if st.DataLen != 4 {
		t.Fatalf("stat = %+v", st)
	}
}

func TestSequentialNodes(t *testing.T) {
	c, _, _ := newLocal("s1")
	if _, err := c.Create(bg, "/queue", nil); err != nil {
		t.Fatal(err)
	}
	p1, err := c.CreateSequential(bg, "/queue/item-", nil)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.CreateSequential(bg, "/queue/item-", nil)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatalf("sequential nodes collided: %s", p1)
	}
	if p1 >= p2 {
		t.Fatalf("sequence not increasing: %s >= %s", p1, p2)
	}
}

func TestEphemeralNodesExpireWithoutHeartbeat(t *testing.T) {
	c, _, clk := newLocal("agent-1")
	if _, err := c.Create(bg, "/locks", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateEphemeral(bg, "/locks/file1", []byte("agent-1")); err != nil {
		t.Fatal(err)
	}
	ok, _, _ := c.Exists(bg, "/locks/file1")
	if !ok {
		t.Fatal("ephemeral node missing right after creation")
	}
	// Heartbeats keep it alive.
	clk.Advance(8 * time.Second)
	if n, err := c.Heartbeat(bg); err != nil || n != 1 {
		t.Fatalf("Heartbeat = %d, %v", n, err)
	}
	clk.Advance(8 * time.Second)
	ok, _, _ = c.Exists(bg, "/locks/file1")
	if !ok {
		t.Fatal("node expired despite heartbeat")
	}
	// Without heartbeats it expires (the crashed-client scenario that
	// motivates ephemeral locks in the paper).
	clk.Advance(11 * time.Second)
	ok, _, _ = c.Exists(bg, "/locks/file1")
	if ok {
		t.Fatal("ephemeral node survived session expiry")
	}
	if n, err := c.Clean(bg); err != nil || n != 1 {
		t.Fatalf("Clean = %d, %v", n, err)
	}
}

func TestSnapshotRestore(t *testing.T) {
	c, tree, _ := newLocal("s1")
	for _, p := range []string{"/a", "/a/b", "/c"} {
		if _, err := c.Create(bg, p, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	snap := tree.Snapshot()
	restored := NewTree()
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != tree.Len() {
		t.Fatalf("restored %d nodes, want %d", restored.Len(), tree.Len())
	}
	if err := restored.Restore([]byte("junk")); err == nil {
		t.Fatal("Restore accepted junk")
	}
}

func TestMalformedCommand(t *testing.T) {
	tree := NewTree()
	if res := tree.Execute([]byte("{bad")); len(res) == 0 {
		t.Fatal("no reply for malformed command")
	}
	c, _, _ := newLocal("s1")
	if err := c.Delete(bg, "/", AnyVersion); !errors.Is(err, ErrMalformed) {
		t.Fatalf("delete root err = %v, want ErrMalformed", err)
	}
}

func TestReplicatedZookeeperLikeService(t *testing.T) {
	// The Zookeeper-style deployment of the paper: 2f+1 = 3 replicas
	// tolerating one crash.
	ids := []int{0, 1, 2}
	cfg := smr.Config{ReplicaIDs: ids, Model: smr.CrashFaults}
	net := smr.NewNetwork()
	var replicas []*smr.Replica
	for _, id := range ids {
		r, err := smr.NewReplica(id, cfg, NewTree(), net)
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

	cli := NewClient(smr.NewClient("agent", cfg, net), "agent", clock.Real())
	if _, err := cli.Create(bg, "/scfs", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Create(bg, "/scfs/metadata", []byte("m")); err != nil {
		t.Fatal(err)
	}
	// One follower crashes; the service keeps working.
	net.Disconnect(2)
	data, _, err := cli.Get(bg, "/scfs/metadata")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "m" {
		t.Fatalf("got %q", data)
	}
}

// TestBatchEqualsSingleCommands: a batch is the same commands, in order,
// with nothing in between — result for result what issuing them one at a
// time returns — in one invocation.
func TestBatchEqualsSingleCommands(t *testing.T) {
	script := func() []Command {
		return []Command{
			CmdCreate("/meta", nil),
			CmdSet("/meta/f", []byte("v1"), AnyVersion, 0), // no such node yet
			CmdCreate("/meta/f", []byte("v1")),
			CmdCreate("/meta/f", []byte("again")), // exists
			CmdCreateEphemeral("/meta/lock", []byte("alice"), time.Minute),
			CmdGet("/meta/f"),
			CmdSet("/meta/f", []byte("v2"), 1, 0),
			CmdSet("/meta/f", []byte("v3"), 1, 0), // stale version
			CmdChildren("/meta"),
			CmdDelete("/meta/lock", AnyVersion),
			CmdDelete("/meta/lock", AnyVersion), // already gone
		}
	}
	single, _, _ := newLocal("s1")
	var want []Result
	for _, cmd := range script() {
		res, _ := single.do(bg, cmd)
		want = append(want, res)
	}

	batched, tree, _ := newLocal("s1")
	invocations := 0
	batched.inv = invokerFunc(func(ctx context.Context, cmd []byte) ([]byte, error) {
		invocations++
		return (&LocalInvoker{Tree: tree}).Invoke(ctx, cmd)
	})
	got, err := batched.Batch(bg, script())
	if err != nil {
		t.Fatal(err)
	}
	if invocations != 1 {
		t.Fatalf("batch used %d invocations, want 1", invocations)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("batch results differ from single commands\n got %+v\nwant %+v", got, want)
	}
	for i, wantErr := range map[int]error{1: ErrNotFound, 3: ErrExists, 7: ErrVersion, 10: ErrNotFound} {
		if err := got[i].Failed(); !errors.Is(err, wantErr) {
			t.Errorf("command %d: %v, want %v", i, err, wantErr)
		}
	}
}

type invokerFunc func(ctx context.Context, cmd []byte) ([]byte, error)

func (f invokerFunc) Invoke(ctx context.Context, cmd []byte) ([]byte, error) { return f(ctx, cmd) }
