package smr

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

// logApp is a deterministic test application: it appends every command to a
// log and returns "<index>:<command>".
type logApp struct {
	mu  sync.Mutex
	log []string
}

var bg = context.Background()

func (a *logApp) Execute(cmd []byte) []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.log = append(a.log, string(cmd))
	return []byte(fmt.Sprintf("%d:%s", len(a.log), cmd))
}

// Query answers with the length of the log so far, and appends nothing.
func (a *logApp) Query(cmd []byte) []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	return []byte(fmt.Sprintf("%d?%s", len(a.log), cmd))
}

func (a *logApp) Snapshot() []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	b, _ := json.Marshal(a.log)
	return b
}

func (a *logApp) Restore(snapshot []byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return json.Unmarshal(snapshot, &a.log)
}

func (a *logApp) Log() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]string(nil), a.log...)
}

type cluster struct {
	cfg      Config
	net      *Network
	replicas []*Replica
	apps     []*logApp
}

func newCluster(t *testing.T, n int, model FaultModel) *cluster {
	t.Helper()
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	cfg := Config{ReplicaIDs: ids, Model: model, LeaderTimeout: 150 * time.Millisecond, CheckpointInterval: 16}
	net := NewNetwork()
	c := &cluster{cfg: cfg, net: net}
	for _, id := range ids {
		app := &logApp{}
		r, err := NewReplica(id, cfg, app, net)
		if err != nil {
			t.Fatalf("NewReplica(%d): %v", id, err)
		}
		c.replicas = append(c.replicas, r)
		c.apps = append(c.apps, app)
		r.Start()
	}
	t.Cleanup(func() {
		for _, r := range c.replicas {
			r.Stop()
		}
		net.Close()
	})
	return c
}

func (c *cluster) client(id string) *Client {
	cl := NewClient(id, c.cfg, c.net)
	cl.RequestTimeout = 5 * time.Second
	cl.RetryInterval = 50 * time.Millisecond
	return cl
}

func TestConfigValidation(t *testing.T) {
	if err := (Config{ReplicaIDs: []int{0, 1, 2}, Model: CrashFaults}).Validate(); err != nil {
		t.Errorf("3-replica crash config rejected: %v", err)
	}
	if err := (Config{ReplicaIDs: []int{0, 1, 2}, Model: ByzantineFaults}).Validate(); err == nil {
		t.Error("3-replica byzantine config accepted, want error")
	}
	if err := (Config{Model: CrashFaults}).Validate(); err == nil {
		t.Error("empty config accepted, want error")
	}
	if _, err := NewReplica(9, Config{ReplicaIDs: []int{0, 1, 2}, Model: CrashFaults}, &logApp{}, NewNetwork()); err == nil {
		t.Error("replica not in configuration accepted, want error")
	}
}

func TestQuorumSizes(t *testing.T) {
	cases := []struct {
		model  FaultModel
		n      int
		quorum int
		faults int
	}{
		{CrashFaults, 3, 2, 1},
		{CrashFaults, 5, 3, 2},
		{ByzantineFaults, 4, 3, 1},
		{ByzantineFaults, 7, 5, 2},
	}
	for _, c := range cases {
		if got := c.model.QuorumSize(c.n); got != c.quorum {
			t.Errorf("%v QuorumSize(%d) = %d, want %d", c.model, c.n, got, c.quorum)
		}
		if got := c.model.MaxFaults(c.n); got != c.faults {
			t.Errorf("%v MaxFaults(%d) = %d, want %d", c.model, c.n, got, c.faults)
		}
	}
}

func TestFaultModelString(t *testing.T) {
	if CrashFaults.String() != "crash" || ByzantineFaults.String() != "byzantine" {
		t.Fatal("unexpected FaultModel string values")
	}
}

func TestCrashModeBasicOrdering(t *testing.T) {
	c := newCluster(t, 3, CrashFaults)
	cl := c.client("client-1")
	defer cl.Close()
	for i := 0; i < 10; i++ {
		cmd := fmt.Sprintf("cmd-%d", i)
		res, err := cl.Invoke(bg, []byte(cmd))
		if err != nil {
			t.Fatalf("Invoke(%s): %v", cmd, err)
		}
		want := fmt.Sprintf("%d:%s", i+1, cmd)
		if string(res) != want {
			t.Fatalf("result = %q, want %q", res, want)
		}
	}
	waitForConvergence(t, c, 10)
}

func TestByzantineModeBasicOrdering(t *testing.T) {
	c := newCluster(t, 4, ByzantineFaults)
	cl := c.client("client-1")
	defer cl.Close()
	for i := 0; i < 5; i++ {
		res, err := cl.Invoke(bg, []byte(fmt.Sprintf("op%d", i)))
		if err != nil {
			t.Fatalf("Invoke: %v", err)
		}
		if string(res) != fmt.Sprintf("%d:op%d", i+1, i) {
			t.Fatalf("unexpected result %q", res)
		}
	}
	waitForConvergence(t, c, 5)
}

func TestByzantineReplicaRepliesAreOutvoted(t *testing.T) {
	c := newCluster(t, 4, ByzantineFaults)
	// Replica 2 lies in its replies; with f=1 the client needs 3 matching
	// replies, which the 3 correct replicas provide.
	c.replicas[2].SetByzantine(true)
	cl := c.client("client-1")
	defer cl.Close()
	res, err := cl.Invoke(bg, []byte("important"))
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if string(res) != "1:important" {
		t.Fatalf("client accepted a corrupted result: %q", res)
	}
}

func TestCrashOfFollowerDoesNotBlockProgress(t *testing.T) {
	c := newCluster(t, 3, CrashFaults)
	cl := c.client("client-1")
	defer cl.Close()
	if _, err := cl.Invoke(bg, []byte("before")); err != nil {
		t.Fatal(err)
	}
	// Disconnect a follower (replica 1; leader of view 0 is replica 0).
	c.net.Disconnect(1)
	for i := 0; i < 5; i++ {
		if _, err := cl.Invoke(bg, []byte(fmt.Sprintf("after-%d", i))); err != nil {
			t.Fatalf("Invoke with one follower down: %v", err)
		}
	}
}

func TestLeaderFailureTriggersViewChange(t *testing.T) {
	c := newCluster(t, 3, CrashFaults)
	cl := c.client("client-1")
	defer cl.Close()
	if _, err := cl.Invoke(bg, []byte("warmup")); err != nil {
		t.Fatal(err)
	}
	// Kill the leader of view 0 (replica 0).
	c.net.Disconnect(0)
	start := time.Now()
	res, err := cl.Invoke(bg, []byte("after-leader-crash"))
	if err != nil {
		t.Fatalf("Invoke after leader crash: %v (took %v)", err, time.Since(start))
	}
	if string(res) != "2:after-leader-crash" {
		t.Fatalf("unexpected result %q", res)
	}
	// The surviving replicas must have moved past view 0.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if c.replicas[1].CurrentView() > 0 && c.replicas[2].CurrentView() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("view change not observed: views = %d, %d",
				c.replicas[1].CurrentView(), c.replicas[2].CurrentView())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestByzantineLeaderCrashViewChange(t *testing.T) {
	c := newCluster(t, 4, ByzantineFaults)
	cl := c.client("client-1")
	defer cl.Close()
	if _, err := cl.Invoke(bg, []byte("warmup")); err != nil {
		t.Fatal(err)
	}
	c.net.Disconnect(0)
	if _, err := cl.Invoke(bg, []byte("post-crash")); err != nil {
		t.Fatalf("Invoke after BFT leader crash: %v", err)
	}
}

func TestDuplicateRequestsExecuteOnce(t *testing.T) {
	c := newCluster(t, 3, CrashFaults)
	cl := c.client("client-1")
	cl.RetryInterval = 10 * time.Millisecond // force aggressive retransmission
	defer cl.Close()
	for i := 0; i < 5; i++ {
		if _, err := cl.Invoke(bg, []byte(fmt.Sprintf("x%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// All replicas are connected, so they must all converge to exactly 5
	// executions — no more (duplicates suppressed), no fewer.
	deadline := time.Now().Add(5 * time.Second)
	for {
		all := true
		for _, r := range c.replicas {
			if r.ExecutedCommands() < 5 {
				all = false
			}
		}
		if all || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i, app := range c.apps {
		if len(app.Log()) != 5 {
			t.Fatalf("replica %d executed %d commands, want exactly 5 (duplicates not suppressed)", i, len(app.Log()))
		}
	}
}

func TestConcurrentClientsConvergeToSameOrder(t *testing.T) {
	c := newCluster(t, 3, CrashFaults)
	const clients = 4
	const perClient = 10
	var wg sync.WaitGroup
	wg.Add(clients)
	for ci := 0; ci < clients; ci++ {
		go func(ci int) {
			defer wg.Done()
			cl := c.client(fmt.Sprintf("client-%d", ci))
			defer cl.Close()
			for i := 0; i < perClient; i++ {
				if _, err := cl.Invoke(bg, []byte(fmt.Sprintf("c%d-op%d", ci, i))); err != nil {
					t.Errorf("client %d invoke %d: %v", ci, i, err)
					return
				}
			}
		}(ci)
	}
	wg.Wait()
	waitForAll(t, c, clients*perClient)
	// All replicas must have identical logs (total order).
	ref := c.apps[0].Log()
	for i := 1; i < len(c.apps); i++ {
		log := c.apps[i].Log()
		if len(log) != len(ref) {
			t.Fatalf("replica %d log length %d != %d", i, len(log), len(ref))
		}
		for j := range ref {
			if log[j] != ref[j] {
				t.Fatalf("replica %d diverges at %d: %q vs %q", i, j, log[j], ref[j])
			}
		}
	}
}

func TestClientTimeoutWhenGroupUnreachable(t *testing.T) {
	c := newCluster(t, 3, CrashFaults)
	for _, id := range c.cfg.ReplicaIDs {
		c.net.Disconnect(id)
	}
	cl := c.client("client-1")
	cl.RequestTimeout = 300 * time.Millisecond
	defer cl.Close()
	if _, err := cl.Invoke(bg, []byte("nobody-home")); err == nil {
		t.Fatal("Invoke succeeded with all replicas disconnected")
	}
}

func TestClientClosedRejectsInvoke(t *testing.T) {
	c := newCluster(t, 3, CrashFaults)
	cl := c.client("client-1")
	cl.Close()
	if _, err := cl.Invoke(bg, []byte("x")); err == nil {
		t.Fatal("Invoke on closed client succeeded")
	}
}

func TestNetworkDelayStillMakesProgress(t *testing.T) {
	c := newCluster(t, 3, CrashFaults)
	c.net.SetDelay(5 * time.Millisecond)
	cl := c.client("client-1")
	defer cl.Close()
	if _, err := cl.Invoke(bg, []byte("delayed")); err != nil {
		t.Fatalf("Invoke with network delay: %v", err)
	}
}

func TestEqualResultsHelper(t *testing.T) {
	if !equalResults([]byte("a"), []byte("a")) || equalResults([]byte("a"), []byte("b")) {
		t.Fatal("equalResults misbehaves")
	}
}

// waitForConvergence waits until a quorum of replicas have executed at least
// n commands. Disconnected replicas cannot converge so we only require a
// majority.
func waitForConvergence(t *testing.T, c *cluster, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		converged := 0
		for _, r := range c.replicas {
			if int(r.ExecutedCommands()) >= n {
				converged++
			}
		}
		if converged >= c.cfg.Model.QuorumSize(c.cfg.N()) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas did not converge to %d executed commands", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitForAll waits until every replica has executed at least n commands.
// Only use it when all replicas are connected.
func waitForAll(t *testing.T, c *cluster, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		all := true
		for _, r := range c.replicas {
			if int(r.ExecutedCommands()) < n {
				all = false
				break
			}
		}
		if all {
			return
		}
		if time.Now().After(deadline) {
			counts := make([]int64, len(c.replicas))
			for i, r := range c.replicas {
				counts[i] = r.ExecutedCommands()
			}
			t.Fatalf("replicas did not all reach %d executed commands: %v", n, counts)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func BenchmarkCrashInvoke(b *testing.B) {
	ids := []int{0, 1, 2}
	cfg := Config{ReplicaIDs: ids, Model: CrashFaults}
	net := NewNetwork()
	for _, id := range ids {
		r, err := NewReplica(id, cfg, &logApp{}, net)
		if err != nil {
			b.Fatal(err)
		}
		r.Start()
		defer r.Stop()
	}
	cl := NewClient("bench", cfg, net)
	defer cl.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Invoke(bg, []byte("op")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkByzantineInvoke(b *testing.B) {
	ids := []int{0, 1, 2, 3}
	cfg := Config{ReplicaIDs: ids, Model: ByzantineFaults}
	net := NewNetwork()
	for _, id := range ids {
		r, err := NewReplica(id, cfg, &logApp{}, net)
		if err != nil {
			b.Fatal(err)
		}
		r.Start()
		defer r.Stop()
	}
	cl := NewClient("bench", cfg, net)
	defer cl.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Invoke(bg, []byte("op")); err != nil {
			b.Fatal(err)
		}
	}
}
