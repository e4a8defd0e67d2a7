package smr

import (
	"testing"
	"time"

	"scfs/internal/codec"
	"scfs/internal/seccrypto"
)

// The tests in this file pin down protocol-safety fixes. They drive replicas
// manually — NewReplica without Start — so the exact message interleavings
// that trigger the bugs can be reproduced deterministically: handle() runs
// protocol steps synchronously, drain() delivers a replica's queued messages,
// and pumpAll() runs the network to quiescence.

// manualCluster builds a replica group whose event loops are NOT started;
// every message is delivered by the test via drain/pumpAll.
func manualCluster(t *testing.T, n int, model FaultModel) ([]*Replica, []*logApp, *Network) {
	t.Helper()
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	cfg := Config{ReplicaIDs: ids, Model: model, LeaderTimeout: time.Hour, CheckpointInterval: 1024}
	net := NewNetwork()
	replicas := make([]*Replica, n)
	apps := make([]*logApp, n)
	for _, id := range ids {
		apps[id] = &logApp{}
		r, err := NewReplica(id, cfg, apps[id], net)
		if err != nil {
			t.Fatalf("NewReplica(%d): %v", id, err)
		}
		replicas[id] = r
	}
	t.Cleanup(net.Close)
	return replicas, apps, net
}

// drain synchronously processes every message queued for r.
func drain(r *Replica) {
	for {
		select {
		case m := <-r.inbox:
			r.handle(m)
		default:
			return
		}
	}
}

// pumpAll delivers queued messages round-robin until the network is quiescent.
func pumpAll(replicas []*Replica) {
	for {
		idle := true
		for _, r := range replicas {
			select {
			case m := <-r.inbox:
				r.handle(m)
				idle = false
			default:
			}
		}
		if idle {
			return
		}
	}
}

func clientRequest(client string, id uint64, op string) message {
	return message{Type: msgRequest, From: -1, FromCli: client,
		Req: request{ClientID: client, ReqID: id, LowID: 1, Op: []byte(op)}}
}

// TestNewViewPreservesPreparedAssignments reproduces the view-change safety
// bug: request X commits and executes at sequence 1 on one replica, then a
// view change elects a leader holding another pending request Y. A leader
// that fills the seq-1 hole with an arbitrary pending request (Y sorts before
// X) diverges the group — the executed replica ignores the conflicting
// proposal while everyone else applies Y. The PBFT new-view rule re-proposes
// the prepared certificate (X) at its original sequence number, so all four
// replicas must converge to the same log.
func TestNewViewPreservesPreparedAssignments(t *testing.T) {
	replicas, apps, _ := manualCluster(t, 4, ByzantineFaults)
	r0, r1, r2, r3 := replicas[0], replicas[1], replicas[2], replicas[3]

	// X is proposed at seq 1 by the view-0 leader (r0). Deliver selectively so
	// that r0 and r3 reach prepared-but-not-executed, r1 stays unprepared, and
	// r2 alone collects a commit quorum and executes X at seq 1.
	r0.handle(clientRequest("zz", 1, "X"))
	drain(r1)
	drain(r3)
	drain(r0)
	drain(r2)
	if got := apps[2].Log(); len(got) != 1 || got[0] != "X" {
		t.Fatalf("choreography broken: r2 log = %v, want [X]", got)
	}
	if apps[0].Log() != nil || apps[1].Log() != nil || apps[3].Log() != nil {
		t.Fatalf("choreography broken: only r2 may have executed (r0=%v r1=%v r3=%v)",
			apps[0].Log(), apps[1].Log(), apps[3].Log())
	}

	// Y (client "aa" sorts before "zz") is pending at r1, the view-1 leader.
	r1.handle(clientRequest("aa", 1, "Y"))

	// View change to view 1 with vote quorum {0, 1, 3} — the executed replica
	// r2 is not consulted, so only the prepared certificates of r0/r3 tell the
	// new leader that seq 1 belongs to X.
	m0 := r0.viewChangeMsg(1)
	m3 := r3.viewChangeMsg(1)
	r1.handle(m0)
	r1.handle(m3)

	pumpAll(replicas)

	for i, app := range apps {
		got := app.Log()
		if len(got) != 2 || got[0] != "X" || got[1] != "Y" {
			t.Fatalf("replica %d log = %v, want [X Y] — new-view gap filling reassigned a committed sequence number", i, got)
		}
	}
}

// TestExecutionIgnoresReplyFloorTiming reproduces the determinism bug: a
// replica that learns a client's advanced resolution floor (via a later
// request's piggybacked LowID) before executing an earlier committed command
// must still execute it — all other replicas did, and skipping based on
// per-replica message timing forks the application state.
func TestExecutionIgnoresReplyFloorTiming(t *testing.T) {
	replicas, apps, _ := manualCluster(t, 3, CrashFaults)
	r0, r1 := replicas[0], replicas[1]

	// A commits at seq 1 and executes at r0 (replica 2's votes made that
	// possible) while r1 has everything still queued.
	r0.handle(clientRequest("c", 1, "A"))
	drain(replicas[2])
	drain(r0)
	if got := apps[0].Log(); len(got) != 1 || got[0] != "A" {
		t.Fatalf("choreography broken: r0 log = %v, want [A]", got)
	}

	// The client resolved A from r0's reply and issues request 2 advertising
	// LowID 2 ("everything below 2 is resolved"). It reaches r1 BEFORE r1 has
	// processed seq 1 — the floor advances ahead of execution there.
	req2 := clientRequest("c", 2, "B")
	req2.Req.LowID = 2
	r1.handle(req2)

	// Now r1 catches up on the ordered log. It must execute A at seq 1 even
	// though A is below the client's advertised floor.
	drain(r1)
	if got := apps[1].Log(); len(got) != 1 || got[0] != "A" {
		t.Fatalf("r1 log = %v, want [A] — committed command skipped because a retransmission advanced the reply floor first", got)
	}
}

// echoApp is a trivial deterministic application for batch tests.
type echoApp struct{}

func (echoApp) Execute(cmd []byte) []byte { return append([]byte("r:"), cmd...) }
func (echoApp) Query(cmd []byte) []byte   { return append([]byte("q:"), cmd...) }
func (echoApp) Snapshot() []byte          { return nil }
func (echoApp) Restore([]byte) error      { return nil }

// TestDecodeBatchRejectsForgedCount pins the preallocation bound: a forged
// envelope advertising more operations than the payload could possibly hold
// must decode as malformed, not panic (or allocate gigabytes) inside
// Application.Execute on every replica at once.
func TestDecodeBatchRejectsForgedCount(t *testing.T) {
	forged := codec.AppendUvarint(codec.AppendVersion(nil), 1<<40)
	forged = append(forged, 0x01, 'x')

	if ops, err := DecodeBatch(forged); err == nil {
		t.Fatalf("forged count decoded into %d ops, want malformed", len(ops))
	}
	// Replica side: executing the forged command must return, not crash.
	if out := NewBatchApplication(echoApp{}).Execute(forged); out == nil {
		t.Fatal("BatchApplication.Execute returned nil for a malformed envelope")
	}
}

// TestViewChangeCertificatesSurviveVoteReset checks the sticky prepared flag:
// after a new view resets an instance's vote maps, a subsequent view change
// must still certify the instance, or back-to-back view changes would lose
// the assignment a committed request depends on.
func TestViewChangeCertificatesSurviveVoteReset(t *testing.T) {
	replicas, _, _ := manualCluster(t, 4, ByzantineFaults)
	r0 := replicas[0]

	r0.handle(clientRequest("c", 1, "X"))
	// Prepares from the two peers complete r0's prepare quorum (with its own).
	digest := seccrypto.Hash([]byte("X"))
	r0.handle(message{Type: msgPrepare, From: 1, View: 0, Seq: 1, Digest: digest})
	r0.handle(message{Type: msgPrepare, From: 2, View: 0, Seq: 1, Digest: digest})

	certsOf := func(m message) int { return len(m.Prepared) }
	if got := certsOf(r0.viewChangeMsg(1)); got != 1 {
		t.Fatalf("prepared instance produced %d certificates, want 1", got)
	}
	// A new view resets the retained instance's votes; the certificate must
	// survive into the next view change.
	r0.handle(message{Type: msgNewView, From: 1, View: 1, LastExec: 0})
	inst := r0.instances[1]
	if inst == nil || len(inst.prepares) != 0 || !inst.prepared {
		t.Fatalf("retained instance votes not reset or prepared flag lost: %+v", inst)
	}
	if got := certsOf(r0.viewChangeMsg(2)); got != 1 {
		t.Fatalf("certificate lost after vote reset: %d certificates in second view change, want 1", got)
	}
}
