// Package smr implements a leader-based state machine replication engine in
// the spirit of BFT-SMaRt, the replication library underlying DepSpace in the
// SCFS paper. It supports two fault models:
//
//   - Crash faults: 2f+1 replicas tolerate f crashes (the Zookeeper-like
//     configuration of the paper).
//   - Byzantine faults: 3f+1 replicas tolerate f arbitrary faults (the
//     DepSpace/BFT-SMaRt configuration).
//
// The engine totally orders client commands through a leader, executes them
// on a deterministic Application, and supports checkpointing and a simple
// view change to survive leader failure. A client accepts a result once
// n-f replicas returned it identically. A read-only command can skip the
// order: it is a query that every replica answers from its current state
// (Application.Query), accepted on the same n-f identical answers; since
// every ordered command that returned was executed by n-f replicas, f+1 of
// them correct, any n-f answers include one of them. Transports are pluggable; the
// in-memory transport in transport.go connects replicas within a process and
// can drop, delay, or corrupt messages for fault-injection tests.
package smr

import (
	"fmt"
	"time"
)

// FaultModel selects the replication protocol variant.
type FaultModel int

const (
	// CrashFaults requires n >= 2f+1 replicas.
	CrashFaults FaultModel = iota
	// ByzantineFaults requires n >= 3f+1 replicas.
	ByzantineFaults
)

// String implements fmt.Stringer.
func (m FaultModel) String() string {
	switch m {
	case CrashFaults:
		return "crash"
	case ByzantineFaults:
		return "byzantine"
	default:
		return fmt.Sprintf("FaultModel(%d)", int(m))
	}
}

// QuorumSize returns the number of matching votes needed to make progress for
// n replicas under this fault model.
func (m FaultModel) QuorumSize(n int) int {
	switch m {
	case ByzantineFaults:
		f := (n - 1) / 3
		return 2*f + 1
	default:
		return n/2 + 1
	}
}

// MaxFaults returns the number of replica failures tolerated with n replicas.
func (m FaultModel) MaxFaults(n int) int {
	switch m {
	case ByzantineFaults:
		return (n - 1) / 3
	default:
		return (n - 1) / 2
	}
}

// Application is the deterministic service replicated by the engine. All
// methods are invoked from a single goroutine per replica.
type Application interface {
	// Execute applies a totally ordered command and returns its reply.
	Execute(cmd []byte) []byte
	// Query answers a read-only command from the current state, outside the
	// order, and must change nothing: no state, no expiry, no counter. A
	// command that is not read-only gets a refusal. Correct replicas that
	// executed the same prefix must answer a query identically.
	Query(cmd []byte) []byte
	// Snapshot serializes the full application state for state transfer.
	Snapshot() []byte
	// Restore replaces the application state with a snapshot.
	Restore(snapshot []byte) error
}

// Config describes a replica group.
type Config struct {
	// ReplicaIDs lists the members; order is significant (leader rotation).
	ReplicaIDs []int
	// Model is the fault model.
	Model FaultModel
	// LeaderTimeout is how long a follower waits for a pending request to be
	// ordered before suspecting the leader. Zero selects a default.
	LeaderTimeout time.Duration
	// CheckpointInterval is the number of executed commands between
	// checkpoints, where a replica prunes the instances it has executed.
	// Zero selects a default.
	CheckpointInterval int
}

func (c Config) withDefaults() Config {
	if c.LeaderTimeout == 0 {
		c.LeaderTimeout = 250 * time.Millisecond
	}
	if c.CheckpointInterval == 0 {
		c.CheckpointInterval = 128
	}
	return c
}

// N returns the group size.
func (c Config) N() int { return len(c.ReplicaIDs) }

// Validate checks the configuration against the fault model requirements.
func (c Config) Validate() error {
	n := c.N()
	if n == 0 {
		return fmt.Errorf("smr: empty replica group")
	}
	switch c.Model {
	case ByzantineFaults:
		if n < 4 {
			return fmt.Errorf("smr: byzantine model needs at least 4 replicas, got %d", n)
		}
	case CrashFaults:
		if n < 1 {
			return fmt.Errorf("smr: crash model needs at least 1 replica, got %d", n)
		}
	default:
		return fmt.Errorf("smr: unknown fault model %v", c.Model)
	}
	return nil
}

// LeaderFor returns the replica ID acting as leader in the given view.
func (c Config) LeaderFor(view int) int {
	return c.ReplicaIDs[view%len(c.ReplicaIDs)]
}

// msgType enumerates protocol messages.
type msgType int

const (
	msgRequest msgType = iota
	msgPrePrepare
	msgPrepare
	msgCommit
	msgReply
	msgViewChange
	msgNewView
	msgStateRequest
	msgStateReply
	msgQuery
)

func (t msgType) String() string {
	switch t {
	case msgRequest:
		return "REQUEST"
	case msgPrePrepare:
		return "PRE-PREPARE"
	case msgPrepare:
		return "PREPARE"
	case msgCommit:
		return "COMMIT"
	case msgReply:
		return "REPLY"
	case msgViewChange:
		return "VIEW-CHANGE"
	case msgNewView:
		return "NEW-VIEW"
	case msgStateRequest:
		return "STATE-REQUEST"
	case msgStateReply:
		return "STATE-REPLY"
	case msgQuery:
		return "QUERY"
	default:
		return fmt.Sprintf("msgType(%d)", int(t))
	}
}

// request uniquely identifies a client command.
type request struct {
	ClientID string
	ReqID    uint64
	// LowID is the client's lowest unresolved request ID when this message
	// was sent — a piggybacked cumulative acknowledgement that every ID below
	// it is resolved (completed or abandoned) and will never be retransmitted.
	// Replicas prune their reply records below it; it is advisory for
	// ordering (not part of the command digest, since retransmissions carry
	// fresher values).
	LowID uint64
	Op    []byte
}

// requestID is a request's identity: comparable, and ordered by less.
type requestID struct {
	ClientID string
	ReqID    uint64
}

func (r request) id() requestID { return requestID{r.ClientID, r.ReqID} }

func (a requestID) less(b requestID) bool {
	if a.ClientID != b.ClientID {
		return a.ClientID < b.ClientID
	}
	return a.ReqID < b.ReqID
}

// message is the single envelope exchanged between replicas and clients.
type message struct {
	Type    msgType
	From    int    // replica ID, or -1 for clients
	FromCli string // client ID for requests
	View    int
	Seq     uint64
	Digest  string
	Req     request
	Result  []byte
	// View change support.
	LastExec   uint64
	HighestSeq uint64
	Checkpoint []byte
	Pending    []request
	// Prepared carries the sender's prepared certificates in a VIEW-CHANGE
	// message, so the new leader re-proposes certified requests at their
	// original sequence numbers (the PBFT new-view rule) instead of guessing
	// an assignment that could contradict what other replicas committed.
	Prepared []preparedCert
	// State transfer support: the sender's client reply records as of the
	// checkpoint, so the receiver can keep deduplicating retransmissions after
	// jumping over the executions it missed.
	ClientReplies map[string]clientReplySnapshot
}

// preparedCert certifies that an instance reached the prepare quorum at the
// sender: a pre-prepare plus matching prepares for (Seq, Digest). Any request
// that committed anywhere was prepared at a quorum, so every view-change
// quorum intersects that prepare quorum in at least one correct replica —
// collecting the certificates of a view-change quorum is enough for the new
// leader to learn every sequence-number assignment it must preserve.
type preparedCert struct {
	Seq    uint64
	Digest string
	Req    request
}

// clientReplySnapshot carries one client's reply record in a state transfer.
type clientReplySnapshot struct {
	Results map[uint64][]byte
	Floor   uint64
}

// Reply is delivered to clients.
type Reply struct {
	ReqID   uint64
	Replica int
	View    int
	Result  []byte
}
