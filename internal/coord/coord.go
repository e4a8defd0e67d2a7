// Package coord defines the coordination-service facade used by the SCFS
// agent ("modular coordination" in the paper): a small, strongly consistent
// metadata table with conditional updates, plus an ephemeral lock service.
// The backend is the DepSpace tuple space (internal/depspace), the
// configuration the paper evaluates, along with wrappers that add the
// client-to-coordination-service network latency and count accesses (the
// dominant cost of metadata-intensive workloads in §4).
package coord

import (
	"context"
	"errors"
	"sync"
	"time"
)

// ACL controls who may read or overwrite a metadata record. The coordination
// service enforces it; the SCFS agent is not trusted to (§2.6).
type ACL struct {
	Owner   string
	Readers []string
	Writers []string
}

// Record is one stored metadata entry.
type Record struct {
	Key     string
	Value   []byte
	Version uint64
}

// Sentinel errors shared by all coordination backends.
var (
	// ErrNotFound means no record (or lock) with that key exists.
	ErrNotFound = errors.New("coord: not found")
	// ErrConflict means a conditional update lost a race (version mismatch
	// or concurrent creation).
	ErrConflict = errors.New("coord: conflict")
	// ErrDenied means the backend's access control rejected the operation.
	ErrDenied = errors.New("coord: access denied")
	// ErrLockHeld means the lock is currently owned by another client.
	ErrLockHeld = errors.New("coord: lock held by another client")
)

// Stats counts coordination-service accesses — round trips, the quantity
// that dominates the latency of metadata-intensive SCFS workloads. The four
// class counters count calls issued singly; a Batch is one access whatever
// it carries and counts in Batches only.
type Stats struct {
	MetadataReads  int64
	MetadataWrites int64
	MetadataLists  int64
	LockOps        int64
	Batches        int64
}

// Total returns the total number of accesses.
func (s Stats) Total() int64 {
	return s.MetadataReads + s.MetadataWrites + s.MetadataLists + s.LockOps + s.Batches
}

// OpKind names the command an Op carries.
type OpKind uint8

// The commands a Batch can carry.
const (
	OpGet OpKind = iota + 1
	OpPut
	OpList
	OpTryLock
	OpUnlock
	OpDelete
	OpCas
)

// String returns the kind's coord_ops_total op label.
func (k OpKind) String() string {
	switch k {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpList:
		return "list"
	case OpTryLock:
		return "trylock"
	case OpUnlock:
		return "unlock"
	case OpDelete:
		return "delete"
	case OpCas:
		return "cas"
	default:
		return "unknown"
	}
}

// Op is one command of a Batch; build it with Get, Put, List, TryLock,
// Unlock, Delete or Cas, whose parameters are those of the Service method
// of the same name (GetMetadata, PutMetadata, ListMetadata, TryLock,
// Unlock, DeleteMetadata, CasMetadata). Delete and Cas are conditional on
// the record's version, the garbage collector's guard against erasing a
// write it never read.
type Op struct {
	Kind    OpKind
	Key     string // record key, list prefix or lock name
	Value   []byte
	ACL     ACL
	Owner   string
	TTL     time.Duration
	Version uint64 // the version a Delete or a Cas expects
}

// Get is GetMetadata as a batch command.
func Get(key string) Op { return Op{Kind: OpGet, Key: key} }

// Put is PutMetadata as a batch command.
func Put(key string, value []byte, acl ACL) Op {
	return Op{Kind: OpPut, Key: key, Value: value, ACL: acl}
}

// List is ListMetadata as a batch command.
func List(prefix string) Op { return Op{Kind: OpList, Key: prefix} }

// TryLock is TryLock as a batch command.
func TryLock(name, owner string, ttl time.Duration) Op {
	return Op{Kind: OpTryLock, Key: name, Owner: owner, TTL: ttl}
}

// Unlock is Unlock as a batch command.
func Unlock(name, owner string) Op { return Op{Kind: OpUnlock, Key: name, Owner: owner} }

// Delete is DeleteMetadata as a batch command, conditional on the record
// still being at version (0: unconditional). A record at another version is
// left in place and the command fails with ErrConflict; an absent one is no
// error, as for DeleteMetadata.
func Delete(key string, version uint64) Op { return Op{Kind: OpDelete, Key: key, Version: version} }

// Cas is CasMetadata as a batch command: the record is replaced only if it
// is at version (0: only if it does not exist), else the command fails with
// ErrConflict, or ErrNotFound when the record is absent.
func Cas(key string, value []byte, version uint64, acl ACL) Op {
	return Op{Kind: OpCas, Key: key, Value: value, Version: version, ACL: acl}
}

// Result is the outcome of one batched command: what the Service method of
// the same name would have returned. A Cas that fails with ErrConflict also
// returns the record it clashed with, exactly what a Get would have, so a
// conditional create learns in the same access what holds the key.
type Result struct {
	Record  Record   // OpGet; OpCas failing with ErrConflict
	Records []Record // OpList
	Version uint64   // OpPut, OpCas
	Err     error
}

// Service is the coordination-service interface consumed by the SCFS agent.
// Implementations must be safe for concurrent use. Every RPC takes a
// context: cancelling it abandons the request promptly with ctx.Err() (the
// request may still execute at the service, exactly as a request whose reply
// was lost would).
type Service interface {
	// GetMetadata returns the record stored under key.
	GetMetadata(ctx context.Context, key string) (Record, error)
	// PutMetadata unconditionally replaces (or creates) the record under
	// key, returning the new version.
	PutMetadata(ctx context.Context, key string, value []byte, acl ACL) (uint64, error)
	// CasMetadata replaces the record only if its current version matches
	// expectedVersion (0 = the record must not exist). On conflict it
	// returns ErrConflict.
	CasMetadata(ctx context.Context, key string, value []byte, expectedVersion uint64, acl ACL) (uint64, error)
	// DeleteMetadata removes the record under key (no error if absent).
	DeleteMetadata(ctx context.Context, key string) error
	// ListMetadata returns all records whose key starts with prefix and
	// which the caller may read.
	ListMetadata(ctx context.Context, prefix string) ([]Record, error)
	// RenamePrefix atomically rewrites oldPrefix to newPrefix in the keys of
	// matching records and returns how many were rewritten.
	RenamePrefix(ctx context.Context, oldPrefix, newPrefix string) (int, error)

	// TryLock acquires the named ephemeral lock for owner with the given
	// TTL. It returns ErrLockHeld when another owner holds it. Re-acquiring
	// a lock already held by the same owner renews it.
	TryLock(ctx context.Context, name, owner string, ttl time.Duration) error
	// Unlock releases the named lock if held by owner.
	Unlock(ctx context.Context, name, owner string) error

	// Batch executes ops at the service in one access — one round trip —
	// in order and back to back, and returns one Result per op. It is not
	// a transaction: each command succeeds or fails on its own (Result.Err)
	// and later commands run regardless, exactly as if the same calls had
	// been issued one after another with nothing in between. A command that
	// must not act on a record changed by someone else carries the version
	// it expects (Delete, Cas) and fails alone with ErrConflict. The returned
	// error means the access itself failed and no Result is valid; as with
	// any lost reply, the commands may still have executed. One command
	// takes a follow-up access after the rest of the batch: a TryLock that
	// finds the lock held by its own owner renews the lease in a second
	// access.
	Batch(ctx context.Context, ops []Op) ([]Result, error)

	// Stats returns a snapshot of the access counters.
	Stats() Stats
}

// Do executes ops at s in one access. Two or more commands travel as one
// Batch; a lone command is issued as the Service call it stands for — the
// same round trip, counted under its own class rather than as a batch — and
// whatever that call returns, a failed access included, is its Result.Err.
// A lone conditional Delete has no such call and travels as a batch of one;
// a lone Cas's clash, like CasMetadata's, carries no record.
func Do(ctx context.Context, s Service, ops ...Op) ([]Result, error) {
	if len(ops) != 1 {
		return s.Batch(ctx, ops)
	}
	var r Result
	switch op := ops[0]; {
	case op.Kind == OpGet:
		r.Record, r.Err = s.GetMetadata(ctx, op.Key)
	case op.Kind == OpPut:
		r.Version, r.Err = s.PutMetadata(ctx, op.Key, op.Value, op.ACL)
	case op.Kind == OpList:
		r.Records, r.Err = s.ListMetadata(ctx, op.Key)
	case op.Kind == OpTryLock:
		r.Err = s.TryLock(ctx, op.Key, op.Owner, op.TTL)
	case op.Kind == OpUnlock:
		r.Err = s.Unlock(ctx, op.Key, op.Owner)
	case op.Kind == OpDelete && op.Version == 0:
		r.Err = s.DeleteMetadata(ctx, op.Key)
	case op.Kind == OpCas:
		r.Version, r.Err = s.CasMetadata(ctx, op.Key, op.Value, op.Version, op.ACL)
	default:
		return s.Batch(ctx, ops)
	}
	return []Result{r}, nil
}

// statsCounter provides the shared Stats implementation for backends.
type statsCounter struct {
	mu sync.Mutex
	s  Stats
}

func (c *statsCounter) addRead()  { c.mu.Lock(); c.s.MetadataReads++; c.mu.Unlock() }
func (c *statsCounter) addWrite() { c.mu.Lock(); c.s.MetadataWrites++; c.mu.Unlock() }
func (c *statsCounter) addList()  { c.mu.Lock(); c.s.MetadataLists++; c.mu.Unlock() }
func (c *statsCounter) addLock()  { c.mu.Lock(); c.s.LockOps++; c.mu.Unlock() }
func (c *statsCounter) addBatch() { c.mu.Lock(); c.s.Batches++; c.mu.Unlock() }

func (c *statsCounter) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s
}
