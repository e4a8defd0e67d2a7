// Package cloud defines the object-storage abstraction SCFS expects from a
// cloud provider: unmodified blob storage with per-object access control
// lists, exactly the "service-agnosticism" assumption of the paper (§2.1). It
// contains no implementation; see internal/cloudsim for the simulated
// providers used in tests and benchmarks.
package cloud

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Permission describes what a grantee may do with an object.
type Permission int

const (
	// PermNone revokes access.
	PermNone Permission = iota
	// PermRead allows reading the object.
	PermRead
	// PermWrite allows overwriting or deleting the object.
	PermWrite
	// PermReadWrite allows both.
	PermReadWrite
)

// String returns a human-readable permission name.
func (p Permission) String() string {
	switch p {
	case PermNone:
		return "none"
	case PermRead:
		return "read"
	case PermWrite:
		return "write"
	case PermReadWrite:
		return "read-write"
	default:
		return fmt.Sprintf("Permission(%d)", int(p))
	}
}

// CanRead reports whether the permission allows reads.
func (p Permission) CanRead() bool { return p == PermRead || p == PermReadWrite }

// CanWrite reports whether the permission allows writes.
func (p Permission) CanWrite() bool { return p == PermWrite || p == PermReadWrite }

// Grant gives an account a permission on an object.
type Grant struct {
	// Grantee is the provider-canonical account identifier.
	Grantee string
	// Perm is the granted permission.
	Perm Permission
}

// ObjectInfo describes a stored object.
type ObjectInfo struct {
	// Name is the object key.
	Name string
	// Size is the payload length in bytes.
	Size int64
	// Owner is the canonical identifier of the account that created it.
	Owner string
	// ModTime is the time of the last successful write.
	ModTime time.Time
}

// Usage summarizes the metered consumption of one account at one provider,
// which internal/pricing converts into dollars.
type Usage struct {
	// PutRequests, GetRequests, DeleteRequests, ListRequests count API calls.
	PutRequests    int64
	GetRequests    int64
	DeleteRequests int64
	ListRequests   int64
	// BytesIn is inbound (upload) traffic; BytesOut is outbound (download).
	BytesIn  int64
	BytesOut int64
	// StoredBytes is the current footprint; ByteHours integrates it over time.
	StoredBytes int64
	ByteHours   float64
}

// Meter is an optional interface an ObjectStore may implement to expose the
// provider-metered consumption of its account. The telemetry layer uses it
// to surface per-provider usage (and, priced through internal/pricing,
// dollar spend) in the mount's stats without instrumenting each RPC twice.
type Meter interface {
	// Usage returns the metered consumption so far.
	Usage() Usage
}

// Add accumulates other into u.
func (u *Usage) Add(other Usage) {
	u.PutRequests += other.PutRequests
	u.GetRequests += other.GetRequests
	u.DeleteRequests += other.DeleteRequests
	u.ListRequests += other.ListRequests
	u.BytesIn += other.BytesIn
	u.BytesOut += other.BytesOut
	u.StoredBytes += other.StoredBytes
	u.ByteHours += other.ByteHours
}

// Sentinel errors shared by all object-store implementations. They fall in
// two classes that the dispatch's retries and breakers (internal/iopolicy)
// tell apart: transient errors describe the provider's moment (an outage
// passes, a throttle clears) and are worth retrying with backoff; permanent
// errors describe the request (the object is absent, the ACL forbids it)
// and no retry can change the answer. Implementations should wrap the
// sentinels (%w) with provider context rather than replace them, so
// errors.Is keeps classifying through the chain.
var (
	// ErrNotFound is returned when the object does not exist or is not yet
	// visible (eventual consistency). Permanent for the RPC: the read loop
	// of the consistency anchor retries at a higher layer, with its own
	// schedule.
	ErrNotFound = errors.New("cloud: object not found")
	// ErrAccessDenied is returned when the ACL forbids the operation
	// (permanent).
	ErrAccessDenied = errors.New("cloud: access denied")
	// ErrUnavailable is returned when the provider is unreachable (outage).
	// Transient: the defining property of a cloud-of-clouds is that
	// provider outages pass.
	ErrUnavailable = errors.New("cloud: provider unavailable")
	// ErrThrottled is returned when the provider rate-limits the request
	// (HTTP 429/503 slow-down responses). Transient, and the one error that
	// positively demands backoff: retrying a throttle immediately makes it
	// worse.
	ErrThrottled = errors.New("cloud: request throttled")
	// ErrCorrupted is returned when the returned payload fails integrity
	// verification performed by a higher layer. The simulator may also
	// return silently corrupted data without this error, which is exactly
	// why DepSky verifies hashes.
	ErrCorrupted = errors.New("cloud: object corrupted")
)

// ObjectStore is the per-account client view of one cloud provider. All
// operations are blocking and include the provider's (simulated) network
// latency; every operation honours its context, returning ctx.Err() promptly
// once the context is cancelled or past its deadline. DepSky's quorum fan-out
// relies on this to abort the losers of a quorum race instead of letting
// redundant RPCs run (and bill) to completion.
//
// A request abandoned mid-flight must behave like a lost message: a cancelled
// Put either took effect at the provider or it did not, and a cancelled Get
// transfers no payload. Implementations must not return partial data with a
// nil error.
type ObjectStore interface {
	// Provider returns the provider name (e.g. "amazon-s3").
	Provider() string
	// Account returns the canonical account identifier this client acts as.
	Account() string
	// Put stores data under name, overwriting any previous version. The
	// caller becomes the owner when the object is new.
	Put(ctx context.Context, name string, data []byte) error
	// Get returns the payload of name.
	Get(ctx context.Context, name string) ([]byte, error)
	// Head returns the metadata of name without transferring the payload.
	Head(ctx context.Context, name string) (ObjectInfo, error)
	// Delete removes name. Deleting a non-existent object is not an error
	// (mirrors S3 semantics).
	Delete(ctx context.Context, name string) error
	// List returns objects whose names begin with prefix, readable by this
	// account, in lexicographic order.
	List(ctx context.Context, prefix string) ([]ObjectInfo, error)
	// SetACL replaces the grants on an object (owner only).
	SetACL(ctx context.Context, name string, grants []Grant) error
	// GetACL returns the grants on an object (owner only).
	GetACL(ctx context.Context, name string) ([]Grant, error)
}
