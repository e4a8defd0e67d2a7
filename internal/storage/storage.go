// Package storage implements the SCFS storage service (§2.5.1): the layer
// that saves and retrieves whole-file objects from the cloud backend, a
// DepSky manager over one cloud (f = 0, the paper's SCFS-AWS) or a
// cloud-of-clouds (n >= 3f+1). It is the eventually consistent SS of
// Figure 3 — steps w2 and r2; the consistency anchor around it, which makes
// the composition strongly consistent, is the agent's (internal/core: w1–w3
// in Close and syncToCloud, r1–r3 in Open and awaitVisible).
package storage

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"scfs/internal/depsky"
	"scfs/internal/pricing"
)

// Errors returned by backends.
var (
	// ErrVersionNotFound means the requested (fileID, hash) pair is not yet
	// visible; callers retry per the consistency-anchor read loop.
	ErrVersionNotFound = errors.New("storage: version not found")
	// ErrIntegrity means the fetched payload does not match the hash.
	ErrIntegrity = errors.New("storage: integrity check failed")
)

// VersionedStore is the storage-service (SS) abstraction used by SCFS: every
// write creates a new immutable version addressed by (fileID, hash of the
// contents). It corresponds to step w2/r2 of the Figure 3 algorithm. Every
// operation honours its context: cancellation propagates down to the
// individual cloud RPCs and surfaces as ctx.Err().
type VersionedStore interface {
	// WriteVersion durably stores data as the version of fileID whose
	// contents hash to hash.
	WriteVersion(ctx context.Context, fileID, hash string, data []byte) error
	// ReadVersion returns the data of the given version, or
	// ErrVersionNotFound if it is not (yet) visible.
	ReadVersion(ctx context.Context, fileID, hash string) ([]byte, error)
	// DeleteVersion removes the version.
	DeleteVersion(ctx context.Context, fileID, hash string) error
	// ListVersions lists the hashes currently stored for fileID.
	ListVersions(ctx context.Context, fileID string) ([]string, error)
	StreamWriter
	RangeOpener
	VersionSweeper
	VersionCoster
}

// StreamWriter is the streaming write of a VersionedStore: it consumes a
// version's contents from a reader without materializing the encoded form,
// bounding the memory of large writes. The hash is the caller-computed
// SHA-256 of the full contents (SCFS computes it when the file is closed);
// the write fails, and cleans up, if the streamed bytes do not match it.
type StreamWriter interface {
	WriteVersionFrom(ctx context.Context, fileID, hash string, r io.Reader) error
}

// ReaderAtCloser is the random-access view of one stored version served by
// a RangeOpener. ReadAt (the io.ReaderAt face, kept so the view composes
// with io.SectionReader and friends) runs under a background context;
// callers that can be cancelled use ReadAtContext.
type ReaderAtCloser interface {
	io.ReaderAt
	io.Closer
	// ReadAtContext is ReadAt bounded by ctx: the chunk fetches a read
	// triggers observe the context and abort promptly on cancellation.
	ReadAtContext(ctx context.Context, p []byte, off int64) (int, error)
	// Size is the version's total length in bytes.
	Size() int64
}

// RangeOpener is the ranged read of a VersionedStore: it serves byte ranges
// by fetching only the chunks covering them, so large-file ReadAt does not
// pull whole objects. OpenVersionAt returns ErrVersionNotFound while the
// version is not yet visible (callers retry per the consistency-anchor
// loop).
type RangeOpener interface {
	OpenVersionAt(ctx context.Context, fileID, hash string) (ReaderAtCloser, error)
}

// SweepStats summarizes what a batched version sweep reclaimed, in the
// axes of the cloud cost model: bytes (storage fees), objects (the
// per-request fees every surviving object keeps incurring), and the dollars
// the two convert to under the backend's price table. Everything but
// Deleted is an estimate.
type SweepStats struct {
	// Deleted is how many versions were removed.
	Deleted int
	// ReclaimedBytes is the cloud storage freed across providers.
	ReclaimedBytes int64
	// ReclaimedObjects is how many cloud objects were removed; chunked
	// versions count one object per chunk per charged cloud, which is why a
	// byte count alone under-weighs them.
	ReclaimedObjects int64
	// ReclaimedDollars is the recurring storage spend, in $/month, the
	// deleted versions stop accruing (priced by the backend's rate table).
	ReclaimedDollars float64
}

// VersionSweeper is the batched delete of a VersionedStore, used by the
// garbage collector: batch maps fileID to the version hashes to remove.
type VersionSweeper interface {
	DeleteVersionsBatch(ctx context.Context, batch map[string][]string) SweepStats
}

// VersionFootprint estimates the cloud-side cost of storing one version:
// bytes across the charged clouds, objects created, the request counts of
// its lifecycle, and the dollars those convert to under the backend's price
// table. It mirrors depsky.Footprint at the storage abstraction so the
// agent can meter cost pressure — and report spend — without knowing the
// backend.
type VersionFootprint struct {
	Bytes              int64
	Objects            int64
	PutRequests        int64
	GetRequestsPerRead int64
	DeleteRequests     int64
	// Dollars is the priced lifecycle of the version (recurring storage,
	// one-time upload, per-read and reclamation charges).
	Dollars pricing.Estimate
}

// VersionCoster is the cost estimate of a VersionedStore: it predicts the
// footprint a version of the given size would have; how the backend lays a
// version out (one object, or one per chunk) is the backend's to know. The
// agent feeds the estimate into its garbage-collection trigger so
// request-fee pressure (many small chunks) can start a collection even when
// byte pressure alone would not.
type VersionCoster interface {
	EstimateVersionFootprint(size int64) VersionFootprint
}

// CloudOfClouds stores versions through a DepSky manager: each file is a
// DepSky data unit, and each SCFS version is the DepSky version named by the
// hash the consistency anchor holds. A version of at most one chunk is
// written in one cloud round and read in one (its descriptor objects, which
// hold the chunk); a larger one takes a round more each way, for the chunks
// after the first. The clouds keep no register of which versions exist: that
// is the anchor's job. A manager over one cloud (f = 0) is served alike.
type CloudOfClouds struct {
	mgr *depsky.Manager
}

// NewCloudOfClouds wraps a DepSky manager.
func NewCloudOfClouds(mgr *depsky.Manager) *CloudOfClouds {
	return &CloudOfClouds{mgr: mgr}
}

// WriteVersion implements VersionedStore.
func (c *CloudOfClouds) WriteVersion(ctx context.Context, fileID, hash string, data []byte) error {
	return c.WriteVersionFrom(ctx, fileID, hash, bytes.NewReader(data))
}

// WriteVersionFrom implements StreamWriter: WriteVersion for contents the
// caller does not hold in memory. Only a bounded window of chunks is
// resident regardless of the version size. Contents that do not hash to hash
// store no descriptor and fail with ErrIntegrity.
func (c *CloudOfClouds) WriteVersionFrom(ctx context.Context, fileID, hash string, r io.Reader) error {
	_, err := c.mgr.WriteFrom(ctx, fileID, hash, r)
	if errors.Is(err, depsky.ErrIntegrity) {
		return fmt.Errorf("%w: %w", ErrIntegrity, err)
	}
	return err
}

// notVisible maps DepSky's "no such version here" onto ErrVersionNotFound,
// the one answer the consistency-anchor loop retries.
func notVisible(err error) error {
	if errors.Is(err, depsky.ErrVersionNotFound) {
		return ErrVersionNotFound
	}
	return err
}

// ReadVersion implements VersionedStore; DepSky verifies the contents
// against hash end to end.
func (c *CloudOfClouds) ReadVersion(ctx context.Context, fileID, hash string) ([]byte, error) {
	data, _, err := c.mgr.ReadMatching(ctx, fileID, hash)
	if errors.Is(err, depsky.ErrIntegrity) {
		return nil, fmt.Errorf("%w: %w", ErrIntegrity, err)
	}
	return data, notVisible(err)
}

// DeleteVersion implements VersionedStore: the version's names are deleted
// whether or not f+1 clouds showed its descriptor.
func (c *CloudOfClouds) DeleteVersion(ctx context.Context, fileID, hash string) error {
	if _, err := c.mgr.DeleteVersion(ctx, fileID, hash); err != nil && !errors.Is(err, depsky.ErrVersionNotFound) {
		return err
	}
	return nil
}

// ListVersions implements VersionedStore: the versions whose descriptor f+1
// clouds list.
func (c *CloudOfClouds) ListVersions(ctx context.Context, fileID string) ([]string, error) {
	return c.mgr.ListVersions(ctx, fileID)
}

// OpenVersionAt implements RangeOpener: reads fetch (and under faults
// reconstruct) only the chunks covering the requested range.
func (c *CloudOfClouds) OpenVersionAt(ctx context.Context, fileID, hash string) (ReaderAtCloser, error) {
	r, _, err := c.mgr.OpenMatching(ctx, fileID, hash)
	if err != nil {
		return nil, notVisible(err)
	}
	return r, nil
}

// sweepConcurrency bounds how many versions a DeleteVersionsBatch deletes at
// once. A version in flight is a request at each of the n clouds per round;
// 16 makes a WAN collection's sweep a few rounds deep, and 64 saves little
// more for four times the requests in flight.
const sweepConcurrency = 16

// DeleteVersionsBatch implements VersionSweeper: every doomed version is
// deleted by name (depsky.Manager.DeleteVersion), sweepConcurrency versions
// at a time. Every version whose names were deleted is counted; what it
// frees is priced from its descriptor only when f+1 clouds vouched for it,
// so a chunked version is credited with every object it frees and the
// leftovers of one lagging cloud with nothing.
func (c *CloudOfClouds) DeleteVersionsBatch(ctx context.Context, batch map[string][]string) SweepStats {
	var (
		stats SweepStats
		mu    sync.Mutex
		wg    sync.WaitGroup
	)
	sem := make(chan struct{}, sweepConcurrency)
	for fileID, hashes := range batch {
		for _, hash := range hashes {
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				v, err := c.mgr.DeleteVersion(ctx, fileID, hash)
				if err != nil && !errors.Is(err, depsky.ErrVersionNotFound) {
					return
				}
				mu.Lock()
				defer mu.Unlock()
				stats.Deleted++
				if err == nil {
					fp := c.mgr.VersionFootprint(v)
					stats.ReclaimedBytes += fp.Bytes
					stats.ReclaimedObjects += fp.Objects
					stats.ReclaimedDollars += c.mgr.VersionCost(v).StoragePerMonth
				}
			}()
		}
	}
	wg.Wait()
	return stats
}

// EstimateVersionFootprint implements VersionCoster by delegating to the
// DepSky cost model (see depsky.Footprint and the dollar view in
// depsky/cost.go).
func (c *CloudOfClouds) EstimateVersionFootprint(size int64) VersionFootprint {
	fp := c.mgr.EstimateFootprint(size)
	return VersionFootprint{
		Bytes:              fp.Bytes,
		Objects:            fp.Objects,
		PutRequests:        fp.PutRequests,
		GetRequestsPerRead: fp.GetRequestsPerRead,
		DeleteRequests:     fp.DeleteRequests,
		Dollars:            c.mgr.EstimateCost(size),
	}
}
