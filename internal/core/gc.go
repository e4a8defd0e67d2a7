package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"scfs/internal/coord"
	"scfs/internal/fsapi"
	"scfs/internal/fsmeta"
	"scfs/internal/storage"
)

// Garbage collection (§2.5.3): SCFS keeps every version of every file (and
// files removed by the user) until the garbage collector reclaims them. The
// collector runs at each agent, in the background, driven by two parameters
// set at mount time: the number of written bytes W that triggers a run and
// the number of versions V to keep per file.

// maybeStartGC launches a background collection when the bytes written — or
// the cloud objects created, a proxy for per-request fee pressure — since
// the previous run exceed the configured triggers. The two triggers weigh
// the two axes of the cloud cost model: a workload streaming many chunked
// versions can accumulate thousands of fee-bearing objects while staying
// under any byte budget.
func (a *Agent) maybeStartGC() {
	byteTrigger := a.opts.GC.TriggerBytes
	objTrigger := a.opts.GC.TriggerObjects
	if byteTrigger <= 0 && objTrigger <= 0 {
		return
	}
	a.mu.Lock()
	due := (byteTrigger > 0 && a.bytesSinceGC >= byteTrigger) ||
		(objTrigger > 0 && a.objectsSinceGC >= objTrigger)
	if a.closed || a.gcRunning || !due {
		a.mu.Unlock()
		return
	}
	a.gcRunning = true
	a.bytesSinceGC = 0
	a.objectsSinceGC = 0
	a.mu.Unlock()

	a.addStat(func(s *Stats) { s.GCsTriggered++ })
	go func() {
		defer func() {
			a.mu.Lock()
			a.gcRunning = false
			a.mu.Unlock()
		}()
		// Background collections run under the agent's lifetime context:
		// they outlive the close() that triggered them but not the mount.
		_, _ = a.Collect(a.baseCtx)
	}()
}

// GCReport summarizes one garbage-collection run.
type GCReport struct {
	// FilesScanned is the number of metadata records examined.
	FilesScanned int
	// VersionsDeleted is the number of old versions removed from the cloud.
	VersionsDeleted int
	// FilesPurged is the number of deleted files whose data and metadata
	// were reclaimed.
	FilesPurged int
	// ReclaimedBytes is the cloud storage freed by the run (best-effort
	// estimate; 0 when the backend cannot attribute bytes).
	ReclaimedBytes int64
	// ReclaimedObjects counts the cloud objects removed. Chunked versions
	// free one object per chunk per charged cloud, so this is the
	// request-fee axis of the reclaim: fewer surviving objects mean fewer
	// GET fees per future read and fewer storage-class minimums.
	ReclaimedObjects int64
	// ReclaimedDollars is the recurring storage spend, in $/month, the run
	// stopped accruing (priced by the backend's rate table; 0 when the
	// backend cannot attribute dollars). The sweep issues deletions in
	// descending dollars-per-byte order, so a run cut short still reclaims
	// the most valuable candidates first.
	ReclaimedDollars float64
}

// Collect runs one synchronous garbage collection pass over the files owned
// by this agent's user: old versions beyond the configured keep-count are
// deleted from the cloud storage, and files previously removed by the user
// have their remaining versions and metadata erased.
//
// The pass first walks the metadata to decide what dies, then deletes. When
// the backend supports batched sweeps (the CoC backend resolves every
// file's versions with one bounded-concurrency metadata sweep instead of
// one quorum read per deleted version), all deletions go out as one batch.
//
// A user's files have one collector at a time: the pass holds the user's
// collection lock in the coordination service, so a second agent of the
// same user neither deletes the versions this pass is deleting nor writes
// back metadata trimmed from an older listing. An agent that finds the lock
// taken returns fsapi.ErrLocked and collects nothing.
func (a *Agent) Collect(ctx context.Context) (GCReport, error) {
	var report GCReport
	if a.opts.Coordination != nil && a.opts.Mode != NonSharing {
		gcLock := "gc:" + a.opts.User
		if err := a.opts.Coordination.TryLock(ctx, gcLock, a.opts.AgentID, a.opts.LockTTL); err != nil {
			if errors.Is(err, coord.ErrLockHeld) {
				return report, fmt.Errorf("core: another agent is collecting the files of %q: %w", a.opts.User, fsapi.ErrLocked)
			}
			return report, fmt.Errorf("core: locking the collection of %q: %w", a.opts.User, err)
		}
		defer func() { _ = a.unlock(ctx, gcLock) }() // a lost release expires with the lease
	}
	entries, err := a.listSubtree(ctx, "/")
	if err != nil {
		return report, err
	}
	keep := a.opts.GC.KeepVersions

	// Phase 1: scan metadata, gathering doomed versions per file.
	doomed := make(map[string][]string)
	var purged, trimmed []*fsmeta.Metadata
	for _, md := range entries {
		if md.Owner != a.opts.User || md.IsDir() {
			continue
		}
		report.FilesScanned++
		if md.Deleted {
			for _, v := range md.Versions {
				doomed[md.FileID] = append(doomed[md.FileID], v.Hash)
			}
			purged = append(purged, md)
			continue
		}
		removed := md.TrimVersions(keep)
		if len(removed) == 0 {
			continue
		}
		for _, v := range removed {
			doomed[md.FileID] = append(doomed[md.FileID], v.Hash)
		}
		trimmed = append(trimmed, md)
	}

	// Phase 2: delete the doomed versions from the cloud.
	sweep := a.sweepVersions(ctx, doomed)
	report.VersionsDeleted = sweep.Deleted
	report.ReclaimedBytes = sweep.ReclaimedBytes
	report.ReclaimedObjects = sweep.ReclaimedObjects
	report.ReclaimedDollars = sweep.ReclaimedDollars

	// Phase 3: apply the metadata updates.
	for _, md := range purged {
		if err := a.deleteMetadata(ctx, md.Path); err != nil {
			return report, err
		}
		report.FilesPurged++
	}
	for _, md := range trimmed {
		if err := a.putMetadata(ctx, md); err != nil {
			return report, err
		}
	}
	if err := a.flushPNS(ctx); err != nil {
		return report, err
	}
	return report, nil
}

// sweepVersions deletes the given fileID -> hashes and returns what was
// reclaimed, preferring the backend's batched sweep (which also attributes
// the freed bytes and objects).
func (a *Agent) sweepVersions(ctx context.Context, doomed map[string][]string) storage.SweepStats {
	if len(doomed) == 0 {
		return storage.SweepStats{}
	}
	if sweeper, ok := a.opts.Storage.(storage.VersionSweeper); ok {
		return sweeper.DeleteVersionsBatch(ctx, doomed)
	}
	var stats storage.SweepStats
	var mu sync.Mutex
	var wg sync.WaitGroup
	// Bounded fan-out: a namespace-wide sweep can doom thousands of
	// versions, and unbounded goroutines would fire them all at the cloud
	// at once.
	sem := make(chan struct{}, 4)
	for fileID, hashes := range doomed {
		for _, hash := range hashes {
			wg.Add(1)
			go func(fileID, hash string) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				if err := a.opts.Storage.DeleteVersion(ctx, fileID, hash); err == nil {
					mu.Lock()
					stats.Deleted++
					mu.Unlock()
				}
			}(fileID, hash)
		}
	}
	wg.Wait()
	return stats
}
