package core

import (
	"context"
	"errors"
	"fmt"

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
//
// A run is as deep as a run with nothing to collect, however many files
// changed: three coordination accesses — the collection lock, one listing,
// one batch of every metadata update with the lock's release — and one cloud
// sweep that deletes each file's doomed versions with one metadata read per
// file, sweeping many files at once. Every update in the batch is conditional
// on the record version the listing returned, so a file written, removed or
// re-created since is left for the next run instead of being rolled back to
// what this one read (Kleppmann & Howard: a removal must not erase a write it
// never saw).

// maybeStartGC launches a background collection once the bytes written
// since the previous run reach the W of the policy.
func (a *Agent) maybeStartGC() {
	trigger := a.opts.GC.TriggerBytes
	if trigger <= 0 {
		return
	}
	a.mu.Lock()
	if a.closed || a.gcRunning || a.bytesSinceGC < trigger {
		a.mu.Unlock()
		return
	}
	a.gcRunning = true
	a.bytesSinceGC = 0
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
	// backend cannot attribute dollars).
	ReclaimedDollars float64
}

// Collect runs one synchronous garbage collection pass over the files owned
// by this agent's user: old versions beyond the configured keep-count are
// deleted from the cloud storage, and files previously removed by the user
// have their remaining versions and metadata erased.
//
// The pass lists the metadata and decides what dies (phase 1), deletes it
// from the clouds (phase 2), then updates the metadata (phase 3). A file
// whose record changed after the listing keeps the record it has now.
//
// A user's files have one collector at a time: the pass holds the user's
// collection lock in the coordination service, so a second agent of the
// same user neither deletes the versions this pass is deleting nor writes
// back metadata trimmed from an older listing. An agent that finds the lock
// taken returns fsapi.ErrLocked and collects nothing. The lock is released
// on every path: with the updates when the pass gets that far, on its own
// otherwise.
func (a *Agent) Collect(ctx context.Context) (report GCReport, err error) {
	svc := a.opts.Coordination
	var release []coord.Op // the lock's release, while the pass still owes it
	if svc != nil && a.opts.Mode != NonSharing {
		gcLock := "gc:" + a.opts.User
		if err := svc.TryLock(ctx, gcLock, a.opts.AgentID, a.opts.LockTTL); err != nil {
			if errors.Is(err, coord.ErrLockHeld) {
				return report, fmt.Errorf("core: another agent is collecting the files of %q: %w", a.opts.User, fsapi.ErrLocked)
			}
			return report, fmt.Errorf("core: locking the collection of %q: %w", a.opts.User, err)
		}
		release = []coord.Op{coord.Unlock(gcLock, a.opts.AgentID)}
		defer func() {
			if release != nil {
				_, _ = coord.Do(ctx, svc, release...) // a lost release expires with the lease
			}
		}()
	}
	entries, err := a.listSubtree(ctx, "/")
	if err != nil {
		return report, err
	}

	// Phase 1: decide which records change and which versions die.
	doomed := make(map[string][]string)
	var changed []*fsmeta.Metadata
	for _, md := range entries {
		if md.Owner != a.opts.User || md.IsDir() {
			continue
		}
		report.FilesScanned++
		gone := md.Versions
		if !md.Deleted {
			if gone = md.TrimVersions(a.opts.GC.KeepVersions); len(gone) == 0 {
				continue
			}
		}
		if hashes := doomedHashes(md, gone); len(hashes) > 0 {
			doomed[md.FileID] = hashes
		}
		changed = append(changed, md)
	}

	// Phase 2: delete the doomed versions from the cloud.
	sweep := a.sweepVersions(ctx, doomed)
	report.VersionsDeleted = sweep.Deleted
	report.ReclaimedBytes = sweep.ReclaimedBytes
	report.ReclaimedObjects = sweep.ReclaimedObjects
	report.ReclaimedDollars = sweep.ReclaimedDollars

	// Phase 3: every purge and trim of a record in the coordination service,
	// conditional on the version listed, and the lock's release: one access.
	// Private name space entries change in place.
	var ops []coord.Op
	var batched []*fsmeta.Metadata
	for _, md := range changed {
		a.metaCache.Invalidate(md.Path)
		switch {
		case a.collectLocally(md):
			if md.Deleted {
				report.FilesPurged++
			}
			continue
		case md.Version == 0: // not a listed record: nothing to condition the update on
			continue
		case md.Deleted:
			ops = append(ops, coord.Delete(md.Path, md.Version))
		default:
			ops = append(ops, claim(md.Path, md, md.Version))
		}
		batched = append(batched, md)
	}
	if ops = append(ops, release...); len(ops) > 0 {
		res, err := coord.Do(ctx, svc, ops...)
		if err != nil {
			return report, fmt.Errorf("core: collecting the files of %q: %w", a.opts.User, err)
		}
		release = nil
		for i, md := range batched {
			switch r := res[i]; {
			case r.Err == nil:
				if md.Deleted {
					report.FilesPurged++
				}
			case errors.Is(r.Err, coord.ErrConflict), errors.Is(r.Err, coord.ErrNotFound):
				// Changed since the listing: the next run sees it again.
			default:
				return report, fmt.Errorf("core: collecting %q: %w", md.Path, r.Err)
			}
		}
	}
	return report, a.flushPNS(ctx)
}

// doomedHashes returns the distinct hashes of the versions gone that no
// version md keeps names. The storage addresses a version by file and hash,
// so the versions of one file with the same contents — written A, B, A —
// share what a delete of that hash removes.
func doomedHashes(md *fsmeta.Metadata, gone []fsmeta.VersionRecord) []string {
	skip := make(map[string]bool)
	if !md.Deleted {
		for _, v := range md.Versions {
			skip[v.Hash] = true
		}
	}
	var out []string
	for _, v := range gone {
		if !skip[v.Hash] {
			skip[v.Hash] = true
			out = append(out, v.Hash)
		}
	}
	return out
}

// collectLocally applies md's purge or trim to the private name space if md
// lives there, and reports whether it did.
func (a *Agent) collectLocally(md *fsmeta.Metadata) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.pns == nil || a.pns.Get(md.Path) == nil {
		return false
	}
	if md.Deleted {
		a.pns.Remove(md.Path)
	} else {
		a.pns.Put(md)
	}
	a.pnsDirty = true
	return true
}

// sweepVersions deletes the given fileID -> hashes in one batched sweep and
// returns what was reclaimed.
func (a *Agent) sweepVersions(ctx context.Context, doomed map[string][]string) storage.SweepStats {
	if len(doomed) == 0 {
		return storage.SweepStats{}
	}
	return a.opts.Storage.DeleteVersionsBatch(ctx, doomed)
}
