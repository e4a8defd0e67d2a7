package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"scfs/internal/coord"
	"scfs/internal/fsapi"
	"scfs/internal/fsmeta"
	"scfs/internal/storage"
)

// The metadata service of the SCFS agent (§2.5.1): it resolves metadata
// either from the short-lived metadata cache, from the user's private name
// space (for non-shared files, §2.7), or from the coordination service, and
// writes updates back to the right place.

// coordACL builds the coordination-service ACL for a metadata record so that
// the coordination service (not the agent) enforces access control (§2.6).
func coordACL(md *fsmeta.Metadata) coord.ACL {
	return coord.ACL{Owner: md.Owner, Readers: md.Readers(), Writers: md.Writers()}
}

// getMetadata returns the metadata of path from cache, PNS or the
// coordination service. It returns fsapi.ErrNotExist when the path has no
// live metadata (missing or marked deleted).
func (a *Agent) getMetadata(ctx context.Context, path string, useCache bool) (*fsmeta.Metadata, error) {
	path = fsmeta.Clean(path)
	if md, found, err := a.localMetadata(path, useCache); found {
		return md, err
	}
	rec, err := a.opts.Coordination.GetMetadata(ctx, path)
	return a.recordMetadata(path, rec, err)
}

// localMetadata resolves path (already clean) without touching the network:
// the mount root, the short-lived metadata cache when useCache is set, then
// the private name space. found is false when only the coordination service
// can answer; without one, a path unknown locally does not exist.
func (a *Agent) localMetadata(path string, useCache bool) (md *fsmeta.Metadata, found bool, err error) {
	if path == "/" {
		return a.rootMetadata(), true, nil
	}
	if useCache {
		if raw, hit := a.metaCache.Get(path); hit {
			if md, err := fsmeta.Decode(raw); err == nil {
				return liveOrNotExist(md)
			}
		}
	}
	a.mu.Lock()
	pns := a.pns
	a.mu.Unlock()
	if pns != nil {
		if md := pns.Get(path); md != nil {
			return liveOrNotExist(md)
		}
	}
	if a.opts.Coordination == nil {
		return nil, true, fsapi.ErrNotExist
	}
	return nil, false, nil
}

func liveOrNotExist(md *fsmeta.Metadata) (*fsmeta.Metadata, bool, error) {
	if md.Deleted {
		return nil, true, fsapi.ErrNotExist
	}
	return md, true, nil
}

// recordMetadata turns the coordination service's answer to a read of path
// into metadata, refreshing the metadata cache.
func (a *Agent) recordMetadata(path string, rec coord.Record, err error) (*fsmeta.Metadata, error) {
	if errors.Is(err, coord.ErrNotFound) {
		return nil, fsapi.ErrNotExist
	}
	if errors.Is(err, coord.ErrDenied) {
		return nil, fsapi.ErrPermission
	}
	if err != nil {
		return nil, fmt.Errorf("core: reading metadata of %q: %w", path, err)
	}
	md, err := fsmeta.Decode(rec.Value)
	if err != nil {
		return nil, fmt.Errorf("core: corrupt metadata for %q: %w", path, err)
	}
	a.metaCache.Put(path, rec.Value)
	if md.Deleted {
		return nil, fsapi.ErrNotExist
	}
	return md, nil
}

// rootMetadata synthesizes the metadata of the mount root.
func (a *Agent) rootMetadata() *fsmeta.Metadata {
	return &fsmeta.Metadata{Path: "/", Type: fsapi.TypeDir, Owner: a.opts.User, Ctime: a.clk.Now(), Mtime: a.clk.Now()}
}

// putMetadata stores (or replaces) the metadata of a path in the right place
// and refreshes the metadata cache.
func (a *Agent) putMetadata(ctx context.Context, md *fsmeta.Metadata) error {
	return a.putMetadataUnlock(ctx, md, "")
}

// putMetadataUnlock is putMetadata followed, when unlockPath is set, by the
// release of that path's write lock. For a shared file the two travel to the
// coordination service as one batch — the anchor and the release of a close
// are one access — and the lock is released whether or not the put
// succeeded: a failed close must not leave the file locked until the lease
// expires.
func (a *Agent) putMetadataUnlock(ctx context.Context, md *fsmeta.Metadata, unlockPath string) error {
	path := fsmeta.Clean(md.Path)
	raw, err := md.Encode()
	if err != nil {
		return a.failUnlocking(ctx, unlockPath, err)
	}
	if !a.isShared(md) {
		a.mu.Lock()
		a.pns.Put(md)
		a.pnsDirty = true
		a.mu.Unlock()
		a.metaCache.Put(path, raw)
		return a.unlock(ctx, unlockPath)
	}
	ops := []coord.Op{coord.Put(path, raw, coordACL(md))}
	if unlockPath != "" {
		ops = append(ops, coord.Unlock(unlockPath, a.opts.AgentID))
	}
	res, err := coord.Do(ctx, a.opts.Coordination, ops...)
	if err != nil {
		return fmt.Errorf("core: writing metadata of %q: %w", path, err)
	}
	if err := res[0].Err; err != nil {
		if errors.Is(err, coord.ErrDenied) {
			return fsapi.ErrPermission
		}
		return fmt.Errorf("core: writing metadata of %q: %w", path, err)
	}
	// If the entry used to be private, drop it from the PNS.
	a.mu.Lock()
	if a.pns != nil && a.pns.Get(path) != nil {
		a.pns.Remove(path)
		a.pnsDirty = true
	}
	a.mu.Unlock()
	a.metaCache.Put(path, raw)
	if unlockPath != "" && res[1].Err != nil {
		return fmt.Errorf("core: unlocking %q: %w", unlockPath, res[1].Err)
	}
	return nil
}

// deleteMetadata removes the metadata of a path from wherever it lives.
func (a *Agent) deleteMetadata(ctx context.Context, path string) error {
	path = fsmeta.Clean(path)
	a.metaCache.Invalidate(path)
	a.mu.Lock()
	if a.pns != nil && a.pns.Get(path) != nil {
		a.pns.Remove(path)
		a.pnsDirty = true
		a.mu.Unlock()
		return nil
	}
	a.mu.Unlock()
	if a.opts.Coordination == nil {
		return nil
	}
	if err := a.opts.Coordination.DeleteMetadata(ctx, path); err != nil && !errors.Is(err, coord.ErrNotFound) {
		return fmt.Errorf("core: deleting metadata of %q: %w", path, err)
	}
	return nil
}

// listPrefix is the coordination-service key prefix of dir's entries.
func listPrefix(dir string) string {
	if dir == "/" {
		return dir
	}
	return dir + "/"
}

// listMetadata returns the live metadata of the direct children of dir,
// merging the coordination service and the PNS views.
func (a *Agent) listMetadata(ctx context.Context, dir string) ([]*fsmeta.Metadata, error) {
	dir = fsmeta.Clean(dir)
	var recs []coord.Record
	if a.opts.Coordination != nil {
		var err error
		if recs, err = a.opts.Coordination.ListMetadata(ctx, listPrefix(dir)); err != nil {
			return nil, fmt.Errorf("core: listing %q: %w", dir, err)
		}
	}
	return a.mergeListing(dir, recs), nil
}

// mergeListing merges a coordination-service listing under dir (already
// clean) with the PNS view into the live direct children of dir.
func (a *Agent) mergeListing(dir string, recs []coord.Record) []*fsmeta.Metadata {
	seen := make(map[string]*fsmeta.Metadata)
	for _, r := range recs {
		md, err := fsmeta.Decode(r.Value)
		if err != nil {
			continue
		}
		// Warm the metadata cache with every record the listing already
		// paid for: the readdir-then-stat-each-entry burst (ls -l) then
		// costs one coordination round trip instead of one per entry.
		a.metaCache.Put(md.Path, r.Value)
		if md.Deleted {
			continue
		}
		if md.Parent() == dir {
			seen[md.Path] = md
		}
	}
	a.mu.Lock()
	pns := a.pns
	a.mu.Unlock()
	if pns != nil {
		for _, md := range pns.List(dir) {
			if !md.Deleted {
				seen[md.Path] = md
			}
		}
	}
	out := make([]*fsmeta.Metadata, 0, len(seen))
	for _, md := range seen {
		out = append(out, md)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// listSubtree returns every entry under prefix (excluding prefix itself),
// tombstones included, used by the cost report.
func (a *Agent) listSubtree(ctx context.Context, prefix string) ([]*fsmeta.Metadata, error) {
	prefix = fsmeta.Clean(prefix)
	var recs []coord.Record
	if a.opts.Coordination != nil {
		var err error
		if recs, err = a.opts.Coordination.ListMetadata(ctx, listPrefix(prefix)); err != nil {
			return nil, err
		}
	}
	return a.mergeSubtree(prefix, recs), nil
}

// mergeSubtree merges a coordination-service listing under prefix (already
// clean) with the PNS view into every entry under prefix, sorted by path;
// where both hold a path, the PNS entry wins.
func (a *Agent) mergeSubtree(prefix string, recs []coord.Record) []*fsmeta.Metadata {
	seen := make(map[string]*fsmeta.Metadata)
	for _, r := range recs {
		if md, err := fsmeta.Decode(r.Value); err == nil {
			seen[md.Path] = md
		}
	}
	a.mu.Lock()
	pns := a.pns
	a.mu.Unlock()
	if pns != nil {
		for _, md := range pns.ListPrefix(prefix) {
			if md.Path != prefix {
				seen[md.Path] = md
			}
		}
	}
	out := make([]*fsmeta.Metadata, 0, len(seen))
	for _, md := range seen {
		out = append(out, md)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// --- private name space lifecycle ---

// pnsKey is the coordination-service key of the user's PNS tuple.
func (a *Agent) pnsKey() string { return "pns:" + a.opts.User }

// loadPNS fetches the user's private name space at mount time (§2.7): the
// PNS tuple is read (and locked) in the coordination service when one is
// available, then the serialized name space is fetched from the cloud.
func (a *Agent) loadPNS(ctx context.Context) error {
	if a.opts.Coordination != nil {
		// Lock the PNS to prevent two agents logged in as the same user from
		// corrupting it.
		if err := a.opts.Coordination.TryLock(ctx, a.pnsKey(), a.opts.AgentID, a.opts.LockTTL); err != nil {
			if errors.Is(err, coord.ErrLockHeld) {
				return fmt.Errorf("core: private name space of %q is locked by another agent: %w", a.opts.User, fsapi.ErrLocked)
			}
			return err
		}
	}
	data, err := a.opts.PNSStorage.ReadPNS(ctx, a.opts.User)
	if errors.Is(err, storage.ErrPNSNotFound) {
		a.pns = fsmeta.NewPNS(a.opts.User)
		return nil
	}
	if err != nil {
		return fmt.Errorf("core: loading private name space: %w", err)
	}
	pns, err := fsmeta.DecodePNS(data)
	if err != nil {
		return fmt.Errorf("core: decoding private name space: %w", err)
	}
	a.pns = pns
	return nil
}

// flushPNS uploads the private name space if it changed since the last flush.
func (a *Agent) flushPNS(ctx context.Context) error {
	a.mu.Lock()
	if a.pns == nil || !a.pnsDirty {
		a.mu.Unlock()
		return nil
	}
	data, err := a.pns.Encode()
	dirtyCleared := err == nil
	if dirtyCleared {
		a.pnsDirty = false
	}
	a.mu.Unlock()
	if err != nil {
		return err
	}
	if err := a.opts.PNSStorage.WritePNS(ctx, a.opts.User, data); err != nil {
		a.mu.Lock()
		a.pnsDirty = true
		a.mu.Unlock()
		return fmt.Errorf("core: flushing private name space: %w", err)
	}
	a.addStat(func(s *Stats) { s.CloudWrites++; s.CloudBytesUp += int64(len(data)) })
	return nil
}
