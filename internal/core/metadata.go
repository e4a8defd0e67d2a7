package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"

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
	rs := []read{{path: fsmeta.Clean(path), cache: useCache}}
	if _, err := a.readAll(ctx, rs); err != nil {
		return nil, err
	}
	return rs[0].md, rs[0].err
}

// read is one path an operation reads before it writes, and what it learned:
// the path's live metadata, or why there is none (md is then the tombstone of
// a removed file, when the coordination service holds one). A read that goes
// to the coordination service takes the path's write lock ahead of it in the
// same access if lock is set. With create set, and when create would live in
// the coordination service, it is Cas(path, create, 0): that creates the
// record if the path is free and otherwise answers as the Get would have.
type read struct {
	path   string
	cache  bool // the metadata cache may answer
	lock   bool
	create *fsmeta.Metadata

	md              *fsmeta.Metadata
	err, lockErr    error
	locked, created bool
}

// readAll resolves each of rs as getMetadata resolves one — locally where it
// can, the rest in one coordination access that carries extra after the
// reads — and returns extra's results (zero ones without a coordination
// service).
func (a *Agent) readAll(ctx context.Context, rs []read, extra ...coord.Op) ([]coord.Result, error) {
	var ops []coord.Op
	at := make([]int, len(rs))
	for i := range rs {
		r := &rs[i]
		var local bool
		if r.md, local, r.err = a.localMetadata(r.path, r.cache); local {
			at[i] = -1
			continue
		}
		if r.lock {
			ops = append(ops, coord.TryLock(r.path, a.opts.AgentID, a.opts.LockTTL))
		}
		op := coord.Get(r.path)
		if r.create != nil && a.isShared(r.create) {
			op = claim(r.path, r.create, 0)
		}
		at[i], ops = len(ops), append(ops, op)
	}
	if ops = append(ops, extra...); len(ops) == 0 || a.opts.Coordination == nil {
		return make([]coord.Result, len(extra)), nil
	}
	res, err := coord.Do(ctx, a.opts.Coordination, ops...)
	if err != nil {
		return nil, err
	}
	for i, j := range at {
		r := &rs[i]
		switch {
		case j < 0:
			continue
		case ops[j].Kind == coord.OpCas && res[j].Err == nil:
			r.md, r.created = r.create, true
			r.md.Version = res[j].Version
			a.remember(r.path, ops[j].Value, r.md)
		default:
			r.md, r.err = a.recordMetadata(ctx, r.path, res[j])
		}
		switch { // the lock's reply precedes the read's
		case !r.lock:
		case errors.Is(res[j-1].Err, coord.ErrLockHeld):
			r.lockErr = fsapi.ErrLocked
		case res[j-1].Err != nil:
			r.lockErr = fmt.Errorf("core: locking %q: %w", r.path, res[j-1].Err)
		default:
			r.locked = true
		}
	}
	return res[len(ops)-len(extra):], nil
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
			if md, err := fsmeta.DecodeAt(path, raw); err == nil {
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

// recordMetadata turns r, the coordination service's answer to a read of
// path — a Get, or the Cas that stood for one — into metadata, refreshing the
// metadata cache. A Cas that clashed answers with the record it clashed with,
// except a lone one, whose record costs a Get. The record of a removed file
// is fsapi.ErrNotExist together with its tombstone, which a new record at
// path displaces (place).
func (a *Agent) recordMetadata(ctx context.Context, path string, r coord.Result) (*fsmeta.Metadata, error) {
	rec, err := r.Record, r.Err
	if errors.Is(err, coord.ErrConflict) && rec.Key == "" {
		rec, err = a.opts.Coordination.GetMetadata(ctx, path)
	}
	switch {
	case errors.Is(err, coord.ErrNotFound):
		return nil, fsapi.ErrNotExist
	case errors.Is(err, coord.ErrDenied):
		return nil, fsapi.ErrPermission
	case err != nil && !errors.Is(err, coord.ErrConflict):
		return nil, fmt.Errorf("core: reading metadata of %q: %w", path, err)
	}
	md, err := fsmeta.DecodeAt(path, rec.Value)
	if err != nil {
		return nil, fmt.Errorf("core: corrupt metadata for %q: %w", path, err)
	}
	md.Version = rec.Version
	a.remember(path, rec.Value, md)
	if md.Deleted {
		return md, fsapi.ErrNotExist
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
	raw, _ := md.Encode() // cannot fail
	if !a.isShared(md) {
		a.mu.Lock()
		a.pns.Put(md)
		a.pnsDirty = true
		a.mu.Unlock()
		a.remember(path, raw, md)
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
	a.remember(path, raw, md)
	if unlockPath != "" && res[1].Err != nil {
		return fmt.Errorf("core: unlocking %q: %w", unlockPath, res[1].Err)
	}
	return nil
}

// claim is the conditional write of md under key: a Cas expecting the record
// at version (0: no record at all).
func claim(key string, md *fsmeta.Metadata, version uint64) coord.Op {
	raw, _ := md.Encode() // cannot fail
	return coord.Cas(key, raw, version, coordACL(md))
}

// place stores md, a record new at its path: in the private name space as
// putMetadata does, or in the coordination service conditional on what the
// lookup found there — nothing, or tomb, the record of a removed file. The
// tombstone moves aside in the same access, to a key no cleaned path takes,
// where the collector purges it and its versions like any other. A path
// taken since the lookup is fsapi.ErrExist. place sets md.Version.
func (a *Agent) place(ctx context.Context, md, tomb *fsmeta.Metadata) error {
	if !a.isShared(md) {
		return a.putMetadata(ctx, md)
	}
	ops := []coord.Op{claim(md.Path, md, 0)}
	if tomb != nil {
		ops[0].Version = tomb.Version
		ops = append(ops, claim("//"+tomb.FileID, tomb, 0))
	}
	res, err := coord.Do(ctx, a.opts.Coordination, ops...)
	if err == nil {
		err = res[0].Err
	}
	switch {
	case errors.Is(err, coord.ErrConflict):
		return fsapi.ErrExist
	case errors.Is(err, coord.ErrDenied):
		return fsapi.ErrPermission
	case err != nil:
		return fmt.Errorf("core: creating %q: %w", md.Path, err)
	}
	md.Version = res[0].Version
	a.remember(md.Path, ops[0].Value, md)
	return nil
}

// remember caches raw, the encoding of md, as the record at path, and keeps
// the file-ID hint of path in step: a live file's ID, none for anything else.
func (a *Agent) remember(path string, raw []byte, md *fsmeta.Metadata) {
	a.metaCache.Put(path, raw)
	if md.Deleted || md.IsDir() {
		a.fileIDs.Remove(path)
	} else {
		a.fileIDs.Put(path, []byte(md.FileID))
	}
}

// deleteMetadata removes the metadata of a path from wherever it lives; from
// the coordination service only the record at version, the one the caller
// read (0: whatever is there).
func (a *Agent) deleteMetadata(ctx context.Context, path string, version uint64) error {
	path = fsmeta.Clean(path)
	a.metaCache.Invalidate(path)
	a.fileIDs.Remove(path)
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
	res, err := coord.Do(ctx, a.opts.Coordination, coord.Delete(path, version))
	if err == nil {
		err = res[0].Err
	}
	if err != nil {
		return fmt.Errorf("core: deleting metadata of %q: %w", path, err)
	}
	return nil
}

// byPath orders metadata by path.
func byPath(x, y *fsmeta.Metadata) int { return cmp.Compare(x.Path, y.Path) }

// listPrefix is the coordination-service key prefix of dir's entries.
func listPrefix(dir string) string {
	if dir == "/" {
		return dir
	}
	return dir + "/"
}

// listDir reads dir's metadata (the metadata cache may answer when useCache
// is set) and the live metadata of its entries, merging the coordination
// service's listing with the PNS view, in one coordination access:
// [Get(dir), List(dir/)].
func (a *Agent) listDir(ctx context.Context, dir string, useCache bool) (*fsmeta.Metadata, []*fsmeta.Metadata, error) {
	rs := []read{{path: dir, cache: useCache}}
	res, err := a.readAll(ctx, rs, coord.List(listPrefix(dir)))
	switch {
	case err != nil:
		return nil, nil, fmt.Errorf("core: listing %q: %w", dir, err)
	case rs[0].err != nil:
		return nil, nil, rs[0].err
	case !rs[0].md.IsDir():
		return nil, nil, fsapi.ErrNotDir
	case res[0].Err != nil:
		return nil, nil, fmt.Errorf("core: listing %q: %w", dir, res[0].Err)
	}
	return rs[0].md, a.mergeListing(dir, res[0].Records), nil
}

// mergeListing merges a coordination-service listing under dir (already
// clean) with the PNS view into the live direct children of dir.
func (a *Agent) mergeListing(dir string, recs []coord.Record) []*fsmeta.Metadata {
	seen := make(map[string]*fsmeta.Metadata)
	for _, r := range recs {
		md, err := fsmeta.DecodeAt(r.Key, r.Value)
		if err != nil {
			continue
		}
		// Warm the metadata cache with every record the listing already
		// paid for: the readdir-then-stat-each-entry burst (ls -l) then
		// costs one coordination round trip instead of one per entry.
		a.metaCache.Put(r.Key, r.Value)
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
	return slices.SortedFunc(maps.Values(seen), byPath)
}

// listSubtree returns every entry under prefix (excluding prefix itself),
// tombstones included, for the collector and the cost report.
func (a *Agent) listSubtree(ctx context.Context, prefix string) ([]*fsmeta.Metadata, error) {
	prefix = fsmeta.Clean(prefix)
	res, err := a.readAll(ctx, nil, coord.List(listPrefix(prefix)))
	if err != nil {
		return nil, err
	}
	return a.mergeSubtree(prefix, res[0].Records), res[0].Err
}

// mergeSubtree merges a coordination-service listing under prefix (already
// clean) with the PNS view into every entry under prefix, sorted by path;
// where both hold a path, the PNS entry wins.
func (a *Agent) mergeSubtree(prefix string, recs []coord.Record) []*fsmeta.Metadata {
	seen := make(map[string]*fsmeta.Metadata)
	for _, r := range recs {
		if md, err := fsmeta.DecodeAt(r.Key, r.Value); err == nil {
			md.Version = r.Version
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
	return slices.SortedFunc(maps.Values(seen), byPath)
}

// --- private name space lifecycle ---

// pnsKey is the coordination-service key of the user's PNS tuple.
func (a *Agent) pnsKey() string { return "pns:" + a.opts.User }

// loadPNS fetches the user's private name space at mount time (§2.7): the
// PNS tuple is read (and locked) in the coordination service when one is
// available, then the serialized name space is fetched from the cloud.
func (a *Agent) loadPNS(ctx context.Context) error {
	if a.opts.Coordination != nil {
		// Lock the PNS for the mount's lifetime, to prevent two agents logged
		// in as the same user from corrupting it.
		var err error
		if a.pnsLease, err = coord.Hold(ctx, a.opts.Coordination, a.pnsKey(), a.opts.AgentID, a.opts.LockTTL, a.clk); errors.Is(err, coord.ErrLockHeld) {
			return fmt.Errorf("core: private name space of %q is locked by another agent: %w", a.opts.User, fsapi.ErrLocked)
		} else if err != nil {
			return err
		}
	}
	data, err := a.opts.PNSStorage.ReadPNS(ctx, a.opts.User)
	if errors.Is(err, storage.ErrPNSNotFound) {
		a.pns = fsmeta.NewPNS()
		return nil
	}
	if err != nil {
		return fmt.Errorf("core: loading private name space: %w", err)
	}
	pns, err := fsmeta.DecodePNS(a.opts.User, data)
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
	data := a.pns.Encode()
	a.pnsDirty = false
	a.mu.Unlock()
	if err := a.opts.PNSStorage.WritePNS(ctx, a.opts.User, data); err != nil {
		a.mu.Lock()
		a.pnsDirty = true
		a.mu.Unlock()
		return fmt.Errorf("core: flushing private name space: %w", err)
	}
	a.addStat(func(s *Stats) { s.CloudWrites++; s.CloudBytesUp += int64(len(data)) })
	return nil
}
