package core

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"scfs/internal/fsapi"
	"scfs/internal/fsmeta"
)

// Namespace operations of the SCFS agent: directories, deletion, renaming,
// stat/readdir and the setfacl/getfacl access-control calls of §2.6.

// Mkdir implements fsapi.FileSystem. A directory whose record lives in the
// coordination service costs one access, [Get(parent), Cas(path, dir, 0)]:
// the Cas that creates the record is also the lookup that finds the path
// free, and when it is not, its reply says what holds it.
func (a *Agent) Mkdir(ctx context.Context, path string) (err error) {
	if err := a.checkOpen(ctx); err != nil {
		return err
	}
	path = fsmeta.Clean(path)
	if path == "/" {
		return fsapi.ErrExist
	}
	rs := []read{{path: parentDir(path), cache: true}, {path: path, create: fsmeta.NewDir(path, a.opts.User, a.clk.Now())}}
	if _, err := a.readAll(ctx, rs); err != nil {
		return fmt.Errorf("core: creating %q: %w", path, err)
	}
	r := &rs[1]
	defer func() {
		if err != nil && r.created {
			_ = a.deleteMetadata(ctx, path, r.md.Version) // the failure is what the caller needs
		}
	}()
	return a.create(ctx, r, rs[0])
}

// create finishes creating r.create at r.path under parent, the directory
// r's lookup found. The Cas that stood for the lookup may have created the
// record already; if the lookup found the path free instead, the record is
// placed now, over the tombstone found there, if any. A live entry there is
// fsapi.ErrExist.
func (a *Agent) create(ctx context.Context, r *read, parent read) error {
	switch {
	case r.err == nil && !r.created:
		return fsapi.ErrExist
	case r.err != nil && !errors.Is(r.err, fsapi.ErrNotExist):
		return r.err
	case parent.err != nil:
		return parent.err
	case !parent.md.IsDir():
		return fsapi.ErrNotDir
	case parent.md.Path != "/" && !parent.md.CanWrite(a.opts.User):
		return fsapi.ErrPermission
	case r.created:
		return nil
	}
	tomb := r.md
	r.md, r.err = r.create, nil
	return a.place(ctx, r.md, tomb)
}

// Rmdir implements fsapi.FileSystem: [Get(path), List(path/)], then the
// removal of the record read.
func (a *Agent) Rmdir(ctx context.Context, path string) error {
	if err := a.checkOpen(ctx); err != nil {
		return err
	}
	path = fsmeta.Clean(path)
	if path == "/" {
		return fsapi.ErrInvalid
	}
	md, children, err := a.listDir(ctx, path, false)
	if err != nil {
		return err
	}
	if !md.CanWrite(a.opts.User) {
		return fsapi.ErrPermission
	}
	if len(children) > 0 {
		return fsapi.ErrNotEmpty
	}
	return a.deleteMetadata(ctx, path, md.Version)
}

// Unlink implements fsapi.FileSystem. Removed files are only marked as
// deleted in their metadata (multi-versioning, §2.1); the garbage collector
// reclaims their space later.
func (a *Agent) Unlink(ctx context.Context, path string) error {
	if err := a.checkOpen(ctx); err != nil {
		return err
	}
	path = fsmeta.Clean(path)
	md, err := a.getMetadata(ctx, path, false)
	if err != nil {
		return err
	}
	if md.IsDir() {
		return fsapi.ErrIsDir
	}
	if !md.CanWrite(a.opts.User) {
		return fsapi.ErrPermission
	}
	md.Deleted = true
	md.Mtime = a.clk.Now()
	if err := a.putMetadata(ctx, md); err != nil {
		return err
	}
	a.metaCache.Invalidate(path)
	a.memCache.Remove(cacheKey(md.FileID, md.Hash))
	return nil
}

// Rename implements fsapi.FileSystem for both files and directories in three
// coordination accesses: [Get(old), Get(new), Get(new parent)], the record's
// creation at the new path conditional on what was found there, and the old
// record's removal conditional on its version, undone if it fails. For
// directories the subtree follows, through the coordination service's rename
// trigger (§3.2) and the PNS prefix rename.
func (a *Agent) Rename(ctx context.Context, oldPath, newPath string) error {
	if err := a.checkOpen(ctx); err != nil {
		return err
	}
	oldPath, newPath = fsmeta.Clean(oldPath), fsmeta.Clean(newPath)
	if oldPath == "/" || newPath == "/" || oldPath == newPath || fsmeta.IsChildOf(newPath, oldPath) {
		return fsapi.ErrInvalid
	}
	rs := []read{{path: oldPath}, {path: newPath}, {path: parentDir(newPath), cache: true}}
	if _, err := a.readAll(ctx, rs); err != nil {
		return fmt.Errorf("core: renaming %q: %w", oldPath, err)
	}
	md, err := rs[0].md, rs[0].err
	switch {
	case err != nil:
		return err
	case !md.CanWrite(a.opts.User):
		return fsapi.ErrPermission
	case rs[1].err == nil:
		return fsapi.ErrExist
	case !errors.Is(rs[1].err, fsapi.ErrNotExist):
		return rs[1].err
	case rs[2].err != nil:
		return rs[2].err
	case !rs[2].md.IsDir():
		return fsapi.ErrNotDir
	}

	// Move the entry itself.
	moved := md.Clone()
	moved.Path = newPath
	if err := a.place(ctx, moved, rs[1].md); err != nil {
		return err
	}
	if err := a.deleteMetadata(ctx, oldPath, md.Version); err != nil {
		_ = a.deleteMetadata(ctx, newPath, moved.Version) // the failure is what the caller needs
		return err
	}

	// Move the subtree for directories.
	if md.IsDir() {
		if a.opts.Coordination != nil {
			if _, err := a.opts.Coordination.RenamePrefix(ctx, oldPath, newPath); err != nil {
				return fmt.Errorf("core: renaming subtree %q: %w", oldPath, err)
			}
		}
		a.mu.Lock()
		if a.pns != nil {
			if n := a.pns.RenamePrefix(oldPath, newPath); n > 0 {
				a.pnsDirty = true
			}
		}
		a.mu.Unlock()
		a.metaCache.InvalidateAll()
		a.fileIDs.Clear() // the subtree's paths name other records now
	}
	return nil
}

func parentDir(p string) string {
	p = fsmeta.Clean(p)
	idx := strings.LastIndex(p, "/")
	if idx <= 0 {
		return "/"
	}
	return p[:idx]
}

// Stat implements fsapi.FileSystem.
func (a *Agent) Stat(ctx context.Context, path string) (fsapi.FileInfo, error) {
	if err := a.checkOpen(ctx); err != nil {
		return fsapi.FileInfo{}, err
	}
	md, err := a.getMetadata(ctx, path, true)
	if err != nil {
		return fsapi.FileInfo{}, err
	}
	if !md.CanRead(a.opts.User) {
		return fsapi.FileInfo{}, fsapi.ErrPermission
	}
	return md.FileInfo(), nil
}

// ReadDir implements fsapi.FileSystem: one coordination access (listDir).
func (a *Agent) ReadDir(ctx context.Context, path string) ([]fsapi.FileInfo, error) {
	if err := a.checkOpen(ctx); err != nil {
		return nil, err
	}
	_, children, err := a.listDir(ctx, fsmeta.Clean(path), true)
	if err != nil {
		return nil, err
	}
	out := make([]fsapi.FileInfo, 0, len(children))
	for _, c := range children {
		if !c.CanRead(a.opts.User) && c.Owner != a.opts.User {
			continue
		}
		out = append(out, c.FileInfo())
	}
	return out, nil
}

// SetFacl implements fsapi.FileSystem: only the owner may change permissions;
// the change is written to the coordination service, which enforces it
// (§2.6). Sharing status changes may move the metadata between the private
// name space and the coordination service (§2.7).
func (a *Agent) SetFacl(ctx context.Context, path, user string, perm fsapi.Permission) error {
	if err := a.checkOpen(ctx); err != nil {
		return err
	}
	// A record stores only the permissions fsapi defines, and refuses any
	// other as corrupt when it is read back.
	if perm < fsapi.PermNone || perm > fsapi.PermReadWrite {
		return fsapi.ErrInvalid
	}
	path = fsmeta.Clean(path)
	md, err := a.getMetadata(ctx, path, false)
	if err != nil {
		return err
	}
	if md.Owner != a.opts.User {
		return fsapi.ErrPermission
	}
	wasShared := a.isShared(md)
	md.SetACL(user, perm)
	nowShared := a.isShared(md)

	if err := a.putMetadata(ctx, md); err != nil {
		return err
	}
	// If the entry stopped being shared, pull it back into the PNS and drop
	// the coordination-service tuple.
	if wasShared && !nowShared && a.opts.UsePNS && a.opts.Coordination != nil {
		if err := a.opts.Coordination.DeleteMetadata(ctx, path); err != nil {
			return fmt.Errorf("core: retiring coordination tuple for %q: %w", path, err)
		}
		a.mu.Lock()
		a.pns.Put(md)
		a.pnsDirty = true
		a.mu.Unlock()
	}
	a.metaCache.Invalidate(path)
	return nil
}

// GetFacl implements fsapi.FileSystem.
func (a *Agent) GetFacl(ctx context.Context, path string) ([]fsapi.ACLEntry, error) {
	if err := a.checkOpen(ctx); err != nil {
		return nil, err
	}
	md, err := a.getMetadata(ctx, path, true)
	if err != nil {
		return nil, err
	}
	if !md.CanRead(a.opts.User) {
		return nil, fsapi.ErrPermission
	}
	return append([]fsapi.ACLEntry(nil), md.ACL...), nil
}
