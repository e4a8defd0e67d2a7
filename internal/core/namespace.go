package core

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"scfs/internal/coord"
	"scfs/internal/fsapi"
	"scfs/internal/fsmeta"
)

// Namespace operations of the SCFS agent: directories, deletion, renaming,
// stat/readdir and the setfacl/getfacl access-control calls of §2.6.

// Mkdir implements fsapi.FileSystem.
func (a *Agent) Mkdir(ctx context.Context, path string) error {
	if err := a.checkOpen(ctx); err != nil {
		return err
	}
	path = fsmeta.Clean(path)
	if path == "/" {
		return fsapi.ErrExist
	}
	if _, err := a.getMetadata(ctx, path, false); err == nil {
		return fsapi.ErrExist
	} else if !errors.Is(err, fsapi.ErrNotExist) {
		return err
	}
	parentPath := fsmeta.Clean(parentDir(path))
	parent, err := a.getMetadata(ctx, parentPath, true)
	if err != nil {
		return err
	}
	if !parent.IsDir() {
		return fsapi.ErrNotDir
	}
	if parentPath != "/" && !parent.CanWrite(a.opts.User) {
		return fsapi.ErrPermission
	}
	md := fsmeta.NewDir(path, a.opts.User, a.clk.Now())
	return a.putMetadata(ctx, md)
}

// Rmdir implements fsapi.FileSystem.
func (a *Agent) Rmdir(ctx context.Context, path string) error {
	if err := a.checkOpen(ctx); err != nil {
		return err
	}
	path = fsmeta.Clean(path)
	if path == "/" {
		return fsapi.ErrInvalid
	}
	md, err := a.getMetadata(ctx, path, false)
	if err != nil {
		return err
	}
	if !md.IsDir() {
		return fsapi.ErrNotDir
	}
	if !md.CanWrite(a.opts.User) {
		return fsapi.ErrPermission
	}
	children, err := a.listMetadata(ctx, path)
	if err != nil {
		return err
	}
	if len(children) > 0 {
		return fsapi.ErrNotEmpty
	}
	return a.deleteMetadata(ctx, path)
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

// Rename implements fsapi.FileSystem for both files and directories. For
// directories the whole subtree is rewritten, using the coordination
// service's rename trigger (§3.2) and the PNS prefix rename.
func (a *Agent) Rename(ctx context.Context, oldPath, newPath string) error {
	if err := a.checkOpen(ctx); err != nil {
		return err
	}
	oldPath, newPath = fsmeta.Clean(oldPath), fsmeta.Clean(newPath)
	if oldPath == "/" || newPath == "/" || oldPath == newPath {
		return fsapi.ErrInvalid
	}
	if fsmeta.IsChildOf(newPath, oldPath) {
		return fsapi.ErrInvalid
	}
	md, err := a.getMetadata(ctx, oldPath, false)
	if err != nil {
		return err
	}
	if !md.CanWrite(a.opts.User) {
		return fsapi.ErrPermission
	}
	if _, err := a.getMetadata(ctx, newPath, false); err == nil {
		return fsapi.ErrExist
	} else if !errors.Is(err, fsapi.ErrNotExist) {
		return err
	}
	newParent, err := a.getMetadata(ctx, parentDir(newPath), true)
	if err != nil {
		return err
	}
	if !newParent.IsDir() {
		return fsapi.ErrNotDir
	}

	// Move the entry itself.
	if err := a.deleteMetadata(ctx, oldPath); err != nil {
		return err
	}
	md.Path = newPath
	if err := a.putMetadata(ctx, md); err != nil {
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
	} else {
		a.metaCache.Invalidate(oldPath)
		a.metaCache.Invalidate(newPath)
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

// ReadDir implements fsapi.FileSystem. The directory's own metadata (when
// not answered locally) and the listing of its entries reach the
// coordination service as one batch, [Get(dir), List(dir/)].
func (a *Agent) ReadDir(ctx context.Context, path string) ([]fsapi.FileInfo, error) {
	if err := a.checkOpen(ctx); err != nil {
		return nil, err
	}
	path = fsmeta.Clean(path)
	md, found, err := a.localMetadata(path, true)
	if err != nil {
		return nil, err
	}
	var recs []coord.Record
	if a.opts.Coordination != nil {
		var ops []coord.Op
		if !found {
			ops = append(ops, coord.Get(path))
		}
		ops = append(ops, coord.List(listPrefix(path)))
		res, berr := coord.Do(ctx, a.opts.Coordination, ops...)
		if berr != nil {
			return nil, fmt.Errorf("core: listing %q: %w", path, berr)
		}
		if !found {
			md, err = a.recordMetadata(path, res[0].Record, res[0].Err)
		}
		list := res[len(res)-1]
		if err == nil && list.Err != nil {
			err = fmt.Errorf("core: listing %q: %w", path, list.Err)
		}
		recs = list.Records
	}
	if err != nil {
		return nil, err
	}
	if !md.IsDir() {
		return nil, fsapi.ErrNotDir
	}
	children := a.mergeListing(path, recs)
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
// the change is written to the coordination service (which enforces it) and,
// when an ACL propagator is configured, mirrored on the cloud objects holding
// the file data (§2.6). Sharing status changes may move the metadata between
// the private name space and the coordination service (§2.7).
func (a *Agent) SetFacl(ctx context.Context, path, user string, perm fsapi.Permission) error {
	if err := a.checkOpen(ctx); err != nil {
		return err
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

	if a.opts.ACLPropagator != nil && md.Type == fsapi.TypeFile {
		hashes := make([]string, 0, len(md.Versions))
		for _, v := range md.Versions {
			hashes = append(hashes, v.Hash)
		}
		if err := a.opts.ACLPropagator.PropagateACL(ctx, md.FileID, hashes, user, perm); err != nil {
			return fmt.Errorf("core: propagating ACL of %q to the clouds: %w", path, err)
		}
	}
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
