package core

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"scfs/internal/clock"
	"scfs/internal/fsapi"
	"scfs/internal/fsmeta"
	"scfs/internal/seccrypto"
	"scfs/internal/storage"
)

// openFile is the per-path in-memory state shared by all handles opened on
// the same path by this agent. SCFS reads and writes whole files: the full
// contents live here while the file is open (durability level 0) — except
// for large files opened read-only over a range-capable backend, whose
// contents are served through lazy (it stays non-nil until the last handle
// closes; data takes precedence once a writable open materializes the file).
type openFile struct {
	agent    *Agent
	path     string
	meta     *fsmeta.Metadata
	data     []byte
	lazy     storage.ReaderAtCloser
	hash     string // of data, while it is what WriteFile wrote; else ""
	dirty    bool
	locked   bool
	writable bool
	refs     int
}

// handle is one open descriptor over an openFile; it implements fsapi.Handle.
type handle struct {
	of     *openFile
	flags  fsapi.OpenFlag
	closed bool
	early  *earlyUpload // WriteFile's, for the close to anchor
}

var _ fsapi.Handle = (*handle)(nil)

// cacheKey addresses a specific version of a file in the caches, so a cached
// copy is valid exactly when its hash matches the metadata (the validation
// step of §2.5.1).
func cacheKey(fileID, hash string) string { return fileID + "@" + hash }

// wipKey addresses what Fsync flushed of a file still open: contents that
// are not a version yet, so no hash names them. The close that stores them
// as a version (or the last close, if none does) removes the entry.
func wipKey(fileID string) string { return fileID + "@wip" }

// Open implements fsapi.FileSystem, following the open flow of Figure 4:
// acquire the write lock (writable opens of shared files), read the
// metadata, and bring the file data into the local cache.
//
// Lock and metadata cost at most one coordination access: whatever cannot be
// answered locally travels as one ordered batch, [TryLock(path), Get(path),
// Get(parent)], the parent read only by an open that may create the file.
// The read is ordered behind the lock grant, so a writer always opens the
// version its predecessor's close anchored (the predecessor's put precedes
// its unlock, the unlock precedes this grant, the grant precedes this read).
// For the same reason a writable open never trusts the metadata cache. A
// path answered locally is in the private name space, whose files take no
// lock. When a new file would live in the coordination service, the Get is
// Cas(path, new file, 0): the lookup that finds the path free creates it.
// WriteFile may be uploading the new contents while this access is in
// flight; nothing is anchored before it returns the lock.
func (a *Agent) Open(ctx context.Context, path string, flags fsapi.OpenFlag) (_ fsapi.Handle, err error) {
	if err := a.checkOpen(ctx); err != nil {
		return nil, err
	}
	path = fsmeta.Clean(path)
	if path == "/" {
		return nil, fsapi.ErrIsDir
	}

	a.mu.Lock()
	existing, isOpen := a.openFiles[path]
	held := isOpen && existing.locked
	a.mu.Unlock()

	rs := []read{{path: path, cache: !flags.Writable(), lock: flags.Writable() && !held && a.opts.Mode != NonSharing}}
	var fresh *fsmeta.Metadata
	if flags&fsapi.Create != 0 {
		fresh = fsmeta.NewFile(path, a.opts.User, "f-"+randomID(), a.clk.Now())
		rs = append(rs, read{path: parentDir(path), cache: true})
	}
	if !held { // else the file is there: the Cas would clash, alone at the cost of a Get
		rs[0].create = fresh
	}
	_, err = a.readAll(ctx, rs)
	// A record the lookup created is removed again if the open fails (a lost
	// removal leaves an empty file). A lock it acquired is released then too
	// (the lease bounds a lost release), or as soon as the file turns out to
	// need none.
	r := &rs[0]
	lockedHere := r.locked
	defer func() {
		if err != nil && r.created {
			_ = a.deleteMetadata(ctx, path, r.md.Version) // the open's own failure is what the caller needs
		}
		if err != nil && lockedHere {
			_ = a.unlock(ctx, path)
		}
	}()
	if err != nil {
		return nil, fmt.Errorf("core: opening %q: %w", path, err)
	} else if r.lockErr != nil {
		return nil, r.lockErr
	}

	switch {
	case r.created || r.err != nil && flags&fsapi.Create != 0:
		r.create = fresh
		if err := a.create(ctx, r, rs[1]); err != nil {
			return nil, err
		}
	case r.err != nil:
		return nil, r.err
	case flags&fsapi.Create != 0 && flags&fsapi.Exclusive != 0:
		return nil, fsapi.ErrExist
	}
	md := r.md
	if md.IsDir() {
		return nil, fsapi.ErrIsDir
	}
	if flags.Writable() && !md.CanWrite(a.opts.User) {
		return nil, fsapi.ErrPermission
	}
	if flags.Readable() && !md.CanRead(a.opts.User) {
		return nil, fsapi.ErrPermission
	}

	// Only shared files opened for writing keep the write lock (step 2 of
	// the open flow). Private (PNS) files are invisible to other users and
	// need none.
	needLock := flags.Writable() && a.opts.Coordination != nil && a.isShared(md)
	if lockedHere && !needLock {
		lockedHere = false
		if err := a.unlock(ctx, path); err != nil {
			return nil, err
		}
	}

	a.mu.Lock()
	defer a.mu.Unlock()
	of, ok := a.openFiles[path]
	if !ok {
		of = &openFile{agent: a, path: path, meta: md}
		a.openFiles[path] = of
	}
	of.refs++
	if flags.Writable() {
		of.writable = true
	}

	// Step 3: bring the file data into memory — or, for a version larger
	// than residencyBound opened read-only, attach a ranged reader so the
	// whole object never has to be resident.
	if of.refs == 1 || (of.data == nil && of.lazy == nil) {
		switch {
		case md.Hash() == "": // empty, a new file among them
			of.data = nil
		case flags&fsapi.Truncate != 0:
			of.data = nil
			of.dirty, of.hash = true, ""
		default:
			data, lazy, err := a.fetchForOpen(ctx, md, flags)
			if err != nil {
				of.refs--
				if of.refs == 0 {
					delete(a.openFiles, path)
				}
				return nil, err
			}
			of.data, of.lazy = data, lazy
		}
	} else if flags&fsapi.Truncate != 0 {
		of.data = nil
		if of.lazy != nil {
			// A non-nil empty buffer, not nil: nil-with-lazy means "serve
			// reads through the ranged reader", which would resurrect the
			// pre-truncate contents.
			of.data = []byte{}
		}
		of.dirty, of.hash = true, ""
	}
	// A writable open while the contents are served lazily materializes the
	// full data (writes mutate the in-memory copy); the ranged reader stays
	// attached for handles already reading through it and is closed with
	// the last handle.
	if flags.Writable() && !of.dirty && of.data == nil && of.lazy != nil {
		data, _, err := a.fetchForOpen(ctx, md, flags)
		if err != nil {
			of.refs--
			if of.refs == 0 {
				lazyToClose := of.lazy
				delete(a.openFiles, path)
				defer lazyToClose.Close()
			}
			return nil, err
		}
		of.data = data
	}
	of.meta = md
	if needLock {
		of.locked = true
	}
	a.addStat(func(s *Stats) { s.FilesOpened++ })
	return &handle{of: of, flags: flags}, nil
}

// WriteFile implements fsapi.FileSystem: Open(ReadWrite|Create|Truncate),
// one write of data and the close. A version is uploaded under its file's ID,
// which the open's lookup returns; in blocking mode, when the file-ID hint
// knows the file at path, data is uploaded under the hinted ID while the
// open's access takes the lock and reads the metadata. The close anchors
// that upload if the open found the same file and the contents are still
// data; else it cancels it and uploads as always. An upload no close
// anchored is left in the clouds, since its prefix may hold a live version
// of the same bytes, and counted in Stats.WastedUploads. Every upload has
// ended when WriteFile returns.
func (a *Agent) WriteFile(ctx context.Context, path string, data []byte) error {
	var early *earlyUpload
	var hash string
	if id, ok := a.fileIDs.Get(fsmeta.Clean(path)); ok && a.opts.Mode == Blocking && len(data) > 0 && a.checkOpen(ctx) == nil {
		// ctx cancels the upload until a close takes it; after that, what of
		// it is still in flight runs on as a close's own upload would.
		uctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
		stop := context.AfterFunc(ctx, cancel)
		hash = seccrypto.Hash(data)
		early = &earlyUpload{fileID: string(id), hash: hash, cancel: cancel, done: make(chan struct{})}
		go func() {
			defer close(early.done)
			early.err = a.opts.Storage.WriteVersion(uctx, early.fileID, hash, data)
		}()
		defer func() {
			if stop(); !early.taken {
				cancel()
				<-early.done
				a.addStat(func(s *Stats) { s.WastedUploads++ })
			}
		}()
	}
	h, err := a.Open(ctx, path, fsapi.ReadWrite|fsapi.Create|fsapi.Truncate)
	if err != nil {
		return err
	}
	hd := h.(*handle)
	hd.early = early
	if len(data) > 0 {
		_, err = hd.write(ctx, data, 0, hash)
	}
	return cmp.Or(err, hd.Close(ctx)) // a failed write is still closed
}

// cachedData returns the contents of the current version of md from the
// memory or disk cache, if present and valid.
func (a *Agent) cachedData(md *fsmeta.Metadata) ([]byte, bool) {
	hash := md.Hash()
	key := cacheKey(md.FileID, hash)
	if data, ok := a.memCache.Get(key); ok {
		return data, true
	}
	if data, ok := a.diskCache.Get(key); ok {
		if seccrypto.VerifyHash(data, hash) {
			a.memCache.Put(key, data)
			return data, true
		}
		a.diskCache.Remove(key)
	}
	return nil, false
}

// The read side of the consistency anchor (Figure 3): the hash in the
// metadata (r1) names a version the eventually consistent clouds may not
// show yet, so the storage service is asked for it (r2) until it does; the
// backend verifies what it returns against that hash (r3).
const (
	// visibilityAttempts bounds the loop: a version that has not appeared
	// after this many requests is reported missing.
	visibilityAttempts = 120
	// visibilityPause separates two requests (six seconds over the whole
	// bound).
	visibilityPause = 50 * time.Millisecond
)

// awaitVisible is that loop, the one every cloud read of a mount runs: it
// repeats attempt, one request to the storage service for the version the
// metadata of path anchors, while the answer is storage.ErrVersionNotFound.
// Any other answer ends it at once — the value, or an error no wait cures
// (an outage, a failed integrity check), wrapped under doing, a format that
// takes the path. Cancelling ctx during a pause returns ctx.Err().
func awaitVisible[T any](ctx context.Context, clk clock.Clock, path, doing string, attempt func() (T, error)) (T, error) {
	var none T
	var err error
	for n := 0; n < visibilityAttempts; n++ {
		var v T
		if v, err = attempt(); err == nil {
			return v, nil
		}
		if !errors.Is(err, storage.ErrVersionNotFound) {
			return none, fmt.Errorf("core: %s: %w", fmt.Sprintf(doing, path), err)
		}
		if cerr := clock.SleepCtx(ctx, clk, visibilityPause); cerr != nil {
			return none, cerr
		}
	}
	return none, fmt.Errorf("core: version of %q never became visible: %w", path, err)
}

// fetchForOpen brings the current version of md into reach for an open:
// the memory cache, then the disk cache, then the cloud backend
// (awaitVisible), whose answer populates both caches. A read-only open of a
// version larger than residencyBound that no cache holds gets a ranged
// reader instead, so ReadAt fetches only the chunks it covers. Exactly one
// of data and lazy is non-nil on success.
func (a *Agent) fetchForOpen(ctx context.Context, md *fsmeta.Metadata, flags fsapi.OpenFlag) ([]byte, storage.ReaderAtCloser, error) {
	if data, ok := a.cachedData(md); ok {
		return data, nil, nil
	}
	hash := md.Hash()
	if !flags.Writable() && md.Size > residencyBound {
		lazy, err := awaitVisible(ctx, a.clk, md.Path, "opening %q for ranged reads", func() (storage.ReaderAtCloser, error) {
			return a.opts.Storage.OpenVersionAt(ctx, md.FileID, hash)
		})
		if err != nil {
			return nil, nil, err
		}
		a.addStat(func(s *Stats) { s.CloudReads++ })
		return nil, lazy, nil
	}
	data, err := awaitVisible(ctx, a.clk, md.Path, "reading %q from the cloud", func() ([]byte, error) {
		return a.opts.Storage.ReadVersion(ctx, md.FileID, hash)
	})
	if err != nil {
		return nil, nil, err
	}
	a.addStat(func(s *Stats) { s.CloudReads++; s.CloudBytesDown += int64(len(data)) })
	key := cacheKey(md.FileID, hash)
	a.diskCache.Put(key, data)
	a.memCache.Put(key, data)
	return data, nil, nil
}

// --- handle operations ---

// ReadAt implements fsapi.Handle. Reads are served from the in-memory copy
// (Figure 4: read only touches the memory cache) — except for large files
// opened read-only, whose ranged reader fetches only the chunks covering
// the requested range from the cloud backend.
func (h *handle) ReadAt(ctx context.Context, p []byte, off int64) (int, error) {
	a := h.of.agent
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	a.mu.Lock()
	if h.closed {
		a.mu.Unlock()
		return 0, fsapi.ErrClosed
	}
	if !h.flags.Readable() {
		a.mu.Unlock()
		return 0, fsapi.ErrPermission
	}
	if off < 0 {
		a.mu.Unlock()
		return 0, fsapi.ErrInvalid
	}
	if h.of.data == nil && h.of.lazy != nil {
		// Ranged read outside the agent lock: the reader is safe for
		// concurrent use and may touch the network.
		lazy := h.of.lazy
		a.mu.Unlock()
		return lazy.ReadAtContext(ctx, p, off)
	}
	defer a.mu.Unlock()
	if off >= int64(len(h.of.data)) {
		return 0, io.EOF
	}
	n := copy(p, h.of.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt implements fsapi.Handle. Writes update only the memory cache and
// the cached metadata (durability level 0).
func (h *handle) WriteAt(ctx context.Context, p []byte, off int64) (int, error) {
	return h.write(ctx, p, off, "")
}

// write is WriteAt of p, whose hash WriteFile knows: if the write leaves
// the file holding exactly p, the close need not hash it again.
func (h *handle) write(ctx context.Context, p []byte, off int64, hash string) (int, error) {
	a := h.of.agent
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if h.closed {
		return 0, fsapi.ErrClosed
	}
	if !h.flags.Writable() {
		return 0, fsapi.ErrReadOnly
	}
	if off < 0 {
		return 0, fsapi.ErrInvalid
	}
	end := off + int64(len(p))
	h.of.data = grow(h.of.data, end)
	copy(h.of.data[off:end], p)
	h.of.dirty, h.of.hash = true, ifThen(off == 0 && end == int64(len(h.of.data)), hash)
	h.of.meta.Size = int64(len(h.of.data))
	h.of.meta.Mtime = a.clk.Now()
	a.addStat(func(s *Stats) { s.BytesWritten += int64(len(p)) })
	return len(p), nil
}

// grow extends data to size bytes, zero-filling what it adds (the gap a
// sparse write leaves, and what a shrink left behind in the capacity). The
// capacity at least doubles when it has to grow, so a file written by appends
// is copied at most twice over, not once per append.
func grow(data []byte, size int64) []byte {
	cur := int64(len(data))
	switch {
	case size <= cur:
		return data
	case size > int64(cap(data)):
		grown := make([]byte, size, max(size, 2*int64(cap(data))))
		copy(grown, data)
		return grown
	default:
		data = data[:size]
		clear(data[cur:])
		return data
	}
}

// Truncate implements fsapi.Handle.
func (h *handle) Truncate(ctx context.Context, size int64) error {
	a := h.of.agent
	if err := ctx.Err(); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if h.closed {
		return fsapi.ErrClosed
	}
	if !h.flags.Writable() {
		return fsapi.ErrReadOnly
	}
	if size < 0 {
		return fsapi.ErrInvalid
	}
	if size < int64(len(h.of.data)) {
		h.of.data = h.of.data[:size]
	} else {
		h.of.data = grow(h.of.data, size)
	}
	h.of.dirty, h.of.hash = true, ""
	h.of.meta.Size = size
	h.of.meta.Mtime = a.clk.Now()
	return nil
}

// Fsync implements fsapi.Handle: the contents are flushed to the local disk
// cache (durability level 1 — survives a process or OS crash, not a disk
// failure).
func (h *handle) Fsync(ctx context.Context) error {
	a := h.of.agent
	if err := ctx.Err(); err != nil {
		return err
	}
	a.mu.Lock()
	if h.closed {
		a.mu.Unlock()
		return fsapi.ErrClosed
	}
	data := append([]byte(nil), h.of.data...)
	fileID := h.of.meta.FileID
	a.mu.Unlock()
	return a.diskCache.Put(wipKey(fileID), data)
}

// Stat implements fsapi.Handle.
func (h *handle) Stat(ctx context.Context) (fsapi.FileInfo, error) {
	a := h.of.agent
	if err := ctx.Err(); err != nil {
		return fsapi.FileInfo{}, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if h.closed {
		return fsapi.FileInfo{}, fsapi.ErrClosed
	}
	info := h.of.meta.FileInfo()
	if h.of.data == nil && h.of.lazy != nil {
		info.Size = h.of.lazy.Size()
	} else {
		info.Size = int64(len(h.of.data))
	}
	return info, nil
}

// Close implements fsapi.Handle, following the close flow of Figure 4: the
// updated data is copied to the local disk and to the storage cloud, the
// metadata is pushed to the coordination service, and the lock is released.
// In blocking mode all of this happens before Close returns; in non-blocking
// and non-sharing modes the cloud synchronization happens in the background
// while mutual exclusion is preserved (the lock is only released after the
// upload completes). The handle of a WriteFile anchors the upload WriteFile
// started beside its open, if it stored exactly these contents under this
// file's ID, and does not hash the contents again.
func (h *handle) Close(ctx context.Context) error {
	a := h.of.agent
	a.mu.Lock()
	if h.closed {
		a.mu.Unlock()
		return fsapi.ErrClosed
	}
	h.closed = true
	of := h.of
	of.refs--
	lastRef := of.refs == 0
	wasDirty := of.dirty && h.flags.Writable()
	wip := wipKey(of.meta.FileID)
	var data []byte
	var md *fsmeta.Metadata
	hash := of.hash
	if wasDirty {
		// The last handle hands the contents over: nothing can write to them
		// once the file is closed. A close with other handles still open
		// uploads a copy, since their writes go on.
		data = of.data
		if !lastRef {
			data = bytes.Clone(data)
		}
		md = of.meta
		of.dirty = false
	}
	shouldUnlock := lastRef && of.locked
	var lazyToClose storage.ReaderAtCloser
	if lastRef {
		delete(a.openFiles, of.path)
		lazyToClose, of.lazy = of.lazy, nil
	}
	a.mu.Unlock()

	if lazyToClose != nil {
		_ = lazyToClose.Close()
	}
	a.addStat(func(s *Stats) { s.FilesClosed++ })

	if !wasDirty {
		if lastRef {
			a.diskCache.Remove(wip) // nothing is left to become a version
		}
		if shouldUnlock {
			return a.unlock(ctx, of.path)
		}
		return nil
	}

	// Record the new version and make it locally durable (level 1).
	if hash == "" {
		hash = seccrypto.Hash(data)
	}
	md.AddVersion(hash, int64(len(data)), a.clk.Now())
	key := cacheKey(md.FileID, hash)
	task := uploadTask{md: md, hash: hash, size: int64(len(data)), unlockPath: ifThen(shouldUnlock, of.path), early: h.early}
	if err := a.diskCache.Put(key, data); err != nil {
		return a.failUnlocking(ctx, task.unlockPath, err)
	}
	a.diskCache.Remove(wip) // superseded by the version's own entry
	a.memCache.Put(key, data)

	a.mu.Lock()
	a.bytesSinceGC += int64(len(data))
	a.mu.Unlock()
	defer a.maybeStartGC()

	if a.opts.Mode == Blocking {
		task.payload = data
		return a.syncToCloud(ctx, task)
	}

	// Non-blocking / non-sharing: enqueue the upload; the uploader updates
	// the metadata and releases the lock when the data is in the cloud.
	// The payload itself is NOT carried by the queue — it was just made
	// durable in the disk cache, so the task pins that entry and the
	// uploader streams it back out of the cache. The queue's memory is
	// thereby bounded by its task structs, not by the dirty file sizes; the
	// in-memory copy rides along only in the edge case where the disk cache
	// could not retain the entry (a value larger than the whole cache).
	task.md = md.Clone()
	if !a.diskCache.Pin(key) {
		task.payload = data
	}
	a.addStat(func(s *Stats) { s.UploadsQueued++ })
	a.uploadCh <- task
	return nil
}

func ifThen(cond bool, v string) string {
	if cond {
		return v
	}
	return ""
}

// syncToCloud performs the cloud side of a close, for the blocking Close
// and the background uploader alike: write the data version to the storage
// backend (step w2), then anchor it by updating the metadata (step w3) and
// release the write lock the close holds — for a shared file one
// coordination access. A failed upload has nothing to anchor but still
// releases the lock.
func (a *Agent) syncToCloud(ctx context.Context, task uploadTask) error {
	size, err := a.uploadVersion(ctx, task)
	if err != nil {
		return a.failUnlocking(ctx, task.unlockPath, fmt.Errorf("core: uploading %q: %w", task.md.Path, err))
	}
	a.addStat(func(s *Stats) { s.CloudWrites++; s.CloudBytesUp += size })
	err = a.putMetadataUnlock(ctx, task.md, task.unlockPath)
	if err == nil && !a.isShared(task.md) && a.pnsFor(task.md) {
		err = a.flushPNS(ctx)
	}
	return err
}

// uploadVersion writes the task's version to the storage backend and
// reports its size. The payload comes from the task when it carries one,
// else it is streamed from the disk-cache entry Close pinned, chunk by chunk,
// so neither the queue nor the upload holds the whole value in memory. The
// pinned entry is released once the attempt finishes.
func (a *Agent) uploadVersion(ctx context.Context, task uploadTask) (int64, error) {
	if e := task.early; e != nil {
		if e.fileID == task.md.FileID && e.hash == task.hash {
			<-e.done
			e.taken = true
			return task.size, e.err
		}
		e.cancel() // the open found another file, or the contents changed
	}
	key := cacheKey(task.md.FileID, task.hash)
	data := task.payload
	if data == nil {
		defer a.diskCache.Unpin(key)
		if f, size, ok := a.diskCache.Open(key); ok {
			defer f.Close()
			return size, a.opts.Storage.WriteVersionFrom(ctx, task.md.FileID, task.hash, f)
		}
		// The pinned entry is gone (a crash-recovery edge or an explicit
		// cache clear); the memory cache may still hold the version.
		var ok bool
		if data, ok = a.memCache.Get(key); !ok {
			return 0, fmt.Errorf("queued version (hash %s) lost from the local caches", task.hash)
		}
	}
	return int64(len(data)), a.opts.Storage.WriteVersion(ctx, task.md.FileID, task.hash, data)
}

// pnsFor reports whether md's metadata is kept in the PNS.
func (a *Agent) pnsFor(md *fsmeta.Metadata) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.pns != nil && a.pns.Get(md.Path) != nil
}

// unlock releases path's write lock; an empty path means no lock is held.
func (a *Agent) unlock(ctx context.Context, path string) error {
	if path == "" || a.opts.Coordination == nil {
		return nil
	}
	if err := a.opts.Coordination.Unlock(ctx, path, a.opts.AgentID); err != nil {
		return fmt.Errorf("core: unlocking %q: %w", path, err)
	}
	return nil
}

// failUnlocking returns err, the failure of a close, after releasing the
// write lock the close holds: the caller is about to learn its data did not
// make it, and the file must not also stay locked until the lease expires.
// A release that fails too is not reported over err; the lease bounds it.
func (a *Agent) failUnlocking(ctx context.Context, unlockPath string, err error) error {
	_ = a.unlock(ctx, unlockPath)
	return err
}

// --- background uploader ---

// uploadTask is one queued background upload. It deliberately carries no
// payload: the dirty version is already durable in the disk cache (Close
// wrote and pinned it before enqueueing), and the worker streams it back
// out of the cache. A queue of thousands of pending uploads therefore costs
// metadata-sized memory, not the sum of the dirty file sizes. payload is
// set only by a blocking close (which uploads at once) and when the disk
// cache could not retain the entry. unlockPath, when set, is the write lock
// to release once the upload attempt is over.
type uploadTask struct {
	md         *fsmeta.Metadata
	hash       string
	size       int64
	payload    []byte
	unlockPath string
	early      *earlyUpload
	// barrier, when non-nil, marks a synchronization point: the worker closes
	// it without doing any work (used by WaitForUploads).
	barrier chan struct{}
}

// earlyUpload is a version WriteFile uploads under the file ID its hint
// names, beside its open's coordination access.
type earlyUpload struct {
	fileID, hash string
	cancel       context.CancelFunc
	done         chan struct{} // closed once err is set
	err          error
	taken        bool // a close used it instead of uploading
}

// uploadWorker drains the upload queue, preserving per-agent ordering (a
// single worker) so later versions of a file are never overtaken by earlier
// ones. Uploads run under the agent's lifetime context, not the context of
// the Close that queued them: a cancelled request must not lose a write the
// caller was told is locally durable. A forced Unmount cancels the lifetime
// context and aborts them.
func (a *Agent) uploadWorker() {
	defer a.uploadWG.Done()
	for task := range a.uploadCh {
		if task.barrier != nil {
			close(task.barrier)
			continue
		}
		if err := a.syncToCloud(a.baseCtx, task); err != nil {
			a.addStat(func(s *Stats) { s.UploadErrors++ })
		}
		a.maybeStartGC()
	}
}

// WaitForUploads blocks until every queued upload at the time of the call
// has been processed, or until ctx is done. Experiments and tests use it to
// measure the asynchronous path deterministically.
func (a *Agent) WaitForUploads(ctx context.Context) error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil // Unmount already drained the queue
	}
	a.mu.Unlock()
	// A barrier task is processed only after everything queued before it.
	done := make(chan struct{})
	a.uploadCh <- uploadTask{barrier: done}
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("core: waiting for queued uploads: %w", ctx.Err())
	}
}
