// Package fsapi defines the POSIX-like virtual file-system interface exposed
// by the SCFS agent and by the baseline file systems used in the evaluation
// (S3FS-like, S3QL-like, LocalFS). In the paper this boundary is the FUSE-J
// layer; here it is an in-process Go interface so workloads can replay the
// exact same system-call sequences against every file system under test.
package fsapi

import (
	"context"
	"errors"
	"io"
	"io/fs"
	"time"
)

// OpenFlag mirrors the subset of POSIX open(2) flags SCFS cares about.
type OpenFlag int

const (
	// ReadOnly opens the file for reading.
	ReadOnly OpenFlag = 1 << iota
	// WriteOnly opens the file for writing.
	WriteOnly
	// ReadWrite opens the file for reading and writing.
	ReadWrite
	// Create creates the file if it does not exist.
	Create
	// Truncate truncates the file to zero length on open.
	Truncate
	// Exclusive makes Create fail if the file already exists.
	Exclusive
)

// Writable reports whether the flag set requests write access.
func (f OpenFlag) Writable() bool {
	return f&(WriteOnly|ReadWrite|Create|Truncate) != 0
}

// Readable reports whether the flag set requests read access.
func (f OpenFlag) Readable() bool {
	return f&WriteOnly == 0 || f&ReadWrite != 0
}

// FileType distinguishes the kinds of namespace entries.
type FileType int

const (
	// TypeFile is a regular file.
	TypeFile FileType = iota
	// TypeDir is a directory.
	TypeDir
	// TypeSymlink is a symbolic link.
	TypeSymlink
)

// String implements fmt.Stringer.
func (t FileType) String() string {
	switch t {
	case TypeDir:
		return "dir"
	case TypeSymlink:
		return "symlink"
	default:
		return "file"
	}
}

// FileInfo describes a namespace entry, as returned by Stat and ReadDir.
type FileInfo struct {
	// Path is the absolute path inside the mount.
	Path string
	// Name is the final path element.
	Name string
	// Type tells files, directories and symlinks apart.
	Type FileType
	// Size is the file length in bytes (0 for directories).
	Size int64
	// ModTime is the last modification time.
	ModTime time.Time
	// Owner is the user that created the entry.
	Owner string
	// Shared reports whether the entry has ACL grants beyond its owner.
	Shared bool
}

// IsDir is a convenience accessor.
func (fi FileInfo) IsDir() bool { return fi.Type == TypeDir }

// Permission is what an ACL entry grants.
type Permission int

const (
	// PermNone revokes access.
	PermNone Permission = iota
	// PermRead grants read access.
	PermRead
	// PermReadWrite grants read and write access.
	PermReadWrite
)

// ACLEntry grants a permission to a user.
type ACLEntry struct {
	User string
	Perm Permission
}

// Sentinel errors returned by FileSystem implementations. The ones with a
// standard-library counterpart wrap it, so facade users can test with
// errors.Is(err, fs.ErrNotExist) (or os.IsNotExist-style helpers built on
// it) without importing this package.
var (
	ErrNotExist   error = &wrappedSentinel{msg: "fsapi: no such file or directory", std: fs.ErrNotExist}
	ErrExist      error = &wrappedSentinel{msg: "fsapi: file already exists", std: fs.ErrExist}
	ErrIsDir            = errors.New("fsapi: is a directory")
	ErrNotDir           = errors.New("fsapi: not a directory")
	ErrNotEmpty         = errors.New("fsapi: directory not empty")
	ErrPermission error = &wrappedSentinel{msg: "fsapi: permission denied", std: fs.ErrPermission}
	ErrLocked           = errors.New("fsapi: file is locked by another client")
	ErrReadOnly         = errors.New("fsapi: file opened read-only")
	ErrClosed     error = &wrappedSentinel{msg: "fsapi: handle already closed", std: fs.ErrClosed}
	ErrInvalid    error = &wrappedSentinel{msg: "fsapi: invalid argument", std: fs.ErrInvalid}
)

// wrappedSentinel is a sentinel error chained onto its io/fs counterpart:
// errors.Is matches both the fsapi identity and the standard one.
type wrappedSentinel struct {
	msg string
	std error
}

// Error implements error.
func (e *wrappedSentinel) Error() string { return e.msg }

// Unwrap chains the sentinel onto the standard-library error.
func (e *wrappedSentinel) Unwrap() error { return e.std }

// Handle is an open file. Reads and writes operate on the in-memory copy of
// the file (SCFS caches whole files while they are open); durability follows
// the level requested by the call, per Table 1 of the paper: Write is level
// 0 (memory), Fsync is level 1 (local disk), Close is level 2/3 (cloud).
//
// Every method takes a context. Most memory-backed operations never block,
// but the ones that can reach the network — ReadAt through a ranged cloud
// reader, Close flushing to the cloud in blocking mode — abort promptly
// with ctx.Err() when the context is cancelled, down to the individual
// per-cloud RPCs of a quorum fan-out.
type Handle interface {
	// ReadAt reads len(p) bytes starting at offset off.
	ReadAt(ctx context.Context, p []byte, off int64) (int, error)
	// WriteAt writes p at offset off, extending the file as needed.
	WriteAt(ctx context.Context, p []byte, off int64) (int, error)
	// Truncate resizes the open file.
	Truncate(ctx context.Context, size int64) error
	// Fsync flushes the current contents to the local disk (durability
	// level 1).
	Fsync(ctx context.Context) error
	// Close flushes to the cloud backend according to the file system's mode
	// (durability level 2 or 3) and releases any lock held. A cancelled
	// Close leaves the handle closed but the version unanchored: the
	// metadata visible to other clients never references a version whose
	// upload did not complete.
	Close(ctx context.Context) error
	// Stat returns the current metadata of the open file.
	Stat(ctx context.Context) (FileInfo, error)
}

// FileSystem is the POSIX-like API shared by SCFS and all baselines. All
// paths are absolute ("/docs/report.odt"). Implementations must be safe for
// concurrent use.
//
// The context passed to each call bounds that call only: cancelling it
// returns ctx.Err() promptly (even with a multi-second straggler cloud in
// the quorum) and aborts the per-cloud RPCs issued on the call's behalf.
type FileSystem interface {
	// Open opens (or with Create, creates) a file.
	Open(ctx context.Context, path string, flags OpenFlag) (Handle, error)
	// Mkdir creates a directory (parents must exist).
	Mkdir(ctx context.Context, path string) error
	// Rmdir removes an empty directory.
	Rmdir(ctx context.Context, path string) error
	// Unlink removes a file.
	Unlink(ctx context.Context, path string) error
	// Rename moves a file or directory (and its subtree).
	Rename(ctx context.Context, oldPath, newPath string) error
	// Stat returns metadata for a path.
	Stat(ctx context.Context, path string) (FileInfo, error)
	// ReadDir lists a directory.
	ReadDir(ctx context.Context, path string) ([]FileInfo, error)
	// SetFacl grants or revokes a user's permission on a path (setfacl).
	SetFacl(ctx context.Context, path, user string, perm Permission) error
	// GetFacl returns the ACL entries of a path (getfacl).
	GetFacl(ctx context.Context, path string) ([]ACLEntry, error)
	// Unmount flushes all state and releases resources.
	Unmount(ctx context.Context) error
}

// StreamChunkSize is the granularity at which the streaming helpers move
// data through a handle: WriteFile, WriteFileFrom and ReadFileTo issue
// operations of at most this size. Matching the streaming data plane's chunk
// size (1 MiB) means each ReadAt of ReadFileTo over a lazily-opened large
// file is one cloud chunk, decoded straight into the helper's buffer.
const StreamChunkSize = 1 << 20

// ReadFile is a convenience helper that opens, reads fully and closes. It
// already holds a buffer for the whole file, so it asks for all of it in one
// ReadAt: an implementation serving ReadAt from ranged cloud reads then
// fetches the covering chunks together, at the width of the request, and
// decodes each straight into this buffer — the object is never materialized
// a second time on the implementation's side.
func ReadFile(ctx context.Context, fsys FileSystem, path string) ([]byte, error) {
	h, err := fsys.Open(ctx, path, ReadOnly)
	if err != nil {
		return nil, err
	}
	defer h.Close(ctx)
	info, err := h.Stat(ctx)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, info.Size)
	n, err := h.ReadAt(ctx, buf, 0)
	if err != nil && err != io.EOF {
		return nil, err
	}
	return buf[:n], nil
}

// WriteFile is a convenience helper that creates/truncates, writes and
// closes. Data larger than one chunk is written in StreamChunkSize pieces.
func WriteFile(ctx context.Context, fsys FileSystem, path string, data []byte) error {
	h, err := fsys.Open(ctx, path, ReadWrite|Create|Truncate)
	if err != nil {
		return err
	}
	for off := 0; off < len(data); off += StreamChunkSize {
		end := off + StreamChunkSize
		if end > len(data) {
			end = len(data)
		}
		if _, err := h.WriteAt(ctx, data[off:end], int64(off)); err != nil {
			h.Close(ctx)
			return err
		}
	}
	return h.Close(ctx)
}

// WriteFileFrom streams r into path in StreamChunkSize pieces and returns
// how many bytes were written. Only one chunk of the stream is buffered by
// the helper at a time.
func WriteFileFrom(ctx context.Context, fsys FileSystem, path string, r io.Reader) (int64, error) {
	h, err := fsys.Open(ctx, path, ReadWrite|Create|Truncate)
	if err != nil {
		return 0, err
	}
	buf := make([]byte, StreamChunkSize)
	var off int64
	for {
		n, rerr := io.ReadFull(r, buf)
		if n > 0 {
			if _, werr := h.WriteAt(ctx, buf[:n], off); werr != nil {
				h.Close(ctx)
				return off, werr
			}
			off += int64(n)
		}
		if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
			break
		}
		if rerr != nil {
			h.Close(ctx)
			return off, rerr
		}
	}
	return off, h.Close(ctx)
}

// ReadFileTo streams the contents of path into w in StreamChunkSize pieces
// and returns how many bytes were copied.
func ReadFileTo(ctx context.Context, fsys FileSystem, path string, w io.Writer) (int64, error) {
	h, err := fsys.Open(ctx, path, ReadOnly)
	if err != nil {
		return 0, err
	}
	defer h.Close(ctx)
	buf := make([]byte, StreamChunkSize)
	var off int64
	for {
		n, rerr := h.ReadAt(ctx, buf, off)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return off, werr
			}
			off += int64(n)
		}
		if rerr == io.EOF {
			return off, nil
		}
		if rerr != nil {
			return off, rerr
		}
		if n == 0 {
			return off, nil
		}
	}
}
