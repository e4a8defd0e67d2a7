package fsapi

import (
	"bytes"
	"context"
	"errors"
	"io"
	"io/fs"
	"testing"
)

var bg = context.Background()

func TestOpenFlagPredicates(t *testing.T) {
	cases := []struct {
		flags    OpenFlag
		writable bool
		readable bool
	}{
		{ReadOnly, false, true},
		{ReadWrite, true, true},
		{WriteOnly, true, false},
		{ReadWrite | Create, true, true},
		{ReadOnly | Create, true, true},
		{ReadWrite | Truncate, true, true},
	}
	for _, c := range cases {
		if got := c.flags.Writable(); got != c.writable {
			t.Errorf("Writable(%b) = %v, want %v", c.flags, got, c.writable)
		}
		if got := c.flags.Readable(); got != c.readable {
			t.Errorf("Readable(%b) = %v, want %v", c.flags, got, c.readable)
		}
	}
}

func TestFileTypeString(t *testing.T) {
	if TypeFile.String() != "file" || TypeDir.String() != "dir" || TypeSymlink.String() != "symlink" {
		t.Fatal("unexpected FileType strings")
	}
}

func TestFileInfoIsDir(t *testing.T) {
	if (FileInfo{Type: TypeFile}).IsDir() {
		t.Fatal("file reported as dir")
	}
	if !(FileInfo{Type: TypeDir}).IsDir() {
		t.Fatal("dir not reported as dir")
	}
}

// TestSentinelErrorsMapOntoStdlib pins the io/fs interop contract: the
// fsapi sentinels with a standard-library counterpart must satisfy
// errors.Is against it (so facade users never need to import fsapi), and
// the ones without a counterpart must not accidentally match any.
func TestSentinelErrorsMapOntoStdlib(t *testing.T) {
	stdlib := []error{fs.ErrNotExist, fs.ErrExist, fs.ErrPermission, fs.ErrClosed, fs.ErrInvalid}
	cases := []struct {
		name string
		err  error
		std  error // nil = must match no stdlib sentinel
	}{
		{"ErrNotExist", ErrNotExist, fs.ErrNotExist},
		{"ErrExist", ErrExist, fs.ErrExist},
		{"ErrPermission", ErrPermission, fs.ErrPermission},
		{"ErrClosed", ErrClosed, fs.ErrClosed},
		{"ErrInvalid", ErrInvalid, fs.ErrInvalid},
		{"ErrIsDir", ErrIsDir, nil},
		{"ErrNotDir", ErrNotDir, nil},
		{"ErrNotEmpty", ErrNotEmpty, nil},
		{"ErrLocked", ErrLocked, nil},
		{"ErrReadOnly", ErrReadOnly, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, std := range stdlib {
				want := c.std != nil && errors.Is(c.std, std)
				if got := errors.Is(c.err, std); got != want {
					t.Errorf("errors.Is(%v, %v) = %v, want %v", c.err, std, got, want)
				}
			}
			// Wrapping must survive another layer, as returned by real call
			// sites (fmt.Errorf with %w).
			if c.std != nil {
				wrapped := wrapFor(t, c.err)
				if !errors.Is(wrapped, c.std) {
					t.Errorf("wrapped %v does not match %v", c.err, c.std)
				}
				if !errors.Is(wrapped, c.err) {
					t.Errorf("wrapped %v does not match itself", c.err)
				}
			}
		})
	}
}

// wrapFor simulates a call site annotating a sentinel.
func wrapFor(t *testing.T, err error) error {
	t.Helper()
	return &wrapErr{inner: err}
}

type wrapErr struct{ inner error }

func (w *wrapErr) Error() string { return "op failed: " + w.inner.Error() }
func (w *wrapErr) Unwrap() error { return w.inner }

func TestSentinelErrorsAreDistinct(t *testing.T) {
	errs := []error{ErrNotExist, ErrExist, ErrIsDir, ErrNotDir, ErrNotEmpty, ErrPermission, ErrLocked, ErrReadOnly, ErrClosed, ErrInvalid}
	for i, a := range errs {
		for j, b := range errs {
			if i != j && errors.Is(a, b) {
				t.Fatalf("errors %d and %d are not distinct", i, j)
			}
		}
	}
}

// --- convenience-helper tests over a minimal in-memory file system ---

type fakeFS struct {
	files map[string][]byte
	// maxOp records the largest single ReadAt/WriteAt request observed, so
	// tests can assert the streaming helpers chunk their IO, and reads the
	// size of every ReadAt.
	maxOp int
	reads []int
}

type fakeHandle struct {
	fs   *fakeFS
	path string
}

func (f *fakeFS) Open(_ context.Context, path string, flags OpenFlag) (Handle, error) {
	_, ok := f.files[path]
	if !ok {
		if flags&Create == 0 {
			return nil, ErrNotExist
		}
		f.files[path] = nil
	}
	if flags&Truncate != 0 {
		f.files[path] = nil
	}
	return &fakeHandle{fs: f, path: path}, nil
}

func (f *fakeFS) Mkdir(context.Context, string) error                       { return nil }
func (f *fakeFS) Rmdir(context.Context, string) error                       { return nil }
func (f *fakeFS) Unlink(context.Context, string) error                      { return nil }
func (f *fakeFS) Rename(context.Context, string, string) error              { return nil }
func (f *fakeFS) Stat(context.Context, string) (FileInfo, error)            { return FileInfo{}, ErrNotExist }
func (f *fakeFS) ReadDir(context.Context, string) ([]FileInfo, error)       { return nil, nil }
func (f *fakeFS) SetFacl(context.Context, string, string, Permission) error { return nil }
func (f *fakeFS) GetFacl(context.Context, string) ([]ACLEntry, error)       { return nil, nil }
func (f *fakeFS) Unmount(context.Context) error                             { return nil }

func (h *fakeHandle) ReadAt(_ context.Context, p []byte, off int64) (int, error) {
	h.fs.reads = append(h.fs.reads, len(p))
	if len(p) > h.fs.maxOp {
		h.fs.maxOp = len(p)
	}
	data := h.fs.files[h.path]
	if off >= int64(len(data)) {
		return 0, io.EOF
	}
	n := copy(p, data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (h *fakeHandle) WriteAt(_ context.Context, p []byte, off int64) (int, error) {
	if len(p) > h.fs.maxOp {
		h.fs.maxOp = len(p)
	}
	data := h.fs.files[h.path]
	if end := off + int64(len(p)); end > int64(len(data)) {
		grown := make([]byte, end)
		copy(grown, data)
		data = grown
	}
	copy(data[off:], p)
	h.fs.files[h.path] = data
	return len(p), nil
}

func (h *fakeHandle) Truncate(context.Context, int64) error { return nil }
func (h *fakeHandle) Fsync(context.Context) error           { return nil }
func (h *fakeHandle) Close(context.Context) error           { return nil }
func (h *fakeHandle) Stat(context.Context) (FileInfo, error) {
	return FileInfo{Path: h.path, Size: int64(len(h.fs.files[h.path]))}, nil
}

func TestHelpersChunkLargeFiles(t *testing.T) {
	fs := &fakeFS{files: make(map[string][]byte)}
	big := make([]byte, 2*StreamChunkSize+12345)
	for i := range big {
		big[i] = byte(i * 7)
	}
	if err := WriteFile(bg, fs, "/big", big); err != nil {
		t.Fatal(err)
	}
	if fs.maxOp > StreamChunkSize {
		t.Fatalf("WriteFile issued a %d-byte op, want <= %d", fs.maxOp, StreamChunkSize)
	}
	got, err := ReadFile(bg, fs, "/big")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("chunked round trip mismatch")
	}
	// ReadFile holds the whole buffer anyway: it asks for all of it at once,
	// which is what lets a ranged implementation fetch every chunk together.
	if len(fs.reads) != 1 || fs.reads[0] != len(big) {
		t.Fatalf("ReadFile issued ReadAts of %v bytes, want one of %d", fs.reads, len(big))
	}
	// Small files still round-trip.
	if err := WriteFile(bg, fs, "/small", []byte("tiny")); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadFile(bg, fs, "/small"); err != nil || string(got) != "tiny" {
		t.Fatalf("small round trip: %q, %v", got, err)
	}
	if got, err := ReadFile(bg, fs, "/empty-missing"); err == nil {
		t.Fatalf("missing file read returned %d bytes", len(got))
	}
	if err := WriteFile(bg, fs, "/empty", nil); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadFile(bg, fs, "/empty"); err != nil || len(got) != 0 {
		t.Fatalf("empty round trip: %v, %v", got, err)
	}
}

func TestStreamingHelpers(t *testing.T) {
	fs := &fakeFS{files: make(map[string][]byte)}
	big := make([]byte, StreamChunkSize+999)
	for i := range big {
		big[i] = byte(i * 13)
	}
	n, err := WriteFileFrom(bg, fs, "/s", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(big)) {
		t.Fatalf("WriteFileFrom wrote %d bytes", n)
	}
	var out bytes.Buffer
	n, err = ReadFileTo(bg, fs, "/s", &out)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(big)) || !bytes.Equal(out.Bytes(), big) {
		t.Fatalf("ReadFileTo copied %d bytes, match=%v", n, bytes.Equal(out.Bytes(), big))
	}
	// Empty stream.
	if n, err := WriteFileFrom(bg, fs, "/e", bytes.NewReader(nil)); err != nil || n != 0 {
		t.Fatalf("empty WriteFileFrom: %d, %v", n, err)
	}
	var empty bytes.Buffer
	if n, err := ReadFileTo(bg, fs, "/e", &empty); err != nil || n != 0 {
		t.Fatalf("empty ReadFileTo: %d, %v", n, err)
	}
}
