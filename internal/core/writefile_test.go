package core

import (
	"context"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"scfs/internal/coord"
	"scfs/internal/fsapi"
	"scfs/internal/seccrypto"
	"scfs/internal/storage"
)

// watchedStore reports the hash of every version written, from memory or
// streamed, on uploads and counts the calls still running. With gate set,
// a call waits for the gate or for its context before it writes.
type watchedStore struct {
	storage.VersionedStore
	uploads chan string

	mu      sync.Mutex
	running int
	gate    chan struct{}
}

func watch(d *deployment) *watchedStore {
	// More reports than any test makes uploads: a WriteVersion never waits
	// for the test to read one.
	return &watchedStore{VersionedStore: storage.NewCloudOfClouds(d.mgr), uploads: make(chan string, 16)}
}

func (s *watchedStore) WriteVersion(ctx context.Context, fileID, hash string, data []byte) error {
	return s.upload(ctx, hash, func() error { return s.VersionedStore.WriteVersion(ctx, fileID, hash, data) })
}

func (s *watchedStore) WriteVersionFrom(ctx context.Context, fileID, hash string, r io.Reader) error {
	return s.upload(ctx, hash, func() error { return s.VersionedStore.WriteVersionFrom(ctx, fileID, hash, r) })
}

// upload reports hash, waits for the gate set when it started (or for ctx)
// and then writes, counting the call running throughout.
func (s *watchedStore) upload(ctx context.Context, hash string, write func() error) error {
	s.mu.Lock()
	s.running++
	gate := s.gate
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.running--
		s.mu.Unlock()
	}()
	s.uploads <- hash
	if gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return write()
}

// hold makes the next calls wait at the gate.
func (s *watchedStore) hold() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gate = make(chan struct{})
}

// inflight is how many uploads have not returned.
func (s *watchedStore) inflight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.running
}

// awaitUpload returns the hash of the next version written, failing the
// test if none starts in time.
func (s *watchedStore) awaitUpload(t *testing.T, while string) string {
	t.Helper()
	select {
	case h := <-s.uploads:
		return h
	case <-time.After(10 * time.Second):
		t.Fatalf("no upload started %s", while)
		return ""
	}
}

func readBack(t *testing.T, fsys fsapi.FileSystem, path, want string) {
	t.Helper()
	got, err := fsapi.ReadFile(bg, fsys, path)
	if err != nil || string(got) != want {
		t.Fatalf("read %q, %v; want %q", got, err, want)
	}
}

// TestWriteFileUploadsBesideItsOpen: a WriteFile over a file the agent wrote
// before uploads the new version while its open's [TryLock, Cas, Get] is
// still in flight, and the close anchors that upload instead of making its
// own. Another agent reads the new bytes.
func TestWriteFileUploadsBesideItsOpen(t *testing.T) {
	d := newDeployment(t)
	store := watch(d)
	a, scA := d.agent(t, "agent-a", func(o *Options) { o.Storage = store })
	b, _ := d.agent(t, "agent-b", nil)
	if err := a.WriteFile(bg, "/f", []byte("version 1")); err != nil {
		t.Fatal(err)
	}
	<-store.uploads

	scA.parkOn(coord.OpTryLock)
	done := make(chan error, 1)
	go func() { done <- a.WriteFile(bg, "/f", []byte("version 2")) }()
	<-scA.arrived
	if h := store.awaitUpload(t, "while the open's access was parked"); h != seccrypto.Hash([]byte("version 2")) {
		t.Fatalf("upload beside the open wrote hash %s, want the new contents'", h)
	}
	scA.release <- struct{}{}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := len(store.uploads); n != 0 {
		t.Errorf("the close uploaded %d more versions, want 0", n)
	}
	if w := a.Stats().WastedUploads; w != 0 {
		t.Errorf("WastedUploads = %d, want 0", w)
	}
	readBack(t, b, "/f", "version 2")
}

// TestWriteFileUnderAStaleHint: agent B removes and re-creates /f, so agent
// A's hint names a file that is gone. A's WriteFile still lands in B's new
// file; the upload under the old ID is left unanchored and counted.
func TestWriteFileUnderAStaleHint(t *testing.T) {
	d := newDeployment(t)
	a, _ := d.agent(t, "agent-a", nil)
	b, _ := d.agent(t, "agent-b", nil)
	if err := a.WriteFile(bg, "/f", []byte("a's file")); err != nil {
		t.Fatal(err)
	}
	if err := b.Unlink(bg, "/f"); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteFile(bg, "/f", []byte("b's file")); err != nil {
		t.Fatal(err)
	}
	bs, err := b.getMetadata(bg, "/f", false)
	if err != nil {
		t.Fatal(err)
	}

	if err := a.WriteFile(bg, "/f", []byte("version 2")); err != nil {
		t.Fatal(err)
	}
	readBack(t, b, "/f", "version 2")
	if md, err := b.getMetadata(bg, "/f", false); err != nil || md.FileID != bs.FileID {
		t.Fatalf("after A's write /f is %+v, %v; want B's file %s", md, err, bs.FileID)
	}
	if w := a.Stats().WastedUploads; w != 1 {
		t.Errorf("WastedUploads = %d, want 1", w)
	}
}

// TestWriteFileAgainstAWriter: B holds /f open for writing, so A's WriteFile
// is refused with ErrLocked. The upload it started is cancelled and has
// returned by then; the file keeps its contents.
func TestWriteFileAgainstAWriter(t *testing.T) {
	d := newDeployment(t)
	store := watch(d)
	a, _ := d.agent(t, "agent-a", func(o *Options) { o.Storage = store })
	b, _ := d.agent(t, "agent-b", nil)
	if err := a.WriteFile(bg, "/f", []byte("version 1")); err != nil {
		t.Fatal(err)
	}
	<-store.uploads
	hb, err := b.Open(bg, "/f", fsapi.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}

	store.hold() // the upload cannot finish on its own
	if err := a.WriteFile(bg, "/f", []byte("version 2")); !errors.Is(err, fsapi.ErrLocked) {
		t.Fatalf("WriteFile against another writer returned %v, want ErrLocked", err)
	}
	if n := store.inflight(); n != 0 {
		t.Errorf("%d uploads still running after WriteFile returned", n)
	}
	if w := a.Stats().WastedUploads; w != 1 {
		t.Errorf("WastedUploads = %d, want 1", w)
	}
	if err := hb.Close(bg); err != nil {
		t.Fatal(err)
	}
	readBack(t, b, "/f", "version 1")
}

// TestWriteFileCancelledDuringItsOpen: the caller gives up while the open's
// access is in flight and the upload beside it is running. WriteFile
// returns the context's error only once the upload has returned too.
func TestWriteFileCancelledDuringItsOpen(t *testing.T) {
	d := newDeployment(t)
	store := watch(d)
	a, scA := d.agent(t, "agent-a", func(o *Options) { o.Storage = store })
	if err := a.WriteFile(bg, "/f", []byte("version 1")); err != nil {
		t.Fatal(err)
	}
	<-store.uploads

	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	store.hold()
	scA.parkOn(coord.OpTryLock)
	done := make(chan error, 1)
	go func() { done <- a.WriteFile(ctx, "/f", []byte("version 2")) }()
	<-scA.arrived
	store.awaitUpload(t, "while the open's access was parked")
	cancel()
	scA.release <- struct{}{}
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled WriteFile returned %v, want context.Canceled", err)
	}
	if n := store.inflight(); n != 0 {
		t.Errorf("%d uploads still running after WriteFile returned", n)
	}
	readBack(t, a, "/f", "version 1")
}

// TestWriteFileAfterUnmount: an unmounted agent's WriteFile fails with
// ErrClosed and uploads nothing, although its hint knows the file.
func TestWriteFileAfterUnmount(t *testing.T) {
	d := newDeployment(t)
	store := watch(d)
	a, _ := d.agent(t, "agent-a", func(o *Options) { o.Storage = store })
	if err := a.WriteFile(bg, "/f", []byte("version 1")); err != nil {
		t.Fatal(err)
	}
	<-store.uploads
	if err := a.Unmount(bg); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteFile(bg, "/f", []byte("version 2")); !errors.Is(err, fsapi.ErrClosed) {
		t.Fatalf("WriteFile after Unmount returned %v, want ErrClosed", err)
	}
	if n := len(store.uploads); n != 0 {
		t.Errorf("WriteFile after Unmount uploaded %d versions, want 0", n)
	}
}

// TestNonBlockingWriteFileUploadsAtClose: in non-blocking mode the close
// queues the upload, so WriteFile starts none beside its open.
func TestNonBlockingWriteFileUploadsAtClose(t *testing.T) {
	d := newDeployment(t)
	store := watch(d)
	a, scA := d.agent(t, "agent-a", func(o *Options) { o.Mode, o.Storage = NonBlocking, store })
	if err := a.WriteFile(bg, "/f", []byte("version 1")); err != nil {
		t.Fatal(err)
	}
	if err := a.WaitForUploads(bg); err != nil {
		t.Fatal(err)
	}
	<-store.uploads

	scA.parkOn(coord.OpTryLock)
	done := make(chan error, 1)
	go func() { done <- a.WriteFile(bg, "/f", []byte("version 2")) }()
	<-scA.arrived
	if n := len(store.uploads); n != 0 {
		t.Errorf("%d uploads started before the open's access returned, want 0", n)
	}
	scA.release <- struct{}{}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := a.WaitForUploads(bg); err != nil {
		t.Fatal(err)
	}
	if n := len(store.uploads); n != 1 {
		t.Errorf("the write uploaded %d versions, want 1 (the close's)", n)
	}
	if w := a.Stats().WastedUploads; w != 0 {
		t.Errorf("WastedUploads = %d, want 0", w)
	}
	readBack(t, a, "/f", "version 2")
}
