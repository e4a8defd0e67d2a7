package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"scfs/internal/cloud"
	"scfs/internal/cloudsim"
	"scfs/internal/coord"
	"scfs/internal/depsky"
	"scfs/internal/depspace"
	"scfs/internal/fsapi"
	"scfs/internal/storage"
)

// stagedCoord is a test double around a coordination service: it counts the
// accesses one agent makes (every call is one, a Batch included) and can
// park a call before it reaches the service until the test releases it.
type stagedCoord struct {
	coord.Service

	mu       sync.Mutex
	accesses int
	// park, when set, is asked about every call with the kinds of the
	// commands it carries; a call it claims announces itself on arrived
	// and waits for release.
	park    func(kinds []coord.OpKind) bool
	arrived chan struct{}
	release chan struct{}
}

func (s *stagedCoord) enter(kinds ...coord.OpKind) {
	s.mu.Lock()
	s.accesses++
	parked := s.park != nil && s.park(kinds)
	s.mu.Unlock()
	if parked {
		s.arrived <- struct{}{}
		<-s.release
	}
}

// parkOn makes the next call that carries a command of kind park.
func (s *stagedCoord) parkOn(kind coord.OpKind) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.park = func(kinds []coord.OpKind) bool {
		if slices.Contains(kinds, kind) {
			s.park = nil
			return true
		}
		return false
	}
}

// count returns the accesses made since the previous call.
func (s *stagedCoord) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.accesses
	s.accesses = 0
	return n
}

func (s *stagedCoord) GetMetadata(ctx context.Context, key string) (coord.Record, error) {
	s.enter(coord.OpGet)
	return s.Service.GetMetadata(ctx, key)
}

func (s *stagedCoord) PutMetadata(ctx context.Context, key string, value []byte, acl coord.ACL) (uint64, error) {
	s.enter(coord.OpPut)
	return s.Service.PutMetadata(ctx, key, value, acl)
}

func (s *stagedCoord) CasMetadata(ctx context.Context, key string, value []byte, expected uint64, acl coord.ACL) (uint64, error) {
	s.enter(coord.OpCas)
	return s.Service.CasMetadata(ctx, key, value, expected, acl)
}

func (s *stagedCoord) DeleteMetadata(ctx context.Context, key string) error {
	s.enter(coord.OpDelete)
	return s.Service.DeleteMetadata(ctx, key)
}

func (s *stagedCoord) RenamePrefix(ctx context.Context, oldPrefix, newPrefix string) (int, error) {
	s.enter()
	return s.Service.RenamePrefix(ctx, oldPrefix, newPrefix)
}

func (s *stagedCoord) ListMetadata(ctx context.Context, prefix string) ([]coord.Record, error) {
	s.enter(coord.OpList)
	return s.Service.ListMetadata(ctx, prefix)
}

func (s *stagedCoord) TryLock(ctx context.Context, name, owner string, ttl time.Duration) error {
	s.enter(coord.OpTryLock)
	return s.Service.TryLock(ctx, name, owner, ttl)
}

func (s *stagedCoord) Unlock(ctx context.Context, name, owner string) error {
	s.enter(coord.OpUnlock)
	return s.Service.Unlock(ctx, name, owner)
}

func (s *stagedCoord) Batch(ctx context.Context, ops []coord.Op) ([]coord.Result, error) {
	kinds := make([]coord.OpKind, len(ops))
	for i, op := range ops {
		kinds[i] = op.Kind
	}
	s.enter(kinds...)
	return s.Service.Batch(ctx, ops)
}

// deployment is one tuple space and one cloud-of-clouds that several test
// agents mount.
type deployment struct {
	space *depspace.Space
	mgr   *depsky.Manager
}

func newDeployment(t *testing.T) *deployment {
	t.Helper()
	clients := make([]cloud.ObjectStore, 4)
	for i := range clients {
		p := cloudsim.NewProvider(cloudsim.Options{Name: fmt.Sprintf("c%d", i)})
		clients[i] = p.MustClient(p.CreateAccount("alice"))
	}
	mgr, err := depsky.New(depsky.Options{Clouds: clients, F: 1})
	if err != nil {
		t.Fatal(err)
	}
	return &deployment{space: depspace.NewSpace(), mgr: mgr}
}

// agent mounts alice's agent id on the deployment behind its own staged
// coordination double; tune adjusts the options before the mount.
func (d *deployment) agent(t *testing.T, id string, tune func(*Options)) (*Agent, *stagedCoord) {
	t.Helper()
	sc := &stagedCoord{
		Service: coord.NewDepSpaceService(depspace.NewClient(&depspace.LocalInvoker{Space: d.space}, "alice", nil)),
		arrived: make(chan struct{}),
		release: make(chan struct{}),
	}
	opts := Options{
		User:         "alice",
		AgentID:      id,
		Mode:         Blocking,
		Coordination: sc,
		Storage:      storage.NewCloudOfClouds(d.mgr),
		PNSStorage:   storage.NewCoCPNS(d.mgr),
		DiskCacheDir: t.TempDir(),
	}
	if tune != nil {
		tune(&opts)
	}
	a, err := New(bg, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Unmount(bg) })
	sc.count()
	return a, sc
}

// TestCoordinationAccessesPerOperation pins the round trips each facade
// operation costs on a shared file: only those its data dependencies need.
// A create's lookup is the Cas that creates the record.
func TestCoordinationAccessesPerOperation(t *testing.T) {
	a, sc := newDeployment(t).agent(t, "a", nil)
	step := func(name string, want int, f func() error) {
		t.Helper()
		if err := f(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := sc.count(); got != want {
			t.Errorf("%s cost %d coordination accesses, want %d", name, got, want)
		}
	}
	step("mkdir", 1, func() error { return a.Mkdir(bg, "/d") })
	step("mkdir in a directory", 1, func() error { return a.Mkdir(bg, "/d/sub") })
	step("rmdir", 2, func() error { return a.Rmdir(bg, "/d/sub") })
	step("create+close", 2, func() error {
		h, err := a.Open(bg, "/d/f", fsapi.ReadWrite|fsapi.Create|fsapi.Exclusive)
		if err != nil {
			return err
		}
		return h.Close(bg)
	})
	step("write of a new file", 2, func() error { return fsapi.WriteFile(bg, a, "/d/g", []byte("v1")) })
	step("overwrite", 2, func() error { return fsapi.WriteFile(bg, a, "/d/f", []byte("v2")) })
	step("stat", 1, func() error { _, err := a.Stat(bg, "/d/f"); return err })
	step("readdir", 1, func() error { _, err := a.ReadDir(bg, "/d"); return err })
	step("read-only open", 1, func() error { _, err := fsapi.ReadFile(bg, a, "/d/f"); return err })
	step("rename", 3, func() error { return a.Rename(bg, "/d/g", "/d/h") })
	step("unlink", 2, func() error { return a.Unlink(bg, "/d/h") })
	step("create over a removed file", 3, func() error { return fsapi.WriteFile(bg, a, "/d/h", []byte("v3")) })
}

// TestWritableOpenBypassesMetadataCache: the metadata cache may answer a
// read-only open, never a writable open of a shared file — the writer must
// see the metadata as of its lock grant.
func TestWritableOpenBypassesMetadataCache(t *testing.T) {
	a, sc := newDeployment(t).agent(t, "a", func(o *Options) { o.MetadataCacheTTL = time.Hour })
	if err := fsapi.WriteFile(bg, a, "/f", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	sc.count()
	if _, err := fsapi.ReadFile(bg, a, "/f"); err != nil {
		t.Fatal(err)
	}
	if n := sc.count(); n != 0 {
		t.Errorf("read-only open of cached metadata cost %d coordination accesses, want 0", n)
	}
	h, err := a.Open(bg, "/f", fsapi.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	if n := sc.count(); n != 1 {
		t.Errorf("writable open cost %d coordination accesses, want 1 (lock and read in one batch)", n)
	}
	if err := h.Close(bg); err != nil {
		t.Fatal(err)
	}
}

// TestLocalOpensSkipCoordination: opens that resolve in the private name
// space or in non-sharing mode take no lock and read no remote metadata.
func TestLocalOpensSkipCoordination(t *testing.T) {
	for name, tune := range map[string]func(*Options){
		"pns":         func(o *Options) { o.UsePNS = true },
		"non-sharing": func(o *Options) { o.Mode = NonSharing },
	} {
		t.Run(name, func(t *testing.T) {
			a, sc := newDeployment(t).agent(t, "a", tune)
			if err := fsapi.WriteFile(bg, a, "/private", []byte("v1")); err != nil {
				t.Fatal(err)
			}
			if err := a.WaitForUploads(bg); err != nil {
				t.Fatal(err)
			}
			sc.count()
			if err := fsapi.WriteFile(bg, a, "/private", []byte("v2")); err != nil {
				t.Fatal(err)
			}
			if err := a.WaitForUploads(bg); err != nil {
				t.Fatal(err)
			}
			got, err := fsapi.ReadFile(bg, a, "/private")
			if err != nil || string(got) != "v2" {
				t.Fatalf("read back %q, %v", got, err)
			}
			if n := sc.count(); n != 0 {
				t.Errorf("overwrite and read of a private file cost %d coordination accesses, want 0", n)
			}
		})
	}
}

// TestWriterOpensPredecessorsVersion is the read-under-lock property: agent
// B's writable open overlaps agent A's close, and B must open the version A
// closed. With the metadata read issued ahead of the lock request, B's read
// is served before A's put and its lock request after A's unlock, so B
// opens — and would overwrite from — the version before A's. In one ordered
// batch the read cannot be served before the lock is granted.
func TestWriterOpensPredecessorsVersion(t *testing.T) {
	d := newDeployment(t)
	a, _ := d.agent(t, "agent-a", nil)
	b, scB := d.agent(t, "agent-b", nil)
	if err := fsapi.WriteFile(bg, a, "/f", []byte("version 1")); err != nil {
		t.Fatal(err)
	}
	ha, err := a.Open(bg, "/f", fsapi.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ha.WriteAt(bg, []byte("version 2"), 0); err != nil {
		t.Fatal(err)
	}

	// B's lock request stays in flight until A's close has completed;
	// whatever B sends ahead of it reaches the service while A still holds
	// the lock.
	scB.parkOn(coord.OpTryLock)
	type opened struct {
		h   fsapi.Handle
		err error
	}
	done := make(chan opened, 1)
	go func() {
		h, err := b.Open(bg, "/f", fsapi.ReadWrite)
		done <- opened{h, err}
	}()
	<-scB.arrived
	if err := ha.Close(bg); err != nil {
		t.Fatal(err)
	}
	scB.release <- struct{}{}

	o := <-done
	if o.err != nil {
		t.Fatalf("B's open after A's close: %v", o.err)
	}
	defer o.h.Close(bg)
	got := make([]byte, len("version 2"))
	if _, err := o.h.ReadAt(bg, got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != "version 2" {
		t.Fatalf("B opened %q, want the version A closed (%q)", got, "version 2")
	}
}

// failingStore fails the next WriteVersion calls with errUpload. Its versions
// are below the stream threshold, so the background uploader too writes them
// through WriteVersion rather than the embedded store's streamed write.
type failingStore struct {
	storage.VersionedStore
	mu    sync.Mutex
	fails int
}

var errUpload = errors.New("injected upload failure")

func (f *failingStore) WriteVersion(ctx context.Context, fileID, hash string, data []byte) error {
	f.mu.Lock()
	fail := f.fails > 0
	if fail {
		f.fails--
	}
	f.mu.Unlock()
	if fail {
		return errUpload
	}
	return f.VersionedStore.WriteVersion(ctx, fileID, hash, data)
}

// TestFailedCloseReleasesLock: a close whose upload fails reports the
// failure and still releases the write lock, in blocking mode and from the
// background uploader, so another agent can lock the file at once instead
// of after the lease.
func TestFailedCloseReleasesLock(t *testing.T) {
	for _, mode := range []Mode{Blocking, NonBlocking} {
		t.Run(mode.String(), func(t *testing.T) {
			d := newDeployment(t)
			store := &failingStore{VersionedStore: storage.NewCloudOfClouds(d.mgr)}
			a, _ := d.agent(t, "agent-a", func(o *Options) { o.Mode, o.Storage = mode, store })
			b, _ := d.agent(t, "agent-b", nil)
			if err := fsapi.WriteFile(bg, a, "/f", []byte("v1")); err != nil {
				t.Fatal(err)
			}
			if err := a.WaitForUploads(bg); err != nil {
				t.Fatal(err)
			}

			store.mu.Lock()
			store.fails = 1
			store.mu.Unlock()
			err := fsapi.WriteFile(bg, a, "/f", []byte("v2"))
			if mode == Blocking && !errors.Is(err, errUpload) {
				t.Fatalf("close with a failing upload returned %v, want the upload error", err)
			}
			if err := a.WaitForUploads(bg); err != nil {
				t.Fatal(err)
			}
			if mode == NonBlocking && a.Stats().UploadErrors != 1 {
				t.Fatalf("UploadErrors = %d, want 1", a.Stats().UploadErrors)
			}

			h, err := b.Open(bg, "/f", fsapi.ReadWrite)
			if err != nil {
				t.Fatalf("second agent's writable open right after the failed close: %v", err)
			}
			got := make([]byte, 2)
			if _, err := h.ReadAt(bg, got, 0); err != nil || !bytes.Equal(got, []byte("v1")) {
				t.Fatalf("second agent read %q, %v; want the last anchored version v1", got, err)
			}
			if err := h.Close(bg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// records counts the coordination records stored under key.
func records(t *testing.T, d *deployment, key string) int {
	t.Helper()
	recs, err := coord.NewDepSpaceService(depspace.NewClient(&depspace.LocalInvoker{Space: d.space}, "alice", nil)).ListMetadata(bg, key)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, r := range recs {
		if r.Key == key {
			n++
		}
	}
	return n
}

// TestConcurrentExclusiveCreates: two agents open one path with
// Create|Exclusive at once. Agent A's lookup is held back until agent B has
// created the file. Exactly one open returns a handle; A is told that B holds
// the file's lock, or once B has closed it, that the file exists. One record
// remains.
func TestConcurrentExclusiveCreates(t *testing.T) {
	for _, closed := range []bool{false, true} {
		t.Run(fmt.Sprintf("closed=%v", closed), func(t *testing.T) {
			d := newDeployment(t)
			a, scA := d.agent(t, "agent-a", nil)
			b, _ := d.agent(t, "agent-b", nil)
			const flags = fsapi.ReadWrite | fsapi.Create | fsapi.Exclusive
			scA.parkOn(coord.OpCas)
			done := make(chan error, 1)
			go func() {
				h, err := a.Open(bg, "/f", flags)
				if err == nil {
					h.Close(bg)
					err = errors.New("A's open returned a handle too")
				}
				done <- err
			}()
			<-scA.arrived
			hb, err := b.Open(bg, "/f", flags)
			if err != nil {
				t.Fatal(err)
			}
			if closed {
				if err := hb.Close(bg); err != nil {
					t.Fatal(err)
				}
			}
			scA.release <- struct{}{}
			want := fsapi.ErrLocked
			if closed {
				want = fsapi.ErrExist
			}
			if err := <-done; !errors.Is(err, want) {
				t.Fatalf("A's open: %v, want %v", err, want)
			}
			if !closed {
				if err := hb.Close(bg); err != nil {
					t.Fatal(err)
				}
			}
			if n := records(t, d, "/f"); n != 1 {
				t.Fatalf("%d records of /f, want 1", n)
			}
		})
	}
}

// TestRenameOntoConcurrentCreate: another agent creates the rename's target
// between the rename's lookup and its move. The rename must not overwrite
// that file: it returns ErrExist, and both files survive.
func TestRenameOntoConcurrentCreate(t *testing.T) {
	d := newDeployment(t)
	a, scA := d.agent(t, "agent-a", nil)
	b, _ := d.agent(t, "agent-b", nil)
	if err := fsapi.WriteFile(bg, a, "/src", []byte("A's")); err != nil {
		t.Fatal(err)
	}
	scA.parkOn(coord.OpCas)
	done := make(chan error, 1)
	go func() { done <- a.Rename(bg, "/src", "/dst") }()
	<-scA.arrived
	if err := fsapi.WriteFile(bg, b, "/dst", []byte("B's")); err != nil {
		t.Fatal(err)
	}
	scA.release <- struct{}{}
	if err := <-done; !errors.Is(err, fsapi.ErrExist) {
		t.Fatalf("rename onto a path created since its lookup: %v, want ErrExist", err)
	}
	for path, want := range map[string]string{"/src": "A's", "/dst": "B's"} {
		if got := readFresh(t, d, path, nil); got != want {
			t.Errorf("%s holds %q, want %q", path, got, want)
		}
	}
}

// TestFailedCreateLeavesNoRecord: an open whose Cas created the file but
// which then fails — its lock request refused, or its parent directory
// missing — removes the record again.
func TestFailedCreateLeavesNoRecord(t *testing.T) {
	d := newDeployment(t)
	a, sc := d.agent(t, "agent-a", nil)
	if err := sc.Service.TryLock(bg, "/f", "agent-b", time.Minute); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]error{"/f": fsapi.ErrLocked, "/missing/f": fsapi.ErrNotExist} {
		if _, err := a.Open(bg, path, fsapi.ReadWrite|fsapi.Create); !errors.Is(err, want) {
			t.Errorf("open of %s: %v, want %v", path, err, want)
		}
		if n := records(t, d, path); n != 0 {
			t.Errorf("%d records of %s after the failed open, want 0", n, path)
		}
	}
}
