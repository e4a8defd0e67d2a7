package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"scfs/internal/clock"
	"scfs/internal/cloud"
	"scfs/internal/cloudsim"
	"scfs/internal/depsky"
	"scfs/internal/depspace"
	"scfs/internal/fsapi"
	"scfs/internal/storage"
)

// sweepHook is a storage double whose batched sweep calls then, if set,
// after the sweep and before it returns: what then does happens while a
// collection is between its sweep and its metadata updates.
type sweepHook struct {
	storage.VersionedStore
	then func()
}

func (s *sweepHook) DeleteVersionsBatch(ctx context.Context, batch map[string][]string) storage.SweepStats {
	st := s.VersionedStore.DeleteVersionsBatch(ctx, batch)
	if then := s.then; then != nil {
		s.then = nil
		then()
	}
	return st
}

// oneCloud is the storage of a single-cloud mount: DepSky-A at f = 0 over
// one simulated provider.
func oneCloud(t *testing.T) storage.VersionedStore {
	t.Helper()
	p := cloudsim.NewProvider(cloudsim.Options{Name: "s3"})
	mgr, err := depsky.New(depsky.Options{
		Clouds:   []cloud.ObjectStore{p.MustClient(p.CreateAccount("alice"))},
		F:        0,
		Protocol: depsky.ProtocolA,
	})
	if err != nil {
		t.Fatal(err)
	}
	return storage.NewCloudOfClouds(mgr)
}

// readFresh reads path through a new agent of the deployment, so nothing the
// reading agent cached can answer for the coordination service and the
// clouds.
func readFresh(t *testing.T, d *deployment, path string, tune func(*Options)) string {
	t.Helper()
	r, _ := d.agent(t, "reader", tune)
	got, err := fsapi.ReadFile(bg, r, path)
	if err != nil {
		t.Fatalf("reading %s after the collection: %v", path, err)
	}
	return string(got)
}

// TestGCByteTrigger: the paper's W — a close starts a background collection
// once the bytes the agent wrote since the last one reach
// GCPolicy.TriggerBytes, and not a byte before.
func TestGCByteTrigger(t *testing.T) {
	const w = 16 << 10
	a, _ := testAgent(t, 4096)
	a.opts.GC = GCPolicy{TriggerBytes: w, KeepVersions: 1}
	if err := fsapi.WriteFile(bg, a, "/f", randData(t, w-1)); err != nil {
		t.Fatal(err)
	}
	if n := a.Stats().GCsTriggered; n != 0 {
		t.Fatalf("%d collections started one byte short of W", n)
	}
	if err := fsapi.WriteFile(bg, a, "/f", randData(t, 1)); err != nil {
		t.Fatal(err)
	}
	if n := a.Stats().GCsTriggered; n != 1 {
		t.Fatalf("%d collections started at W, want 1", n)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		md, err := a.getMetadata(bg, "/f", false)
		if err != nil {
			t.Fatal(err)
		}
		if len(md.Versions) == 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("the triggered collection left %d versions, want 1", len(md.Versions))
		}
	}
}

// TestCollectKeepsRepeatedContents: a file written A, B, A and trimmed to its
// last version loses the first A and B — but a store names a version by file
// and hash, so deleting the first A deletes the current one too. Only B may
// go.
func TestCollectKeepsRepeatedContents(t *testing.T) {
	for name, store := range map[string]func(*testing.T, *deployment) storage.VersionedStore{
		"single-cloud": func(t *testing.T, _ *deployment) storage.VersionedStore {
			return oneCloud(t)
		},
		"cloud-of-clouds": func(_ *testing.T, d *deployment) storage.VersionedStore {
			return storage.NewCloudOfClouds(d.mgr)
		},
	} {
		t.Run(name, func(t *testing.T) {
			d := newDeployment(t)
			vs := store(t, d)
			tune := func(o *Options) { o.Storage = vs }
			a, _ := d.agent(t, "a", tune)
			for _, contents := range []string{"A", "B", "A"} {
				if err := fsapi.WriteFile(bg, a, "/f", []byte(contents)); err != nil {
					t.Fatal(err)
				}
			}
			report, err := a.Collect(bg)
			if err != nil {
				t.Fatal(err)
			}
			if report.VersionsDeleted != 1 {
				t.Errorf("VersionsDeleted = %d, want 1 (B)", report.VersionsDeleted)
			}
			if got := readFresh(t, d, "/f", tune); got != "A" {
				t.Fatalf("read %q after the collection, want %q", got, "A")
			}
		})
	}
}

// TestCollectSkipsFileRecreatedDuringSweep: a path unlinked before the
// listing and created again while the sweep runs holds a new file. Purging
// the tombstone the listing saw must not delete it.
func TestCollectSkipsFileRecreatedDuringSweep(t *testing.T) {
	d := newDeployment(t)
	hook := &sweepHook{}
	a, _ := d.agent(t, "a", func(o *Options) { hook.VersionedStore = o.Storage; o.Storage = hook })
	b, _ := d.agent(t, "b", nil)
	if err := fsapi.WriteFile(bg, a, "/f", []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := a.Unlink(bg, "/f"); err != nil {
		t.Fatal(err)
	}
	hook.then = func() {
		if err := fsapi.WriteFile(bg, b, "/f", []byte("new")); err != nil {
			t.Error(err)
		}
	}
	report, err := a.Collect(bg)
	if err != nil {
		t.Fatal(err)
	}
	if report.FilesPurged != 0 {
		t.Errorf("FilesPurged = %d, want 0: the record changed after the listing", report.FilesPurged)
	}
	if got := readFresh(t, d, "/f", nil); got != "new" {
		t.Fatalf("read %q, want the file created during the sweep", got)
	}
}

// TestCollectSkipsFileWrittenDuringSweep: a close that lands while the sweep
// runs appends a version to the record the listing trimmed. Writing the
// trimmed record back would roll the file back to the version before it.
func TestCollectSkipsFileWrittenDuringSweep(t *testing.T) {
	d := newDeployment(t)
	hook := &sweepHook{}
	a, _ := d.agent(t, "a", func(o *Options) { hook.VersionedStore = o.Storage; o.Storage = hook })
	b, _ := d.agent(t, "b", nil)
	for _, contents := range []string{"v1", "v2"} {
		if err := fsapi.WriteFile(bg, a, "/f", []byte(contents)); err != nil {
			t.Fatal(err)
		}
	}
	hook.then = func() {
		if err := fsapi.WriteFile(bg, b, "/f", []byte("v3")); err != nil {
			t.Error(err)
		}
	}
	if _, err := a.Collect(bg); err != nil {
		t.Fatal(err)
	}
	if got := readFresh(t, d, "/f", nil); got != "v3" {
		t.Fatalf("read %q, want the version closed during the sweep", got)
	}
	// The next run trims the record it now lists, and the file survives it.
	if _, err := a.Collect(bg); err != nil {
		t.Fatal(err)
	}
	if got := readFresh(t, d, "/f", nil); got != "v3" {
		t.Fatalf("read %q after the second collection, want v3", got)
	}
}

// descriptorReads counts, per cloud, the GETs of every object named
// ".../desc" — the version descriptor a DepSky read or delete starts with —
// that a request under a context marked by counted issues. Requests of
// earlier operations still on their way to a cloud carry no mark.
type descriptorReads struct {
	mu     sync.Mutex
	clouds int
	gets   map[string][]int // object name -> GETs on each cloud
}

type countedKey struct{}

func counted(ctx context.Context) context.Context { return context.WithValue(ctx, countedKey{}, true) }

type descriptorReadCounter struct {
	cloud.ObjectStore
	i int
	m *descriptorReads
}

func (m *descriptorReads) wrap(c cloud.ObjectStore) cloud.ObjectStore {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.clouds++
	return &descriptorReadCounter{ObjectStore: c, i: m.clouds - 1, m: m}
}

func (c *descriptorReadCounter) Get(ctx context.Context, name string) ([]byte, error) {
	if ctx.Value(countedKey{}) != nil && strings.HasSuffix(name, "/desc") {
		c.m.mu.Lock()
		if c.m.gets[name] == nil {
			c.m.gets[name] = make([]int, c.m.clouds)
		}
		c.m.gets[name][c.i]++
		c.m.mu.Unlock()
	}
	return c.ObjectStore.Get(ctx, name)
}

// TestCollectIsThreeAccesses pins the depth of a collection: the lock, the
// listing and one batch of every update with the release, three coordination
// accesses whether 0, 8 or 64 files changed; and on the clouds, one read of
// each doomed version's descriptor, on each cloud at most once.
func TestCollectIsThreeAccesses(t *testing.T) {
	for _, files := range []int{0, 8, 64} {
		t.Run(fmt.Sprintf("changed=%d", files), func(t *testing.T) {
			reads := &descriptorReads{gets: make(map[string][]int)}
			a, _ := testAgentWith(t, 4096, reads.wrap,
				func(s *storage.CloudOfClouds) storage.VersionedStore { return s })
			for i := 0; i < 3; i++ { // unchanged: one version each
				if err := fsapi.WriteFile(bg, a, fmt.Sprintf("/keep%d", i), []byte("k")); err != nil {
					t.Fatal(err)
				}
			}
			// Half the changed files are trimmed, half purged.
			for i := 0; i < files; i++ {
				path := fmt.Sprintf("/f%02d", i)
				for v := 0; v < 2; v++ {
					if err := fsapi.WriteFile(bg, a, path, []byte(fmt.Sprintf("%s v%d", path, v))); err != nil {
						t.Fatal(err)
					}
				}
				if i%2 == 1 {
					if err := a.Unlink(bg, path); err != nil {
						t.Fatal(err)
					}
				}
			}
			before := a.Stats().CoordAccesses
			report, err := a.Collect(counted(bg))
			if err != nil {
				t.Fatal(err)
			}
			if n := a.Stats().CoordAccesses - before; n != 3 {
				t.Errorf("collection cost %d coordination accesses, want 3", n)
			}
			if want := files/2 + 2*(files/2); report.VersionsDeleted != want || report.FilesPurged != files/2 {
				t.Errorf("deleted %d versions and purged %d files, want %d and %d", report.VersionsDeleted, report.FilesPurged, want, files/2)
			}
			reads.mu.Lock()
			gets := reads.gets
			reads.mu.Unlock()
			if len(gets) != report.VersionsDeleted {
				t.Errorf("the sweep read the descriptors of %d versions, want %d", len(gets), report.VersionsDeleted)
			}
			for name, perCloud := range gets {
				for i, n := range perCloud {
					if n > 1 {
						t.Errorf("%s read %d times on cloud %d, want at most once", name, n, i)
					}
				}
			}
			for i := 0; i < files; i += 2 {
				path := fmt.Sprintf("/f%02d", i)
				if got, err := fsapi.ReadFile(bg, a, path); err != nil || string(got) != path+" v1" {
					t.Errorf("%s after the collection: %q, %v", path, got, err)
				}
			}
		})
	}
}

// TestCollectReclaimsFileRemovedBeforeRecreation: a path written, removed and
// written again before a collection holds a new file. The removed file's
// record is replaced, yet its versions must still reach the collector
// instead of staying in the cloud with no record naming them. (One cloud:
// what it lists is what it stores.)
func TestCollectReclaimsFileRemovedBeforeRecreation(t *testing.T) {
	d := newDeployment(t)
	sc := oneCloud(t)
	tune := func(o *Options) { o.Storage = sc }
	a, _ := d.agent(t, "a", tune)
	if err := fsapi.WriteFile(bg, a, "/f", []byte("old")); err != nil {
		t.Fatal(err)
	}
	md, err := a.getMetadata(bg, "/f", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Unlink(bg, "/f"); err != nil {
		t.Fatal(err)
	}
	if err := fsapi.WriteFile(bg, a, "/f", []byte("new")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := a.Collect(bg); err != nil {
			t.Fatal(err)
		}
	}
	if left, err := a.opts.Storage.ListVersions(bg, md.FileID); err != nil || len(left) != 0 {
		t.Fatalf("the removed file still stores %v (%v) after two collections", left, err)
	}
	if got := readFresh(t, d, "/f", tune); got != "new" {
		t.Fatalf("read %q, want the re-created file", got)
	}
}

// quiesce waits until every provider has served as many PUTs and DELETEs as
// the others: with quorum cancellation off every request goes to all of
// them, so the uploads a quorum verdict did not wait for have landed.
func quiesce(t *testing.T, providers []*cloudsim.Provider, accounts []string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		u0 := providers[0].Usage(accounts[0])
		same := true
		for i, p := range providers[1:] {
			u := p.Usage(accounts[i+1])
			same = same && u.PutRequests == u0.PutRequests && u.DeleteRequests == u0.DeleteRequests
		}
		if same {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the clouds never served the same requests")
		}
	}
}

// TestCollectInsideTheConsistencyWindow: the clouds show a new version only
// after a consistency window, and a collection runs inside it, right after
// an overwrite, without waiting for the clouds to settle. It deletes the old
// version and must not cost the new one: once the window has passed, a
// second agent reads the new contents.
func TestCollectInsideTheConsistencyWindow(t *testing.T) {
	clk := &stepClock{Sim: clock.NewSim(time.Unix(1700000000, 0))}
	providers := make([]*cloudsim.Provider, 4)
	accounts := make([]string, 4)
	clients := make([]cloud.ObjectStore, 4)
	for i := range clients {
		providers[i] = cloudsim.NewProvider(cloudsim.Options{
			Name: fmt.Sprintf("c%d", i), ConsistencyWindow: time.Second, Clock: clk.Sim, Seed: int64(i + 1),
		})
		accounts[i] = providers[i].CreateAccount("alice")
		clients[i] = providers[i].MustClient(accounts[i])
	}
	// Every write lands on all four clouds, and before the clock moves on:
	// no cloud is left holding an older copy by a straggler.
	mgr, err := depsky.New(depsky.Options{Clouds: clients, F: 1, DisableQuorumCancel: true})
	if err != nil {
		t.Fatal(err)
	}
	d := &deployment{space: depspace.NewSpace(), mgr: mgr}
	tune := func(o *Options) { o.Clock = clk }
	a, _ := d.agent(t, "a", tune)
	if err := fsapi.WriteFile(bg, a, "/f", []byte("old")); err != nil {
		t.Fatal(err)
	}
	quiesce(t, providers, accounts)
	clk.Sim.Advance(2 * time.Second) // the clouds show the first version
	if err := fsapi.WriteFile(bg, a, "/f", []byte("new")); err != nil {
		t.Fatal(err)
	}
	quiesce(t, providers, accounts) // the clock stands still: every cloud is inside the window
	report, err := a.Collect(bg)
	if err != nil {
		t.Fatal(err)
	}
	if report.VersionsDeleted != 1 {
		t.Errorf("VersionsDeleted = %d, want 1 (the old contents)", report.VersionsDeleted)
	}
	quiesce(t, providers, accounts)
	clk.Sim.Advance(2 * time.Second) // past every write's window
	if got := readFresh(t, d, "/f", tune); got != "new" {
		t.Fatalf("read after a collection inside the window = %q, want the new contents", got)
	}
}
