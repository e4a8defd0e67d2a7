package storage

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"scfs/internal/cloud"
	"scfs/internal/cloudsim"
	"scfs/internal/depsky"
	"scfs/internal/seccrypto"
)

var bg = context.Background()

// newSingleCloudStore builds the storage of a single-cloud mount: DepSky-A
// at f = 0 over one provider.
func newSingleCloudStore(t *testing.T) (*cloudsim.Provider, *CloudOfClouds) {
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
	return p, NewCloudOfClouds(mgr)
}

func newCoCStore(t *testing.T) ([]*cloudsim.Provider, *CloudOfClouds) {
	t.Helper()
	providers := make([]*cloudsim.Provider, 4)
	clients := make([]cloud.ObjectStore, 4)
	for i := range providers {
		p := cloudsim.NewProvider(cloudsim.Options{Name: fmt.Sprintf("c%d", i)})
		providers[i] = p
		clients[i] = p.MustClient(p.CreateAccount("alice"))
	}
	mgr, err := depsky.New(depsky.Options{Clouds: clients, F: 1})
	if err != nil {
		t.Fatal(err)
	}
	return providers, NewCloudOfClouds(mgr)
}

func testVersionedStore(t *testing.T, vs VersionedStore) {
	t.Helper()
	data1 := []byte("contents of version one")
	data2 := []byte("contents of version two, different")
	h1 := seccrypto.Hash(data1)
	h2 := seccrypto.Hash(data2)

	if err := vs.WriteVersion(bg, "file-1", h1, data1); err != nil {
		t.Fatalf("WriteVersion v1: %v", err)
	}
	if err := vs.WriteVersion(bg, "file-1", h2, data2); err != nil {
		t.Fatalf("WriteVersion v2: %v", err)
	}
	got, err := vs.ReadVersion(bg, "file-1", h1)
	if err != nil {
		t.Fatalf("ReadVersion v1: %v", err)
	}
	if !bytes.Equal(got, data1) {
		t.Fatal("v1 contents mismatch")
	}
	got, err = vs.ReadVersion(bg, "file-1", h2)
	if err != nil {
		t.Fatalf("ReadVersion v2: %v", err)
	}
	if !bytes.Equal(got, data2) {
		t.Fatal("v2 contents mismatch")
	}
	if _, err := vs.ReadVersion(bg, "file-1", seccrypto.Hash([]byte("never written"))); !errors.Is(err, ErrVersionNotFound) {
		t.Fatalf("missing version err = %v, want ErrVersionNotFound", err)
	}
	hashes, err := vs.ListVersions(bg, "file-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(hashes) != 2 {
		t.Fatalf("ListVersions = %v, want 2 entries", hashes)
	}
	if err := vs.DeleteVersion(bg, "file-1", h1); err != nil {
		t.Fatal(err)
	}
	if _, err := vs.ReadVersion(bg, "file-1", h1); !errors.Is(err, ErrVersionNotFound) {
		t.Fatalf("deleted version still readable: %v", err)
	}
	if _, err := vs.ReadVersion(bg, "file-1", h2); err != nil {
		t.Fatalf("remaining version unreadable after GC: %v", err)
	}
}

func TestSingleCloudVersionedStore(t *testing.T) {
	_, sc := newSingleCloudStore(t)
	testVersionedStore(t, sc)
}

func TestCloudOfCloudsVersionedStore(t *testing.T) {
	_, coc := newCoCStore(t)
	testVersionedStore(t, coc)
}

// TestSingleCloudDetectsCorruption: one cloud cannot mask a corrupt copy,
// only refuse it. Neither the whole-object read nor the ranged one may
// return the corrupted bytes as the version's contents.
func TestSingleCloudDetectsCorruption(t *testing.T) {
	p, sc := newSingleCloudStore(t)
	data := []byte("important data")
	h := seccrypto.Hash(data)
	if err := sc.WriteVersion(bg, "f", h, data); err != nil {
		t.Fatal(err)
	}
	p.SetFault(cloudsim.FaultCorrupt)
	if got, err := sc.ReadVersion(bg, "f", h); err == nil || got != nil {
		t.Fatalf("ReadVersion of the corrupted only copy = %q, %v; want an error and no bytes", got, err)
	}
	if r, err := sc.OpenVersionAt(bg, "f", h); err == nil {
		r.Close()
		t.Fatal("OpenVersionAt served the corrupted only copy")
	}
}

func TestCoCMasksCorruption(t *testing.T) {
	providers, coc := newCoCStore(t)
	data := bytes.Repeat([]byte("resilient "), 500)
	h := seccrypto.Hash(data)
	if err := coc.WriteVersion(bg, "f", h, data); err != nil {
		t.Fatal(err)
	}
	providers[0].SetFault(cloudsim.FaultCorrupt)
	got, err := coc.ReadVersion(bg, "f", h)
	if err != nil {
		t.Fatalf("CoC read with a corrupting cloud: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("CoC returned corrupted data")
	}
}

// TestCoCWriteDropsVersionOnHashMismatch: contents that do not hash to what
// the caller is about to anchor store no descriptor, and their frames are
// deleted again, by the whole-object write exactly as by the streamed one.
func TestCoCWriteDropsVersionOnHashMismatch(t *testing.T) {
	data := bytes.Repeat([]byte("not what was promised "), 100)
	wrong := seccrypto.Hash([]byte("something else"))
	for name, write := range map[string]func(*CloudOfClouds) error{
		"WriteVersion":     func(c *CloudOfClouds) error { return c.WriteVersion(bg, "f", wrong, data) },
		"WriteVersionFrom": func(c *CloudOfClouds) error { return c.WriteVersionFrom(bg, "f", wrong, bytes.NewReader(data)) },
	} {
		providers, coc := newCoCStore(t)
		if err := write(coc); !errors.Is(err, ErrIntegrity) {
			t.Fatalf("%s err = %v, want ErrIntegrity", name, err)
		}
		for _, h := range []string{wrong, seccrypto.Hash(data)} {
			if _, err := coc.ReadVersion(bg, "f", h); !errors.Is(err, ErrVersionNotFound) {
				t.Fatalf("%s left a version readable: %v", name, err)
			}
		}
		for i, p := range providers {
			if n := p.ObjectCount(); n != 0 {
				t.Fatalf("%s left %d objects on cloud %d", name, n, i)
			}
		}
	}
}

// cocOver builds a cloud-of-clouds store over four providers, letting wrap
// stand in for any of their clients. Quorum verdicts do not cancel the
// remaining uploads, so every cloud ends up with every object (see settle).
func cocOver(t *testing.T, wrap func(i int, c cloud.ObjectStore) cloud.ObjectStore) ([]*cloudsim.Provider, []cloud.ObjectStore, *CloudOfClouds) {
	t.Helper()
	providers := make([]*cloudsim.Provider, 4)
	clients := make([]cloud.ObjectStore, 4)
	stores := make([]cloud.ObjectStore, 4)
	for i := range providers {
		providers[i] = cloudsim.NewProvider(cloudsim.Options{Name: fmt.Sprintf("c%d", i)})
		clients[i] = providers[i].MustClient(providers[i].CreateAccount("alice"))
		stores[i] = wrap(i, clients[i])
	}
	mgr, err := depsky.New(depsky.Options{Clouds: stores, F: 1, DisableQuorumCancel: true})
	if err != nil {
		t.Fatal(err)
	}
	return providers, clients, NewCloudOfClouds(mgr)
}

// forgedList is a Byzantine cloud whose listings add names of its choosing.
type forgedList struct {
	cloud.ObjectStore
	extra []string
}

func (f *forgedList) List(ctx context.Context, prefix string) ([]cloud.ObjectInfo, error) {
	objs, err := f.ObjectStore.List(ctx, prefix)
	for _, name := range f.extra {
		objs = append(objs, cloud.ObjectInfo{Name: name})
	}
	return objs, err
}

// TestCoCSweepIgnoresForgedObjectID: one Byzantine cloud lists a live
// version's objects as if they were the doomed version's. The garbage
// collector's sweep of the doomed version must leave the live one readable
// and its objects where they were.
func TestCoCSweepIgnoresForgedObjectID(t *testing.T) {
	evil := &forgedList{}
	providers, clients, coc := cocOver(t, func(i int, c cloud.ObjectStore) cloud.ObjectStore {
		if i == 0 {
			evil.ObjectStore = c
			return evil
		}
		return c
	})
	doomed, live := []byte("doomed"), []byte("live")
	for _, data := range [][]byte{doomed, live} {
		if err := coc.WriteVersion(bg, "f", seccrypto.Hash(data), data); err != nil {
			t.Fatal(err)
		}
	}
	settle(t, providers)
	livePrefix := "dsky/f/" + seccrypto.Hash(live) + "/"
	liveObjects := func() (names []string) {
		for _, c := range clients {
			objs, _ := c.List(bg, livePrefix)
			for _, o := range objs {
				names = append(names, o.Name)
			}
		}
		return names
	}
	before := liveObjects()
	evil.extra = before

	stats := coc.DeleteVersionsBatch(bg, map[string][]string{"f": {seccrypto.Hash(doomed)}})
	if stats.Deleted != 1 {
		t.Fatalf("sweep deleted %d versions, want 1", stats.Deleted)
	}
	if got, err := coc.ReadVersion(bg, "f", seccrypto.Hash(live)); err != nil || !bytes.Equal(got, live) {
		t.Fatalf("live version after the sweep: %q, %v", got, err)
	}
	if after := liveObjects(); len(after) != len(before) || len(before) == 0 {
		t.Fatalf("live version's objects: %d before the sweep, %d after", len(before), len(after))
	}
}

// laggingStore is a cloud that, once frozen, acknowledges every PUT and
// DELETE without applying it: a replica that lags the writes after a point.
type laggingStore struct {
	cloud.ObjectStore
	frozen atomic.Bool
}

func (l *laggingStore) Put(ctx context.Context, name string, data []byte) error {
	if l.frozen.Load() {
		return nil
	}
	return l.ObjectStore.Put(ctx, name, data)
}

func (l *laggingStore) Delete(ctx context.Context, name string) error {
	if l.frozen.Load() {
		return nil
	}
	return l.ObjectStore.Delete(ctx, name)
}

// settle waits until every provider holds the same number of objects: the
// uploads a write's quorum verdict did not wait for have landed.
func settle(t *testing.T, providers []*cloudsim.Provider) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		n := providers[0].ObjectCount()
		same := n > 0
		for _, p := range providers[1:] {
			same = same && p.ObjectCount() == n
		}
		if same {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the clouds never held the same objects")
		}
	}
}

// TestLaggingCloudShowsNoGhost: cloud 3 lags the delete of a version, and
// cloud 0 is down while the versions are listed, so every answer a reader
// gets includes the lagging cloud's. ListVersions must not report the
// deleted version, and a later sweep of it must credit it with nothing.
func TestLaggingCloudShowsNoGhost(t *testing.T) {
	lag := &laggingStore{}
	providers, _, coc := cocOver(t, func(i int, c cloud.ObjectStore) cloud.ObjectStore {
		if i == 3 {
			lag.ObjectStore = c
			return lag
		}
		return c
	})
	v1, v2 := []byte("deleted"), []byte("kept")
	for _, data := range [][]byte{v1, v2} {
		if err := coc.WriteVersion(bg, "f", seccrypto.Hash(data), data); err != nil {
			t.Fatal(err)
		}
	}
	settle(t, providers)
	lag.frozen.Store(true)
	if err := coc.DeleteVersion(bg, "f", seccrypto.Hash(v1)); err != nil {
		t.Fatal(err)
	}
	providers[0].SetFault(cloudsim.FaultUnavailable)
	hashes, err := coc.ListVersions(bg, "f")
	if err != nil {
		t.Fatal(err)
	}
	if len(hashes) != 1 || hashes[0] != seccrypto.Hash(v2) {
		t.Fatalf("ListVersions = %v, want only the kept version", hashes)
	}
	if stats := coc.DeleteVersionsBatch(bg, map[string][]string{"f": {seccrypto.Hash(v1)}}); stats.ReclaimedBytes != 0 || stats.ReclaimedObjects != 0 {
		t.Fatalf("a second sweep of the deleted version reclaims %+v, want nothing", stats)
	}
}

// TestPNSFlushesLeaveOneVersion: the private name space is rewritten on
// every flush, and each flush deletes the version its head replaced. Ten
// flushes leave one version's objects and the head on each cloud, and no
// metadata object.
func TestPNSFlushesLeaveOneVersion(t *testing.T) {
	providers, clients, _ := cocOver(t, func(_ int, c cloud.ObjectStore) cloud.ObjectStore { return c })
	mgr, err := depsky.New(depsky.Options{Clouds: clients, F: 1, DisableQuorumCancel: true})
	if err != nil {
		t.Fatal(err)
	}
	pns := NewCoCPNS(mgr)
	var last []byte
	for i := range 10 {
		last = []byte(fmt.Sprintf("name space, flush %d", i))
		if err := pns.WritePNS(bg, "alice", last); err != nil {
			t.Fatal(err)
		}
		settle(t, providers) // the next flush deletes this one's objects everywhere
	}
	for i, c := range clients {
		objs, err := c.List(bg, "")
		if err != nil {
			t.Fatal(err)
		}
		// The head, and the last version's descriptor object, which holds
		// its chunk.
		if len(objs) != 2 {
			t.Fatalf("cloud %d holds %d objects after ten flushes, want 2: %v", i, len(objs), objs)
		}
		for _, o := range objs {
			if strings.HasSuffix(o.Name, "/metadata") {
				t.Fatalf("cloud %d holds a metadata object %s", i, o.Name)
			}
		}
	}
	if got, err := pns.ReadPNS(bg, "alice"); err != nil || !bytes.Equal(got, last) {
		t.Fatalf("ReadPNS = %q, %v; want the last flush", got, err)
	}
}

// refuseDeletes is a cloud whose deletes fail: a correct one having a bad
// moment, or a Byzantine one that keeps what it is told to delete.
type refuseDeletes struct{ cloud.ObjectStore }

func (refuseDeletes) Delete(context.Context, string) error { return cloud.ErrUnavailable }

// TestForgedNewestHeadIsNotRead: one Byzantine cloud presents a head newer
// than any written, naming the value the last write replaced or a value
// nobody wrote. ReadPNS must still return the last value written — also when
// the replaced value is still readable, because deleting it failed on the
// Byzantine cloud and on one correct cloud.
func TestForgedNewestHeadIsNotRead(t *testing.T) {
	replay := func(previous []byte) string { return seccrypto.Hash(previous) }
	for name, tc := range map[string]struct {
		forge func(previous []byte) string
		kept  bool
	}{
		"replayed value":                        {replay, false},
		"invented value":                        {func([]byte) string { return seccrypto.Hash([]byte("never written")) }, false},
		"replayed value its delete left behind": {replay, true},
	} {
		t.Run(name, func(t *testing.T) {
			providers, clients, _ := cocOver(t, func(_ int, c cloud.ObjectStore) cloud.ObjectStore { return c })
			stores := append([]cloud.ObjectStore(nil), clients...)
			if tc.kept {
				stores[0], stores[1] = refuseDeletes{clients[0]}, refuseDeletes{clients[1]}
			}
			mgr, err := depsky.New(depsky.Options{Clouds: stores, F: 1, DisableQuorumCancel: true})
			if err != nil {
				t.Fatal(err)
			}
			pns := NewCoCPNS(mgr)
			previous, last := []byte("previous name space"), []byte("last name space")
			for _, v := range [][]byte{previous, last} {
				if err := pns.WritePNS(bg, "alice", v); err != nil {
					t.Fatal(err)
				}
				if !tc.kept {
					settle(t, providers)
				}
			}
			// Clouds 0 and 1 keep the replaced value beside the head and
			// the last value; the others hold those two alone.
			for i := 0; tc.kept && i < len(providers); i++ {
				want := 2
				if i < 2 {
					want = 3
				}
				for deadline := time.Now().Add(5 * time.Second); providers[i].ObjectCount() != want; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("cloud %d holds %d objects, want %d", i, providers[i].ObjectCount(), want)
					}
				}
			}
			if _, _, err := mgr.ReadMatching(bg, "pns/alice", seccrypto.Hash(previous)); (err == nil) != tc.kept {
				t.Fatalf("the replaced value reads: %v; want readable %v", err, tc.kept)
			}
			// The head's layout: magic, big-endian sequence number, hash.
			head := append([]byte("DSKH\x00\x00\x00\x00\x00\x00\x00\x63"), tc.forge(previous)...)
			if err := clients[0].Put(bg, "dsky/pns/alice/head", head); err != nil {
				t.Fatal(err)
			}
			if got, err := pns.ReadPNS(bg, "alice"); err != nil || !bytes.Equal(got, last) {
				t.Fatalf("ReadPNS = %q, %v; want the last value written", got, err)
			}
			// A write after the forgery numbers from the head a quorum
			// vouches for, not from the forged one.
			if err := pns.WritePNS(bg, "alice", []byte("next name space")); err != nil {
				t.Fatal(err)
			}
			if got, err := pns.ReadPNS(bg, "alice"); err != nil || string(got) != "next name space" {
				t.Fatalf("ReadPNS after the next write = %q, %v", got, err)
			}
		})
	}
}
