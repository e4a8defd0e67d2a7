package storage

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"scfs/internal/cloud"
	"scfs/internal/cloudsim"
	"scfs/internal/depsky"
	"scfs/internal/seccrypto"
)

var bg = context.Background()

func newSingleCloudStore(t *testing.T, encrypt bool) (*cloudsim.Provider, *SingleCloud) {
	t.Helper()
	p := cloudsim.NewProvider(cloudsim.Options{Name: "s3"})
	c := p.MustClient(p.CreateAccount("alice"))
	sc, err := NewSingleCloud(c, encrypt)
	if err != nil {
		t.Fatal(err)
	}
	return p, sc
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
	if vs.Name() == "" {
		t.Fatal("backend must report a name")
	}
}

func TestSingleCloudVersionedStore(t *testing.T) {
	_, sc := newSingleCloudStore(t, false)
	testVersionedStore(t, sc)
}

func TestSingleCloudEncryptedVersionedStore(t *testing.T) {
	_, sc := newSingleCloudStore(t, true)
	testVersionedStore(t, sc)
}

func TestCloudOfCloudsVersionedStore(t *testing.T) {
	_, coc := newCoCStore(t)
	testVersionedStore(t, coc)
}

func TestSingleCloudEncryptionHidesPlaintext(t *testing.T) {
	p, sc := newSingleCloudStore(t, true)
	data := bytes.Repeat([]byte("SECRETDATA"), 50)
	h := seccrypto.Hash(data)
	if err := sc.WriteVersion(bg, "f", h, data); err != nil {
		t.Fatal(err)
	}
	c := p.MustClient(p.CreateAccount("alice"))
	objs, _ := c.List(bg, "")
	for _, o := range objs {
		raw, _ := c.Get(bg, o.Name)
		if bytes.Contains(raw, []byte("SECRETDATA")) {
			t.Fatal("plaintext stored despite encryption")
		}
	}
}

func TestSingleCloudDetectsCorruption(t *testing.T) {
	p, sc := newSingleCloudStore(t, false)
	data := []byte("important data")
	h := seccrypto.Hash(data)
	if err := sc.WriteVersion(bg, "f", h, data); err != nil {
		t.Fatal(err)
	}
	p.SetFault(cloudsim.FaultCorrupt)
	if _, err := sc.ReadVersion(bg, "f", h); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("err = %v, want ErrIntegrity (single cloud cannot mask corruption, only detect it)", err)
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

// TestCoCWriteDropsVersionOnHashMismatch: a version whose contents do not
// hash to what the caller is about to anchor is deleted again, by the
// whole-object write exactly as by the streamed one.
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
		// (A lagging metadata copy may still list it: ROADMAP item 3.)
		if _, err := coc.ReadVersion(bg, "f", seccrypto.Hash(data)); !errors.Is(err, ErrVersionNotFound) {
			t.Fatalf("%s left the version readable: %v", name, err)
		}
		for i, p := range providers {
			if n := p.ObjectCount(); n > 1 { // the unit's metadata object
				t.Fatalf("%s left %d objects on cloud %d", name, n, i)
			}
		}
	}
}

// TestCoCSweepIgnoresForgedObjectID: one Byzantine cloud rewrites its copy of
// a doomed version's entry so that it names a live version's objects. The
// garbage collector's sweep of the doomed version must leave the live one
// readable and its objects where they were.
func TestCoCSweepIgnoresForgedObjectID(t *testing.T) {
	providers, coc := newCoCStore(t)
	doomed, live := []byte("doomed"), []byte("live")
	for _, data := range [][]byte{doomed, live} {
		if err := coc.WriteVersion(bg, "f", seccrypto.Hash(data), data); err != nil {
			t.Fatal(err)
		}
	}
	versions, err := coc.mgr.ListVersions(bg, "f")
	if err != nil || len(versions) != 2 {
		t.Fatalf("versions = %+v, %v", versions, err)
	}
	liveObjects := func() (n int) {
		for _, p := range providers {
			objs, _ := p.MustClient(p.CreateAccount("alice")).List(bg, "dsky/f/"+versions[1].ID+"/")
			n += len(objs)
		}
		return n
	}
	before := liveObjects()

	// Cloud 0 forges its copy from an honest one (a write's straggler is
	// cancelled, so cloud 0 itself may hold none).
	var raw []byte
	for _, p := range providers {
		if raw, err = p.MustClient(p.CreateAccount("alice")).Get(bg, "dsky/f/metadata"); err == nil {
			break
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	evil := providers[0].MustClient(providers[0].CreateAccount("alice"))
	var md struct {
		Unit     string               `json:"unit"`
		Versions []depsky.VersionInfo `json:"versions"`
	}
	if err := json.Unmarshal(raw, &md); err != nil {
		t.Fatal(err)
	}
	md.Versions[0].ID = versions[1].ID
	forged, _ := json.Marshal(md)
	if err := evil.Put(bg, "dsky/f/metadata", forged); err != nil {
		t.Fatal(err)
	}

	stats := coc.DeleteVersionsBatch(bg, map[string][]string{"f": {seccrypto.Hash(doomed)}})
	if stats.Deleted != 1 {
		t.Fatalf("sweep deleted %d versions, want 1", stats.Deleted)
	}
	if got, err := coc.ReadVersion(bg, "f", seccrypto.Hash(live)); err != nil || !bytes.Equal(got, live) {
		t.Fatalf("live version after the sweep: %q, %v", got, err)
	}
	if after := liveObjects(); after != before || before == 0 {
		t.Fatalf("live version's objects: %d before the sweep, %d after", before, after)
	}
}
