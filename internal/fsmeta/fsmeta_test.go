package fsmeta

import (
	"testing"
	"time"

	"scfs/internal/fsapi"
)

var t0 = time.Date(2014, 6, 19, 12, 0, 0, 0, time.UTC)

func TestNewFileAndDir(t *testing.T) {
	f := NewFile("docs/report.odt", "alice", "fid-1", t0)
	if f.Path != "/docs/report.odt" {
		t.Fatalf("path = %q (should be normalized to absolute)", f.Path)
	}
	if f.Name() != "report.odt" || f.Parent() != "/docs" {
		t.Fatalf("Name=%q Parent=%q", f.Name(), f.Parent())
	}
	if f.IsDir() {
		t.Fatal("file reported as directory")
	}
	d := NewDir("/docs", "alice", t0)
	if !d.IsDir() || d.Type != fsapi.TypeDir {
		t.Fatal("NewDir did not produce a directory")
	}
}

func TestACLAndSharing(t *testing.T) {
	m := NewFile("/f", "alice", "fid", t0)
	if m.IsShared() {
		t.Fatal("fresh file must not be shared")
	}
	if !m.CanRead("alice") || !m.CanWrite("alice") {
		t.Fatal("owner must have full access")
	}
	if m.CanRead("bob") || m.CanWrite("bob") {
		t.Fatal("stranger must have no access")
	}
	m.SetACL("bob", fsapi.PermRead)
	if !m.IsShared() {
		t.Fatal("file with a grant must be shared")
	}
	if !m.CanRead("bob") || m.CanWrite("bob") {
		t.Fatal("read grant misbehaves")
	}
	m.SetACL("bob", fsapi.PermReadWrite)
	if !m.CanWrite("bob") {
		t.Fatal("read-write grant misbehaves")
	}
	if got := m.Writers(); len(got) != 1 || got[0] != "bob" {
		t.Fatalf("Writers = %v", got)
	}
	if got := m.Readers(); len(got) != 1 || got[0] != "bob" {
		t.Fatalf("Readers = %v", got)
	}
	m.SetACL("bob", fsapi.PermNone)
	if m.IsShared() || m.CanRead("bob") {
		t.Fatal("revocation did not work")
	}
}

func TestVersionsAndTrim(t *testing.T) {
	m := NewFile("/f", "alice", "fid", t0)
	for i := 1; i <= 5; i++ {
		m.AddVersion(string(rune('a'+i)), int64(i*100), t0.Add(time.Duration(i)*time.Minute))
	}
	if m.Size != 500 || len(m.Versions) != 5 {
		t.Fatalf("size=%d versions=%d", m.Size, len(m.Versions))
	}
	removed := m.TrimVersions(2)
	if len(removed) != 3 || len(m.Versions) != 2 {
		t.Fatalf("removed=%d kept=%d", len(removed), len(m.Versions))
	}
	if m.Versions[1].Hash != m.Hash {
		t.Fatal("current version must be kept by TrimVersions")
	}
	if r := m.TrimVersions(10); r != nil {
		t.Fatal("TrimVersions with large keep should remove nothing")
	}
	if r := m.TrimVersions(0); len(m.Versions) != 1 || len(r) != 1 {
		t.Fatal("TrimVersions(0) should behave as keep=1")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := NewFile("/docs/a.txt", "alice", "fid-9", t0)
	m.SetACL("bob", fsapi.PermReadWrite)
	m.AddVersion("hash1", 42, t0)
	b, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Path != m.Path || got.Hash != m.Hash || got.Size != m.Size || len(got.ACL) != 1 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if _, err := Decode([]byte("not json")); err == nil {
		t.Fatal("Decode accepted garbage")
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := NewFile("/f", "alice", "fid", t0)
	m.SetACL("bob", fsapi.PermRead)
	m.AddVersion("h1", 1, t0)
	c := m.Clone()
	c.SetACL("carol", fsapi.PermRead)
	c.AddVersion("h2", 2, t0)
	if len(m.ACL) != 1 || len(m.Versions) != 1 {
		t.Fatal("Clone shares slices with the original")
	}
}

func TestFileInfoConversion(t *testing.T) {
	m := NewFile("/docs/x", "alice", "fid", t0)
	m.AddVersion("h", 123, t0)
	m.SetACL("bob", fsapi.PermRead)
	fi := m.FileInfo()
	if fi.Path != "/docs/x" || fi.Name != "x" || fi.Size != 123 || !fi.Shared || fi.Owner != "alice" {
		t.Fatalf("FileInfo = %+v", fi)
	}
}

func TestPathHelpers(t *testing.T) {
	if Clean("a/b/../c") != "/a/c" || Clean("") != "/" || Clean("/") != "/" {
		t.Fatal("Clean misbehaves")
	}
	if !IsChildOf("/a/b", "/a") || IsChildOf("/ab", "/a") || IsChildOf("/a", "/a") {
		t.Fatal("IsChildOf misbehaves")
	}
	if !IsChildOf("/x", "/") || IsChildOf("/", "/") {
		t.Fatal("IsChildOf at root misbehaves")
	}
}

func TestApproxTupleSizeIsAboutOneKB(t *testing.T) {
	// The paper assumes ~1KB per metadata tuple with 100-byte names.
	name := "/" + string(make([]byte, 100))
	m := NewFile(name, "alice", "fid-123456", t0)
	m.AddVersion("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef", 1<<20, t0)
	size := m.ApproxTupleSize()
	if size < 300 || size > 2048 {
		t.Fatalf("tuple size = %d bytes, expected a few hundred bytes to ~1KB", size)
	}
}

func TestPNSBasicOperations(t *testing.T) {
	p := NewPNS("alice")
	if p.User() != "alice" || p.Len() != 0 {
		t.Fatal("fresh PNS misconfigured")
	}
	if p.Get("/missing") != nil {
		t.Fatal("Get on empty PNS should be nil")
	}
	m := NewFile("/docs/a", "alice", "fid-a", t0)
	p.Put(m)
	p.Put(NewFile("/docs/b", "alice", "fid-b", t0))
	p.Put(NewDir("/docs", "alice", t0))
	if p.Len() != 3 {
		t.Fatalf("Len = %d, want 3", p.Len())
	}
	got := p.Get("/docs/a")
	if got == nil || got.FileID != "fid-a" {
		t.Fatalf("Get = %+v", got)
	}
	// Mutating the returned copy must not affect the stored entry.
	got.FileID = "tampered"
	if p.Get("/docs/a").FileID != "fid-a" {
		t.Fatal("Get returned a shared reference")
	}
	kids := p.List("/docs")
	if len(kids) != 2 || kids[0].Path != "/docs/a" || kids[1].Path != "/docs/b" {
		t.Fatalf("List = %+v", kids)
	}
	all := p.ListPrefix("/docs")
	if len(all) != 3 {
		t.Fatalf("ListPrefix = %d entries, want 3", len(all))
	}
	if !p.Remove("/docs/a") || p.Remove("/docs/a") {
		t.Fatal("Remove misbehaves")
	}
}

func TestPNSRenamePrefix(t *testing.T) {
	p := NewPNS("alice")
	for _, pa := range []string{"/dir", "/dir/a", "/dir/sub/b", "/other"} {
		p.Put(NewFile(pa, "alice", "fid", t0))
	}
	n := p.RenamePrefix("/dir", "/moved")
	if n != 3 {
		t.Fatalf("renamed %d entries, want 3", n)
	}
	if p.Get("/moved/sub/b") == nil || p.Get("/dir/a") != nil || p.Get("/other") == nil {
		t.Fatal("rename left the namespace inconsistent")
	}
	if p.Get("/moved/sub/b").Path != "/moved/sub/b" {
		t.Fatal("entry path field not rewritten")
	}
}

func TestPNSEncodeDecodeRoundTrip(t *testing.T) {
	p := NewPNS("alice")
	for i := 0; i < 10; i++ {
		m := NewFile("/private/file"+string(rune('0'+i)), "alice", "fid", t0)
		m.AddVersion("h", int64(i), t0)
		p.Put(m)
	}
	b, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodePNS(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.User() != "alice" || got.Len() != 10 {
		t.Fatalf("decoded PNS user=%q len=%d", got.User(), got.Len())
	}
	if got.Get("/private/file3") == nil {
		t.Fatal("entry lost in round trip")
	}
	// The bytes come from the clouds: a null entry is refused, not
	// dereferenced.
	for _, bad := range []string{"{", `{"user":"u","entries":[null]}`, `{"user":"u","entries":[{"path":"/a"},null]}`} {
		if _, err := DecodePNS([]byte(bad)); err == nil {
			t.Errorf("DecodePNS(%s) accepted garbage", bad)
		}
	}
}

func TestSizingEstimateMatchesPaperNumbers(t *testing.T) {
	// §2.7: 1M files, 5% shared, ~1KB tuples -> ~1GB without PNS, a little
	// more than 50MB with PNS.
	without, with := SizingEstimate(1_000_000, 0.05, 1024, 1000)
	if without != 1024*1_000_000 {
		t.Fatalf("without PNS = %d bytes", without)
	}
	if with < 50_000_000 || with > 60_000_000 {
		t.Fatalf("with PNS = %d bytes, expected a little over 50MB", with)
	}
	if ratio := float64(without) / float64(with); ratio < 15 {
		t.Fatalf("PNS saving ratio = %.1f, expected >15x", ratio)
	}
	// Clamping.
	w1, _ := SizingEstimate(10, -1, 1024, 1)
	if w1 != 10*1024 {
		t.Fatal("negative shared fraction not clamped")
	}
	_, w2 := SizingEstimate(10, 2, 1024, 1)
	if w2 != 10*1024+1024 {
		t.Fatalf("shared fraction above 1 not clamped: %d", w2)
	}
}
