package fsmeta

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"scfs/internal/fsapi"
)

var t0 = time.Date(2014, 6, 19, 12, 0, 0, 0, time.UTC)

// unixUTC is the time a record reads back for Unix time sec s + nsec ns.
func unixUTC(sec, nsec int64) time.Time { return time.Unix(sec, nsec).UTC() }

// sameRecord reports whether a and b are one record: their times Equal,
// every other field deeply equal.
func sameRecord(a, b *Metadata) bool {
	if len(a.Versions) != len(b.Versions) || !a.Ctime.Equal(b.Ctime) || !a.Mtime.Equal(b.Mtime) {
		return false
	}
	ac, bc := a.Clone(), b.Clone()
	for i := range ac.Versions {
		if !ac.Versions[i].ModTime.Equal(bc.Versions[i].ModTime) {
			return false
		}
		ac.Versions[i].ModTime = bc.Versions[i].ModTime
	}
	ac.Ctime, ac.Mtime = bc.Ctime, bc.Mtime
	return reflect.DeepEqual(ac, bc)
}

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
	got, err := DecodeAt(m.Path, b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Path != m.Path || got.Hash != m.Hash || got.Size != m.Size || len(got.ACL) != 1 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if _, err := Decode([]byte("not a record")); err == nil {
		t.Fatal("Decode accepted garbage")
	}
}

// TestRecordRoundTrip: a record with the zero time, a time before 1970 and
// one with nanoseconds, an ACL and versions reads back as it was written,
// and Version is not part of it.
func TestRecordRoundTrip(t *testing.T) {
	pre1970 := time.Date(1969, 7, 20, 20, 17, 40, 0, time.FixedZone("EDT", -4*3600))
	nanos := time.Date(2014, 6, 19, 12, 0, 0, 123456789, time.Local)
	m := &Metadata{Path: "/docs/a", Type: fsapi.TypeSymlink, Size: 42, Mtime: nanos, Owner: "alice",
		ACL:    []fsapi.ACLEntry{{User: "bob", Perm: fsapi.PermRead}, {User: "carol", Perm: fsapi.PermReadWrite}},
		FileID: "fid", Hash: "h2", Versions: []VersionRecord{{Hash: "h1", Size: 7, ModTime: pre1970}, {Hash: "h2", Size: 42, ModTime: nanos}},
		Deleted: true, LinkTarget: "/docs/b", Version: 9}
	b, _ := m.Encode()
	got, err := DecodeAt(m.Path, b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Ctime != (time.Time{}) {
		t.Fatalf("the zero time read back as %v", got.Ctime)
	}
	if got.Version != 0 {
		t.Fatalf("Version %d read back from the record", got.Version)
	}
	unversioned := m.Clone()
	unversioned.Version = 0
	if !sameRecord(got, unversioned) {
		t.Fatalf("round trip of %+v gave %+v", m, got)
	}
	if again, _ := unversioned.Encode(); !slices.Equal(again, b) {
		t.Fatal("Version changed the record's encoding")
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

func TestPNSBasicOperations(t *testing.T) {
	p := NewPNS()
	if got := listed(p); len(got) != 0 {
		t.Fatalf("fresh PNS lists %q", got)
	}
	if p.Get("/missing") != nil {
		t.Fatal("Get on empty PNS should be nil")
	}
	m := NewFile("/docs/a", "alice", "fid-a", t0)
	p.Put(m)
	p.Put(NewFile("/docs/b", "alice", "fid-b", t0))
	p.Put(NewDir("/docs", "alice", t0))
	if got := listed(p); !slices.Equal(got, []string{"/docs", "/docs/a", "/docs/b"}) {
		t.Fatalf("PNS lists %q", got)
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
	p := NewPNS()
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
	p := NewPNS()
	for i := 0; i < 10; i++ {
		m := NewFile("/private/file"+string(rune('0'+i)), "alice", "fid", t0)
		m.AddVersion("h", int64(i), t0)
		p.Put(m)
	}
	b := p.Encode()
	got, err := DecodePNS("alice", b)
	if err != nil {
		t.Fatal(err)
	}
	if want := listed(p); len(want) != 10 || !slices.Equal(listed(got), want) {
		t.Fatalf("decoded PNS lists %q, want %q", listed(got), want)
	}
	if got.Get("/private/file3") == nil {
		t.Fatal("entry lost in round trip")
	}
	// The bytes come from the clouds: a truncated name space is refused,
	// not read in part.
	for _, bad := range [][]byte{nil, b[:len(b)-1], b[:2]} {
		if _, err := DecodePNS("alice", bad); err == nil {
			t.Errorf("DecodePNS(%x) accepted garbage", bad)
		}
	}
}
