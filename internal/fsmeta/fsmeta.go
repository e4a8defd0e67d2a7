// Package fsmeta defines the file-system metadata model of SCFS: the
// metadata tuple stored per file/directory in the coordination service
// (§2.5.1), the ACL representation used by setfacl/getfacl (§2.6), and the
// Private Name Space aggregate that groups the metadata of all non-shared
// files of a user into a single cloud object (§2.7).
package fsmeta

import (
	"fmt"
	"path"
	"sort"
	"strings"
	"time"

	"scfs/internal/codec"
	"scfs/internal/fsapi"
)

// Metadata is the per-object record SCFS keeps in the coordination service
// (or inside a PNS for private files). It mirrors the tuple described in the
// paper: name, type, parent, attributes, the opaque identifier referencing
// the file in the storage service and the hash of the current version.
type Metadata struct {
	// Path is the absolute path of the object in the SCFS namespace: the
	// record's key, not part of its encoding.
	Path string
	// Type distinguishes files, directories and symlinks.
	Type fsapi.FileType
	// Size is the length of the current version in bytes.
	Size int64
	// Ctime and Mtime are creation and last-modification times.
	Ctime time.Time
	Mtime time.Time
	// Owner is the SCFS user that created the object and pays for it.
	Owner string
	// ACL lists the permissions granted to other users.
	ACL []fsapi.ACLEntry
	// FileID is the opaque identifier referencing the object's data in the
	// storage service (and therefore in the storage clouds).
	FileID string
	// Versions records older versions for recovery until the garbage
	// collector reclaims them; the last entry is the current version, whose
	// hash (Hash) is the value anchored in the consistency anchor.
	Versions []VersionRecord
	// Deleted marks files removed by the user but not yet garbage collected
	// (multi-versioning principle).
	Deleted bool
	// LinkTarget holds the target path for symlinks.
	LinkTarget string

	// Version is the coordination-service version of the record this copy
	// was read from or written as — what a write conditional on it expects —
	// and 0 for a copy from anywhere else. It is not part of the record.
	Version uint64
}

// VersionRecord identifies one stored version of a file.
type VersionRecord struct {
	Hash    string
	Size    int64
	ModTime time.Time
}

// Name returns the final path element.
func (m *Metadata) Name() string { return path.Base(m.Path) }

// Parent returns the parent directory path.
func (m *Metadata) Parent() string { return path.Dir(m.Path) }

// IsDir reports whether the entry is a directory.
func (m *Metadata) IsDir() bool { return m.Type == fsapi.TypeDir }

// IsShared reports whether any user other than the owner has access. Shared
// entries must live in the coordination service; private ones may live in
// the owner's PNS.
func (m *Metadata) IsShared() bool {
	for _, e := range m.ACL {
		if e.User != m.Owner && e.Perm != fsapi.PermNone {
			return true
		}
	}
	return false
}

// CanRead reports whether user may read the object.
func (m *Metadata) CanRead(user string) bool {
	if user == m.Owner {
		return true
	}
	for _, e := range m.ACL {
		if e.User == user && (e.Perm == fsapi.PermRead || e.Perm == fsapi.PermReadWrite) {
			return true
		}
	}
	return false
}

// CanWrite reports whether user may modify the object.
func (m *Metadata) CanWrite(user string) bool {
	if user == m.Owner {
		return true
	}
	for _, e := range m.ACL {
		if e.User == user && e.Perm == fsapi.PermReadWrite {
			return true
		}
	}
	return false
}

// SetACL grants or revokes a user's permission, replacing any previous entry.
func (m *Metadata) SetACL(user string, perm fsapi.Permission) {
	out := m.ACL[:0]
	for _, e := range m.ACL {
		if e.User != user {
			out = append(out, e)
		}
	}
	if perm != fsapi.PermNone {
		out = append(out, fsapi.ACLEntry{User: user, Perm: perm})
	}
	m.ACL = out
}

// Readers returns every user with at least read access (excluding the owner).
func (m *Metadata) Readers() []string {
	var out []string
	for _, e := range m.ACL {
		if e.Perm == fsapi.PermRead || e.Perm == fsapi.PermReadWrite {
			out = append(out, e.User)
		}
	}
	sort.Strings(out)
	return out
}

// Writers returns every user with write access (excluding the owner).
func (m *Metadata) Writers() []string {
	var out []string
	for _, e := range m.ACL {
		if e.Perm == fsapi.PermReadWrite {
			out = append(out, e.User)
		}
	}
	sort.Strings(out)
	return out
}

// Hash returns the collision-resistant hash of the current version, the
// last of Versions, or "" when there is none (an empty file never written).
func (m *Metadata) Hash() string {
	if len(m.Versions) == 0 {
		return ""
	}
	return m.Versions[len(m.Versions)-1].Hash
}

// AddVersion records a new current version.
func (m *Metadata) AddVersion(hash string, size int64, modTime time.Time) {
	m.Size = size
	m.Mtime = modTime
	m.Versions = append(m.Versions, VersionRecord{Hash: hash, Size: size, ModTime: modTime})
}

// TrimVersions keeps only the most recent keep versions and returns the
// removed ones (for the garbage collector to delete from the cloud).
func (m *Metadata) TrimVersions(keep int) []VersionRecord {
	if keep < 1 {
		keep = 1
	}
	if len(m.Versions) <= keep {
		return nil
	}
	removed := append([]VersionRecord(nil), m.Versions[:len(m.Versions)-keep]...)
	m.Versions = append([]VersionRecord(nil), m.Versions[len(m.Versions)-keep:]...)
	return removed
}

// FileInfo converts the metadata to the public FileInfo shape.
func (m *Metadata) FileInfo() fsapi.FileInfo {
	return fsapi.FileInfo{
		Path:    m.Path,
		Name:    m.Name(),
		Type:    m.Type,
		Size:    m.Size,
		ModTime: m.Mtime,
		Owner:   m.Owner,
		Shared:  m.IsShared(),
	}
}

// Encode serializes the metadata for storage in the coordination service:
// the version, then every field in declaration order but Path — a record's
// key is its path — and Version, which is not part of the record. It cannot
// fail; the error result is the API the scfsbench module compiles against.
func (m *Metadata) Encode() ([]byte, error) {
	return appendRecord(codec.AppendVersion(nil), m), nil
}

// Decode parses a metadata record. Its Path is empty: the record does not
// hold it (see DecodeAt).
func Decode(b []byte) (*Metadata, error) {
	d := codec.NewDecoder(b, true)
	m := decodeRecord(&d)
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("fsmeta: decoding metadata: %w", err)
	}
	return m, nil
}

// appendRecord appends m's fields but Path and Version, in declaration
// order: the body of a record and of a private name space's entry.
func appendRecord(b []byte, m *Metadata) []byte {
	b = appendTime(appendTime(codec.AppendUvarint(codec.AppendUvarint(b, uint64(m.Type)), uint64(m.Size)), m.Ctime), m.Mtime)
	b = codec.AppendList(codec.AppendString(b, m.Owner), m.ACL, func(b []byte, e fsapi.ACLEntry) []byte {
		return codec.AppendUvarint(codec.AppendString(b, e.User), uint64(e.Perm))
	})
	b = codec.AppendList(codec.AppendString(b, m.FileID), m.Versions, func(b []byte, v VersionRecord) []byte {
		return appendTime(codec.AppendUvarint(codec.AppendString(b, v.Hash), uint64(v.Size)), v.ModTime)
	})
	return codec.AppendString(codec.AppendBool(b, m.Deleted), m.LinkTarget)
}

// decodeRecord reads what appendRecord appended. Go evaluates a composite
// literal's reads in order, the order of the fields.
func decodeRecord(d *codec.Decoder) *Metadata {
	return &Metadata{Type: fsapi.FileType(d.Enum(uint64(fsapi.TypeSymlink))), Size: int64(d.Uvarint()),
		Ctime: decodeTime(d), Mtime: decodeTime(d), Owner: d.Str(),
		ACL: codec.List(d, func(d *codec.Decoder) fsapi.ACLEntry {
			return fsapi.ACLEntry{User: d.Str(), Perm: fsapi.Permission(d.Enum(uint64(fsapi.PermReadWrite)))}
		}),
		FileID: d.Str(),
		Versions: codec.List(d, func(d *codec.Decoder) VersionRecord {
			return VersionRecord{Hash: d.Str(), Size: int64(d.Uvarint()), ModTime: decodeTime(d)}
		}),
		Deleted: d.Bool(), LinkTarget: d.Str()}
}

// appendTime appends t as Unix seconds, then nanoseconds.
func appendTime(b []byte, t time.Time) []byte {
	return codec.AppendUvarint(codec.AppendUvarint(b, uint64(t.Unix())), uint64(t.Nanosecond()))
}

// decodeTime reads what appendTime appended, in UTC, so that the zero time
// reads back as time.Time{}.
func decodeTime(d *codec.Decoder) time.Time {
	sec, nsec := int64(d.Uvarint()), int64(d.Enum(1e9-1))
	return time.Unix(sec, nsec).UTC()
}

// DecodeAt parses the metadata record stored under path. A record's key is
// its path, and the record holds none, so a directory rename rewrites the
// keys of its subtree and none of their values.
func DecodeAt(path string, b []byte) (*Metadata, error) {
	m, err := Decode(b)
	if err == nil {
		m.Path = path
	}
	return m, err
}

// Clone returns a deep copy.
func (m *Metadata) Clone() *Metadata {
	c := *m
	c.ACL = append([]fsapi.ACLEntry(nil), m.ACL...)
	c.Versions = append([]VersionRecord(nil), m.Versions...)
	return &c
}

// NewFile builds metadata for a fresh empty file.
func NewFile(p, owner, fileID string, now time.Time) *Metadata {
	return &Metadata{Path: clean(p), Type: fsapi.TypeFile, Owner: owner, FileID: fileID, Ctime: now, Mtime: now}
}

// NewDir builds metadata for a directory.
func NewDir(p, owner string, now time.Time) *Metadata {
	return &Metadata{Path: clean(p), Type: fsapi.TypeDir, Owner: owner, Ctime: now, Mtime: now}
}

// clean normalizes a path to the canonical absolute form.
func clean(p string) string {
	if p == "" {
		return "/"
	}
	return path.Clean("/" + strings.TrimPrefix(p, "/"))
}

// Clean exports the path normalization used across SCFS.
func Clean(p string) string { return clean(p) }

// IsChildOf reports whether p is directly or transitively under dir.
func IsChildOf(p, dir string) bool {
	p, dir = clean(p), clean(dir)
	if dir == "/" {
		return p != "/"
	}
	return strings.HasPrefix(p, dir+"/")
}
