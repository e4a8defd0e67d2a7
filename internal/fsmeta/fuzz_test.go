package fsmeta

import (
	"bytes"
	"slices"
	"testing"

	"scfs/internal/codec"
	"scfs/internal/fsapi"
)

// listed returns the paths of every entry of p, in ListPrefix order.
func listed(p *PNS) []string {
	var out []string
	for _, m := range p.ListPrefix("/") {
		out = append(out, m.Path)
	}
	return out
}

// record is a record laid out byte by byte, so that a seed can break one
// field of it:
//
//	offset  field       value
//	0       the version
//	1       Type        TypeDir
//	2       Size        3
//	3, 4    Ctime       Unix time 5 s + 6 ns
//	5, 6    Mtime       7 s + 8 ns
//	7-8     Owner       "u"
//	9-12    ACL         one entry: "v", PermRead
//	13-14   FileID      "f"
//	15-16   Hash        "h"
//	17-22   Versions    one: "h", 3 bytes, 9 s + 10 ns
//	23      Deleted     false
//	24-25   LinkTarget  "l"
var record = []byte{codec.Version, 1, 3, 5, 6, 7, 8, 1, 'u', 1, 1, 'v', 1, 1, 'f', 1, 'h', 1, 1, 'h', 3, 9, 10, 0, 1, 'l'}

// splice returns a copy of b with b[i] replaced by with.
func splice(b []byte, i int, with ...byte) []byte {
	return slices.Concat(b[:i], with, b[i+1:])
}

// uvarint is v's encoding.
func uvarint(v uint64) []byte { return codec.AppendUvarint(nil, v) }

// TestRecordLayout pins the record the fuzz seeds break: it is the one
// encoding of the record it describes.
func TestRecordLayout(t *testing.T) {
	m, err := Decode(record)
	if err != nil {
		t.Fatal(err)
	}
	want := &Metadata{Type: fsapi.TypeDir, Size: 3, Ctime: unixUTC(5, 6), Mtime: unixUTC(7, 8), Owner: "u",
		ACL: []fsapi.ACLEntry{{User: "v", Perm: fsapi.PermRead}}, FileID: "f", Hash: "h",
		Versions: []VersionRecord{{Hash: "h", Size: 3, ModTime: unixUTC(9, 10)}}, LinkTarget: "l"}
	if enc, _ := want.Encode(); !bytes.Equal(enc, record) {
		t.Fatalf("record encodes as %v, want %v", enc, record)
	}
	if !sameRecord(m, want) {
		t.Fatalf("decoded %+v, want %+v", m, want)
	}
}

// FuzzDecodeMetadata feeds arbitrary bytes to the metadata-record decoder,
// the bytes a mount reads back from the coordination service: it must not
// panic, and whatever it accepts re-encodes to the very bytes it was given.
// Beside well-formed records, the seeds break one rule each.
func FuzzDecodeMetadata(f *testing.F) {
	zero, _ := (&Metadata{}).Encode()
	for _, b := range [][]byte{
		record,
		zero,
		splice(record, 0, codec.Version+1),   // another version
		splice(record, 1, 3),                 // no such type
		splice(record, 12, 3),                // no such permission
		splice(record, 4, uvarint(1e9)...),   // nanoseconds = 1e9
		splice(record, 23, 2),                // a bool of 2
		splice(record, 2, 0x83, 0x00),        // a padded varint
		splice(record, 9, uvarint(1<<60)...), // an ACL count forged to 1<<60
		splice(record, 24, 0x80, 0x01),       // an over-long link target
		append(bytes.Clone(record), 0),       // a trailing byte
		splice(record, 3, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02), // an overflowing varint
	} {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Decode(b)
		if err != nil {
			return
		}
		if m.Type > fsapi.TypeSymlink || m.Type < fsapi.TypeFile {
			t.Fatalf("accepted type %d", m.Type)
		}
		for _, e := range m.ACL {
			if e.Perm > fsapi.PermReadWrite || e.Perm < fsapi.PermNone {
				t.Fatalf("accepted permission %d", e.Perm)
			}
		}
		if enc, _ := m.Encode(); !bytes.Equal(enc, b) {
			t.Fatalf("%x decoded to a record that re-encodes as %x", b, enc)
		}
	})
}

// FuzzDecodePNS feeds arbitrary bytes to the private-name-space decoder, the
// bytes a mount reads back from the clouds: it must not panic, and whatever
// it accepts re-encodes to the very bytes it was given, so no two entries
// name one path. Beside well-formed name spaces, the seeds break one rule
// each.
func FuzzDecodePNS(f *testing.F) {
	body := record[1:] // a record without its version: an entry's tail
	pns := func(count uint64, paths ...string) []byte {
		b := codec.AppendUvarint(codec.AppendVersion(nil), count)
		for _, p := range paths {
			b = append(codec.AppendString(b, p), body...)
		}
		return b
	}
	good := pns(2, "/a", "/d")
	for _, b := range [][]byte{
		good,
		pns(0),
		pns(2, "/a", "/a"),               // duplicate paths
		pns(2, "/d", "/a"),               // unsorted paths
		pns(3, "/a", "a", "/a/"),         // three entries naming one path
		pns(1, ""),                       // an empty path
		pns(1, "/a/../b"),                // an unclean path
		pns(1<<60, "/a"),                 // a count forged to 1<<60
		splice(good, 0, codec.Version+1), // another version
		splice(good, 1, 0x82, 0x00),      // a padded count
		append(bytes.Clone(good), 0),     // a trailing byte
		append(good[:len(good)-2:len(good)-2], 0x80, 0x01, 'l'), // an over-long link target
	} {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := DecodePNS("u", b)
		if err != nil {
			return
		}
		for _, path := range listed(p) {
			if path != Clean(path) {
				t.Fatalf("accepted the path %q", path)
			}
		}
		if enc := p.Encode(); !bytes.Equal(enc, b) {
			t.Fatalf("%x decoded to a name space that re-encodes as %x", b, enc)
		}
	})
}
