package fsmeta

import (
	"bytes"
	"slices"
	"testing"
)

// listed returns the paths of every entry of p, in ListPrefix order.
func listed(p *PNS) []string {
	var out []string
	for _, m := range p.ListPrefix("/") {
		out = append(out, m.Path)
	}
	return out
}

// FuzzDecodePNS feeds arbitrary bytes to the private-name-space decoder, the
// bytes a mount reads back from the clouds: it must not panic, what it
// accepts must re-encode, and the re-encoded name space must decode to one
// listing the same paths. The seeds are a well-formed name space, a null
// entry, an empty path and three entries naming one path.
func FuzzDecodePNS(f *testing.F) {
	for _, s := range []string{
		`{"user":"u","entries":[{"path":"/a","type":0,"size":3,"owner":"u","file_id":"f","hash":"h","versions":[{"hash":"h","size":3}]},{"path":"/d","type":1}]}`,
		`{"user":"u","entries":[null]}`,
		`{"user":"u","entries":[{"path":""}]}`,
		`{"user":"u","entries":[{"path":"/a","size":1},{"path":"a","size":2},{"path":"/a/","size":3}]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := DecodePNS(b)
		if err != nil {
			return
		}
		enc, err := p.Encode()
		if err != nil {
			t.Fatalf("decoded name space does not re-encode: %v", err)
		}
		again, err := DecodePNS(enc)
		if err != nil {
			t.Fatalf("re-encoded name space does not decode: %v\n%s", err, enc)
		}
		if got, want := listed(again), listed(p); !slices.Equal(got, want) {
			t.Fatalf("round trip lists %q, want %q", got, want)
		}
	})
}

// FuzzDecodeMetadata feeds arbitrary bytes to the metadata-record decoder:
// it must not panic, and what it accepts must re-encode to bytes that decode
// and encode again to themselves. The seeds are a well-formed record, null,
// an empty path and a path given twice.
func FuzzDecodeMetadata(f *testing.F) {
	f.Add([]byte(`{"path":"/a","type":0,"size":3,"ctime":"2014-06-19T12:00:00Z","owner":"u","acl":[{"user":"v","perm":1}],"hash":"h"}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"path":""}`))
	f.Add([]byte(`{"path":"/a","path":"/b"}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Decode(b)
		if err != nil {
			return
		}
		enc, err := m.Encode()
		if err != nil {
			t.Fatalf("decoded record does not re-encode: %v", err)
		}
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v\n%s", err, enc)
		}
		if enc2, err := again.Encode(); err != nil || !bytes.Equal(enc2, enc) {
			t.Fatalf("record is not stable across a round trip: %s, then %s (%v)", enc, enc2, err)
		}
	})
}
