package depsky

import (
	"bytes"
	"context"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"scfs/internal/cloud"
	"scfs/internal/codec"
	"scfs/internal/seccrypto"
)

// TestForgedMetadataSizeBounded pins the descriptor edition of the
// DecodeBatch bug class: a descriptor comes from the clouds, so a Size its
// chunk geometry does not account for must be rejected before it sizes an
// allocation — not discovered by an OOM inside make(). A terabyte Size
// costs a forger six bytes.
func TestForgedMetadataSizeBounded(t *testing.T) {
	_, m := newManager(t, ProtocolCA)
	data := bytes.Repeat([]byte{0xAB}, 4096)
	info := writeFrom(t, m, "u", data)
	read := func(info VersionInfo) ([]byte, error) {
		return m.readVersion(bg, &chunkFetcher{m: m, unit: "u", info: info})
	}

	forged := info
	forged.Size = 1 << 40 // 1 TiB claimed, 4 KiB stored
	if _, err := read(forged); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("forged Size: err = %v, want ErrIntegrity", err)
	}
	negative := info
	negative.Size = -1
	if _, err := read(negative); err == nil {
		t.Fatal("negative Size: want error, got nil")
	}
	for _, v := range []VersionInfo{forged, negative} {
		if _, ok := decodeDescriptor(encodeDescriptor(&v), info.DataHash, m.N()); ok {
			t.Fatalf("descriptor of size %d accepted", v.Size)
		}
	}

	// The genuine descriptor still reads back fine.
	got, _, err := m.ReadMatching(bg, "u", info.DataHash)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
}

// TestChunkSizeWireCap: a descriptor's chunk geometry sizes the reassembly
// buffer. MaxChunkSize is the wire cap that keeps that allocation linear in
// the descriptor a writer must actually store: a single-chunk descriptor
// declaring a huge ChunkSize must fail validation, and the writer clamps its
// configured chunk size so it can never emit versions readers reject.
func TestChunkSizeWireCap(t *testing.T) {
	huge := VersionInfo{Size: 1 << 40, ChunkSize: 1 << 40, ChunkCount: 1,
		ChunkHashes: [][]string{nil}, Protocol: ProtocolCA}
	if huge.validChunking() {
		t.Fatal("ChunkSize beyond the wire cap accepted")
	}
	_, m := newChunkedManager(t, ProtocolCA, 2048)
	if _, err := m.readVersion(bg, &chunkFetcher{m: m, unit: "u", info: huge}); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("err = %v, want ErrIntegrity", err)
	}

	atCap := VersionInfo{Size: MaxChunkSize, ChunkSize: MaxChunkSize, ChunkCount: 1,
		ChunkHashes: [][]string{nil}, Protocol: ProtocolCA}
	if !atCap.validChunking() {
		t.Fatal("ChunkSize at the wire cap rejected")
	}

	m.opts.ChunkSize = MaxChunkSize + 1
	if got := m.chunkSize(); got != MaxChunkSize {
		t.Fatalf("writer chunk size = %d, want clamped to %d", got, MaxChunkSize)
	}
}

// badHashes are strings that must never be spliced into an object name.
func badHashes() []string {
	good := seccrypto.Hash([]byte("good"))
	return []string{
		"",
		good[:32] + "/" + good[33:],     // a path separator
		"../../other-unit/" + good[:47], // right length, climbs out
		strings.ToUpper(good),           // upper-case hex
		good[:63],                       // one short
		good + "0",                      // one long
		good[:63] + "g",                 // not hex
		"metadata" + good[:56],          // right length, not hex
	}
}

// TestForgedHashNamesNoObject: a hash is spliced into object names, and an
// anchored hash comes from a record another writer may have set. A hash that
// is not exactly 64 lowercase hex digits names nothing: every entry point
// refuses it without a cloud request, and a head or a listing naming it is
// ignored, however many clouds serve it.
func TestForgedHashNamesNoObject(t *testing.T) {
	s, m, _, inner := stagedManager(t, Options{})
	s.setOpen(true)
	for _, h := range badHashes() {
		if validHash(h) {
			t.Fatalf("hash %q accepted", h)
		}
		if _, err := m.WriteFrom(bg, "u", h, bytes.NewReader(nil)); !errors.Is(err, ErrIntegrity) {
			t.Fatalf("WriteFrom(%q) = %v, want ErrIntegrity", h, err)
		}
		if _, _, err := m.ReadMatching(bg, "u", h); !errors.Is(err, ErrIntegrity) {
			t.Fatalf("ReadMatching(%q) = %v, want ErrIntegrity", h, err)
		}
		if _, _, err := m.OpenMatching(bg, "u", h); !errors.Is(err, ErrIntegrity) {
			t.Fatalf("OpenMatching(%q) = %v, want ErrIntegrity", h, err)
		}
		if _, err := m.DeleteVersion(bg, "u", h); !errors.Is(err, ErrIntegrity) {
			t.Fatalf("DeleteVersion(%q) = %v, want ErrIntegrity", h, err)
		}
	}
	if rs := append(s.snapshot(), s.deletes()...); len(rs) != 0 {
		t.Fatalf("requests for malformed hashes: %v", describe(rs))
	}

	// Every cloud serves a head and a descriptor listing under a forged name.
	for _, c := range inner {
		forged := "../../other-unit/" + strings.Repeat("0", 47)
		if err := c.Put(bg, m.headName("u"), head{seq: 7, hash: forged}.encode()); err != nil {
			t.Fatal(err)
		}
		if err := c.Put(bg, m.unitPrefix("u")+strings.ToUpper(seccrypto.Hash(nil))+"/desc", []byte("{}")); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := m.Read(bg, "u"); !errors.Is(err, ErrUnitNotFound) {
		t.Fatalf("Read over forged heads = %v, want ErrUnitNotFound", err)
	}
	if hashes, err := m.ListVersions(bg, "u"); err != nil || len(hashes) != 0 {
		t.Fatalf("ListVersions over a forged name = %v, %v; want none", hashes, err)
	}
}

// forgedList is a Byzantine cloud whose listings add names of its choosing.
type forgedList struct {
	cloud.ObjectStore
	extra []cloud.ObjectInfo
}

func (f forgedList) List(ctx context.Context, prefix string) ([]cloud.ObjectInfo, error) {
	objs, err := f.ObjectStore.List(ctx, prefix)
	return append(objs, f.extra...), err
}

// TestForgedIDCannotAimDelete: a delete removes the names a certified
// descriptor gives and the names each cloud lists under the version's
// prefix. One Byzantine cloud listing the live version's objects — beside a
// doomed version, or beside one nobody wrote — must not get them deleted:
// only names inside the deleted version's prefix are ever deleted.
func TestForgedIDCannotAimDelete(t *testing.T) {
	for name, target := range map[string]func(doomed VersionInfo) string{
		"doomed version":   func(doomed VersionInfo) string { return doomed.DataHash },
		"invented version": func(VersionInfo) string { return seccrypto.Hash([]byte("never written")) },
	} {
		t.Run(name, func(t *testing.T) {
			_, clients := testClouds(t, 4)
			m, err := New(Options{Clouds: clients, F: 1})
			if err != nil {
				t.Fatal(err)
			}
			doomed := writeFrom(t, m, "u", []byte("doomed"))
			live := writeFrom(t, m, "u", []byte("live"))
			var extra []cloud.ObjectInfo
			for _, name := range m.objectNames("u", live) {
				extra = append(extra, cloud.ObjectInfo{Name: name})
			}
			byzantine := append([]cloud.ObjectStore{forgedList{clients[0], extra}}, clients[1:]...)
			evil, err := New(Options{Clouds: byzantine, F: 1})
			if err != nil {
				t.Fatal(err)
			}
			holders := 0 // a write's straggler is cancelled: n-f clouds or all n
			for _, c := range clients {
				if _, err := c.Get(bg, m.descName("u", live.DataHash)); err == nil {
					holders++
				}
			}
			_, _ = evil.DeleteVersion(bg, "u", target(doomed))
			for _, c := range clients {
				if _, err := c.Get(bg, m.descName("u", live.DataHash)); err == nil {
					holders--
				}
			}
			if holders != 0 {
				t.Fatalf("%d clouds lost the live version's descriptor object", holders)
			}
			if got, _, err := m.ReadMatching(bg, "u", live.DataHash); err != nil || string(got) != "live" {
				t.Fatalf("live version after the delete: %q, %v", got, err)
			}
		})
	}
}

// TestDeleteVersionFreesOnlyCertifiedDescriptors: what a sweep prices as
// freed is a version f+1 clouds vouch for. Cloud 0 alone serves a descriptor
// — one it invented, or one it kept after a delete it lags — and deleting
// that version removes cloud 0's objects but returns no descriptor; a
// version four clouds hold is freed and returned with its descriptor.
func TestDeleteVersionFreesOnlyCertifiedDescriptors(t *testing.T) {
	_, clients := testClouds(t, 4)
	m, err := New(Options{Clouds: clients, F: 1})
	if err != nil {
		t.Fatal(err)
	}
	doomed := writeFrom(t, m, "u", []byte("doomed"))
	invented := doomed
	invented.DataHash = seccrypto.Hash([]byte("invented"))
	if err := clients[0].Put(bg, m.descName("u", invented.DataHash), descObject(encodeDescriptor(&invented), nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.DeleteVersion(bg, "u", invented.DataHash); !errors.Is(err, ErrVersionNotFound) {
		t.Fatalf("delete of a one-cloud descriptor = %v, want ErrVersionNotFound", err)
	}
	if _, err := clients[0].Get(bg, m.descName("u", invented.DataHash)); !errors.Is(err, cloud.ErrNotFound) {
		t.Fatalf("cloud 0 keeps the invented descriptor: %v", err)
	}
	freed, err := m.DeleteVersion(bg, "u", doomed.DataHash)
	if err != nil || freed.DataHash != doomed.DataHash || freed.ChunkCount != 1 {
		t.Fatalf("delete of a stored version = %+v, %v", freed, err)
	}
	for i, c := range clients {
		if objs, _ := c.List(bg, m.versionPrefix("u", doomed.DataHash)); len(objs) != 0 {
			t.Errorf("cloud %d keeps %d objects of the doomed version", i, len(objs))
		}
	}
}

// TestV1ShapedInputFailsAsData: input shaped by another layout is plain bad
// input. A descriptor without a chunk size, as a whole-object version had, is
// rejected — however many clouds agree on it — before any object name is
// built from it; a frame of another codec version where a chunk should be is
// a bad frame, even under a descriptor forged to vouch for it, and with too
// few good ones the read fails, it does not panic.
func TestV1ShapedInputFailsAsData(t *testing.T) {
	s, m, _, inner := stagedManager(t, Options{ChunkSize: 2})
	s.setOpen(true)
	live := writeFrom(t, m, "u", []byte("live"))

	old := seccrypto.Hash([]byte("old"))
	sizeless := VersionInfo{DataHash: old, Size: 3, ChunkCount: 1, ChunkHashes: [][]string{live.ChunkHashes[0]}, Tag: live.Tag}
	for _, c := range inner {
		if err := c.Put(bg, m.descName("u", old), descObject(encodeDescriptor(&sizeless), nil)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := m.ReadMatching(bg, "u", old); err == nil {
		t.Fatal("ReadMatching the sizeless descriptor's hash succeeded")
	}
	if _, _, err := m.OpenMatching(bg, "u", old); err == nil {
		t.Fatal("OpenMatching the sizeless descriptor's hash succeeded")
	}
	if _, err := m.DeleteVersion(bg, "u", old); !errors.Is(err, ErrVersionNotFound) {
		t.Fatalf("DeleteVersion of the sizeless descriptor = %v, want ErrVersionNotFound", err)
	}
	for _, r := range s.snapshot() {
		if strings.Contains(r.name, old) && !strings.HasSuffix(r.name, "/desc") {
			t.Fatalf("%s %s: an object name built from the sizeless descriptor", r.op, r.name)
		}
	}

	// Three clouds answer the GET of the live version's chunk 1 with a frame
	// of another codec version: one good frame is short of the f+1 a decode
	// needs.
	other := otherVersionFrame()
	for _, c := range inner[1:] {
		if err := c.Put(bg, m.chunkName("u", &live, 1), other); err != nil {
			t.Fatal(err)
		}
	}
	// The frames' hashes are not the descriptor's either; forge one that
	// vouches for them, so only the frame decoder stands between them and
	// the decode.
	forged := live
	forged.ChunkHashes = [][]string{live.ChunkHashes[0], {live.ChunkHashes[1][0], seccrypto.Hash(other), seccrypto.Hash(other), seccrypto.Hash(other)}}
	f := &chunkFetcher{m: m, unit: "u", info: forged}
	if err := f.fetch(bg, 1, make([]byte, 2)); !errors.Is(err, ErrQuorumRead) {
		t.Fatalf("read over frames of another version: err = %v, want ErrQuorumRead", err)
	}
}

// FuzzDescriptor feeds arbitrary bytes through the decoders of what a cloud
// serves before any frame: a version's descriptor object, the descriptor in
// it, and a register head. Whatever they accept must be safe to build object
// names from and to slice buffers by, and must re-encode to the very bytes
// they were given. Beside well-formed ones, the seeds break one rule each.
func FuzzDescriptor(f *testing.F) {
	hash := seccrypto.Hash([]byte("abc"))
	row := []string{hash, hash, hash, hash}
	honest := VersionInfo{DataHash: hash, Size: 3, ChunkSize: 2, ChunkCount: 2, ChunkHashes: [][]string{row, row}, Tag: "ABCDEFGHIJKLMNOPQRSTUVWXYZ"}
	with := func(edit func(v *VersionInfo)) []byte {
		v := honest
		edit(&v)
		return descObject(encodeDescriptor(&v), nil)
	}
	honestObject := with(func(*VersionInfo) {})
	// lay wraps a descriptor laid out by hand: the data hash, then fields;
	// tail is the honest one's last two, the frame hashes and the tag.
	lay := func(fields ...[]byte) []byte {
		return descObject(slices.Concat(codec.AppendString(nil, hash), slices.Concat(fields...)), nil)
	}
	tail := codec.AppendString(codec.AppendList(nil, honest.ChunkHashes, codec.AppendStrings), honest.Tag)
	// pad encodes v with one zero byte too many.
	pad := func(v uint64) []byte {
		b := codec.AppendUvarint(nil, v)
		b[len(b)-1] |= 0x80
		return append(b, 0)
	}
	oneChunk := encodeDescriptor(&VersionInfo{DataHash: hash, Size: 3, ChunkSize: 3, ChunkCount: 1, ChunkHashes: [][]string{row}, Tag: honest.Tag, Protocol: ProtocolA})
	headOf := func(seq uint64, hash string) []byte { return head{seq, hash}.encode() }
	good := headOf(1, hash)
	for _, seed := range []struct{ object, head []byte }{
		{honestObject, good},
		{descObject(oneChunk, frameOf(&block{Payload: []byte("abc"), ChunkPlainLen: 3})), headOf(math.MaxUint64, hash)},
		// One-chunk frames whose shard index is not every cloud's, or
		// whose chunk index is not 0.
		{descObject(oneChunk, frameOf(&block{Payload: []byte("abc"), ShardIdx: 3, ChunkPlainLen: 3})), nil},
		{descObject(oneChunk, frameOf(&block{Payload: []byte("abc"), ChunkIdx: 1, ChunkPlainLen: 3})), nil},
		// The chunk geometry, and a head's hash.
		{with(func(v *VersionInfo) {
			v.ChunkSize, v.Size, v.ChunkCount, v.ChunkHashes = 1<<40, 1<<40, 1, v.ChunkHashes[:1]
		}), headOf(2, strings.ToUpper(hash))},
		{with(func(v *VersionInfo) { v.Size = 5 }), headOf(3, "../../v/head/"+hash[:51])},
		{with(func(v *VersionInfo) { v.Size, v.ChunkCount, v.ChunkHashes = -1, 0, nil }), headOf(4, hash[:63]+"g")},
		// The row width and the frame hashes; a head of another version,
		// or followed by a byte.
		{with(func(v *VersionInfo) { v.ChunkHashes = [][]string{row, row[:3]} }), append([]byte{codec.Version + 1}, good[1:]...)},
		{with(func(v *VersionInfo) { v.ChunkHashes = [][]string{row, {"a", "b", "c", "d"}} }), append(bytes.Clone(good), 0)},
		// An unknown protocol; a head's padded seq, and its over-long hash.
		{with(func(v *VersionInfo) { v.Protocol = 7 }), slices.Concat(codec.AppendVersion(nil), pad(1), good[2:])},
		{with(func(v *VersionInfo) { v.Tag = "../../other/ABCDEFGHIJKLMN" }), append(codec.AppendUvarint(codec.AppendVersion(nil), 5), 0x80, 0x01, 'x')},
		{with(func(v *VersionInfo) { v.DataHash = "../../other/" + hash[12:] }), nil},
		// The descriptor's encoding: a row count forged to 1<<60, a byte
		// after it, a padded size.
		{lay([]byte{3, byte(ProtocolCA), 2, 2}, codec.AppendUvarint(nil, 1<<60), []byte{0, 0}), nil},
		{lay([]byte{3, byte(ProtocolCA), 2, 2}, tail, []byte{0}), nil},
		{lay(pad(3), []byte{byte(ProtocolCA), 2, 2}, tail), nil},
		// The object's: another version, a trailing byte, an over-long
		// frame, a padded descriptor length.
		{append([]byte{codec.Version + 1}, honestObject[1:]...), nil},
		{append(bytes.Clone(honestObject), 0), nil},
		{append(honestObject[:len(honestObject)-1:len(honestObject)-1], 0x80, 0x01, 'x'), nil},
		{slices.Concat(codec.AppendVersion(nil), pad(uint64(len(encodeDescriptor(&honest)))), encodeDescriptor(&honest), []byte{0}), nil},
	} {
		f.Add(seed.object, seed.head)
	}

	_, clients := testClouds(f, 4)
	m, err := New(Options{Clouds: clients, F: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, object, headBytes []byte) {
		desc, frame, ok := splitDescObject(object)
		if again := descObject(desc, frame); ok && !bytes.Equal(again, object) {
			t.Fatalf("descriptor object %x re-encodes as %x", object, again)
		}
		// What a read takes from cloud i's object is cloud i's frame of chunk 0.
		for i := range m.N() {
			if dc, err := splitCopy(i, object); err == nil && dc.frame != nil && (dc.frame.b.ShardIdx != i || dc.frame.b.ChunkIdx != 0) {
				t.Fatalf("cloud %d's object yields the frame of shard %d, chunk %d", i, dc.frame.b.ShardIdx, dc.frame.b.ChunkIdx)
			}
		}
		if v, ok := decodeDescriptor(desc, hash, m.N()); ok {
			if !v.validChunking() || v.ChunkSize > MaxChunkSize || v.DataHash != hash || (v.Protocol != ProtocolCA && v.Protocol != ProtocolA) {
				t.Fatalf("accepted protocol %d, size %d, chunk %d x %d, %d hash rows", v.Protocol, v.Size, v.ChunkSize, v.ChunkCount, len(v.ChunkHashes))
			}
			for _, row := range v.ChunkHashes {
				if len(row) != m.N() {
					t.Fatalf("accepted a row of %d frame hashes", len(row))
				}
				for _, h := range row {
					if !validHash(h) {
						t.Fatalf("accepted the frame hash %q", h)
					}
				}
			}
			for _, name := range m.objectNames("u", v) {
				rest, ok := strings.CutPrefix(name, "dsky/u/"+hash+"/")
				if !ok || strings.Count(rest, "/") > 1 || strings.Contains(rest, ".") {
					t.Fatalf("object name %q leaves dsky/u/<hash>/", name)
				}
			}
			if again := encodeDescriptor(&v); !bytes.Equal(again, desc) {
				t.Fatalf("descriptor %x re-encodes as %x", desc, again)
			}
		}
		if h, ok := decodeHead(headBytes); ok {
			if !validHash(h.hash) {
				t.Fatalf("head accepted hash %q", h.hash)
			}
			if again := h.encode(); !bytes.Equal(again, headBytes) {
				t.Fatalf("head %x re-encodes as %x", headBytes, again)
			}
		}
	})
}
