package depsky

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"scfs/internal/cloud"
	"scfs/internal/seccrypto"
)

// TestForgedMetadataSizeBounded pins the metadata edition of the
// DecodeBatch bug class (and the untrustedalloc invariant): VersionInfo is
// JSON from possibly-corrupt clouds, so a forged Size must be rejected
// against the bytes actually fetched — before it sizes an allocation — not
// discovered by an OOM inside make(). A terabyte Size costs the attacker
// ~17 bytes of JSON; the genuine shards on the honest clouds bound what a
// join can ever produce.
func TestForgedMetadataSizeBounded(t *testing.T) {
	_, m := newManager(t, ProtocolCA)
	data := bytes.Repeat([]byte{0xAB}, 4096)
	info, err := m.Write(bg, "u", data)
	if err != nil {
		t.Fatal(err)
	}

	forged := info
	forged.Size = 1 << 40 // 1 TiB claimed, 4 KiB stored
	if _, err := m.readVersion(bg, "u", forged); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("forged Size: err = %v, want ErrIntegrity", err)
	}

	negative := info
	negative.Size = -1
	if _, err := m.readVersion(bg, "u", negative); err == nil {
		t.Fatal("negative Size: want error, got nil")
	}

	// The genuine metadata still reads back fine.
	got, err := m.readVersion(bg, "u", info)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
}

// TestChunkSizeWireCap: the v2 chunk geometry is attacker-chosen until
// certification, and readVersion preallocates the reassembly buffer
// from it. MaxChunkSize is the wire cap that keeps that allocation linear
// in the metadata the attacker must actually store: a single-chunk variant
// declaring a huge ChunkSize must fail validation, and the writer clamps
// its configured chunk size so it can never emit versions readers reject.
func TestChunkSizeWireCap(t *testing.T) {
	huge := VersionInfo{Number: 1, Size: 1 << 40, ChunkSize: 1 << 40, ChunkCount: 1,
		ChunkHashes: [][]string{nil}, Protocol: ProtocolCA}
	if huge.validChunking() {
		t.Fatal("ChunkSize beyond the wire cap accepted")
	}
	_, m := newChunkedManager(t, ProtocolCA, 2048)
	if _, err := m.readVersion(bg, "u", huge); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("err = %v, want ErrIntegrity", err)
	}

	atCap := VersionInfo{Number: 1, Size: MaxChunkSize, ChunkSize: MaxChunkSize, ChunkCount: 1,
		ChunkHashes: [][]string{nil}, Protocol: ProtocolCA}
	if !atCap.validChunking() {
		t.Fatal("ChunkSize at the wire cap rejected")
	}

	m.opts.ChunkSize = MaxChunkSize + 1
	if got := m.chunkSize(); got != MaxChunkSize {
		t.Fatalf("writer chunk size = %d, want clamped to %d", got, MaxChunkSize)
	}
}

// TestForgedObjectIDDiscardedAtMerge: an entry's ID is spliced into object
// names, so an entry whose ID is not exactly what newObjectID produces never
// leaves the merge — however many clouds agree on it.
func TestForgedObjectIDDiscardedAtMerge(t *testing.T) {
	_, m := newManager(t, ProtocolCA)
	good := newObjectID()
	for _, id := range []string{
		"",
		good[:16] + "/" + good[17:],     // a path separator
		"../../other-unit/" + good[:15], // right length, climbs out
		strings.ToUpper(good),           // upper-case hex
		good[:31],                       // one short
		good + "0",                      // one long
		good[:31] + "g",                 // not hex
		"metadata" + good[:24],          // right length, not hex
	} {
		md := &unitMetadata{Unit: "u", Versions: []VersionInfo{{Number: 1, ID: id, DataHash: "h", ChunkSize: 1}}}
		merged := m.mergeMetadata("u", []*unitMetadata{md, md, md, md})
		if len(merged.Versions) != 0 || len(merged.variants) != 0 {
			t.Fatalf("ID %q survived the merge: %+v", id, merged.Versions)
		}
	}
	md := &unitMetadata{Unit: "u", Versions: []VersionInfo{{Number: 1, ID: good, DataHash: "h", ChunkSize: 1}}}
	if merged := m.mergeMetadata("u", []*unitMetadata{md, md}); len(merged.Versions) != 1 || !merged.certified[1] {
		t.Fatalf("well-formed ID dropped or uncertified: %+v", merged)
	}
}

// honestCopy returns the unit's metadata object as some cloud stores it (a
// write's straggler is cancelled, so any one cloud may hold none).
func honestCopy(t *testing.T, m *Manager, clients []cloud.ObjectStore, unit string) []byte {
	t.Helper()
	for _, c := range clients {
		if raw, err := c.Get(bg, m.metaName(unit)); err == nil {
			return raw
		}
	}
	t.Fatal("no cloud holds the unit's metadata")
	return nil
}

// forgeCopy makes clients[0] Byzantine: its copy of unit's metadata becomes
// the honest copy edited by forge.
func forgeCopy(t *testing.T, m *Manager, clients []cloud.ObjectStore, unit string, forge func(*unitMetadata)) {
	t.Helper()
	md := decodeUnitMetadata(honestCopy(t, m, clients, unit), unit)
	if md == nil {
		t.Fatal("honest metadata copy does not decode")
	}
	forge(md)
	forged, err := json.Marshal(md)
	if err != nil {
		t.Fatal(err)
	}
	if err := clients[0].Put(bg, m.metaName(unit), forged); err != nil {
		t.Fatal(err)
	}
}

// TestForgedIDCannotAimDelete: the ID in an entry decides which objects a
// delete removes, so one Byzantine cloud pairing a doomed number with a live
// version's ID must not get the live version's blocks deleted. Objects go
// only on the authority of an f+1-certified entry; an uncertified one is
// dropped from the metadata and nothing else.
func TestForgedIDCannotAimDelete(t *testing.T) {
	for name, forge := range map[string]func(md *unitMetadata, doomed, live VersionInfo){
		// The doomed version's own number and hash, aimed at the live blocks.
		"doomed number": func(md *unitMetadata, doomed, live VersionInfo) {
			md.Versions[0].ID = live.ID
		},
		// A number no honest cloud lists: the forged entry is the only
		// candidate, so it is the one DeleteVersions finds.
		"invented number": func(md *unitMetadata, doomed, live VersionInfo) {
			aimed := live
			aimed.Number, aimed.DataHash = 7, doomed.DataHash
			md.Versions = append(md.Versions, aimed)
		},
	} {
		t.Run(name, func(t *testing.T) {
			_, clients := testClouds(t, 4)
			m, err := New(Options{Clouds: clients, F: 1})
			if err != nil {
				t.Fatal(err)
			}
			doomed, err := m.Write(bg, "u", []byte("doomed"))
			if err != nil {
				t.Fatal(err)
			}
			live, err := m.Write(bg, "u", []byte("live"))
			if err != nil {
				t.Fatal(err)
			}
			forgeCopy(t, m, clients, "u", func(md *unitMetadata) { forge(md, doomed, live) })
			holders := 0 // a write's straggler is cancelled: n-f clouds or all n
			for _, c := range clients {
				if _, err := c.Get(bg, m.chunkName("u", live.ID, 0)); err == nil {
					holders++
				}
			}

			if _, err := m.DeleteVersions(bg, "u", []uint64{doomed.Number, 7}); err != nil {
				t.Fatal(err)
			}
			for _, c := range clients {
				if _, err := c.Get(bg, m.chunkName("u", live.ID, 0)); err == nil {
					holders--
				}
			}
			if holders != 0 {
				t.Fatalf("%d clouds lost the live version's block", holders)
			}
			got, err := m.readVersion(bg, "u", live)
			if err != nil || string(got) != "live" {
				t.Fatalf("live version after the delete: %q, %v", got, err)
			}
		})
	}
}

// stalledGets is a cloud whose Gets never answer: a quorum read gets its n-f
// answers from the other clouds, every time.
type stalledGets struct{ cloud.ObjectStore }

func (s stalledGets) Get(ctx context.Context, _ string) ([]byte, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestDeleteMatchingFreesOnlyCertifiedEntries: what a sweep reports as freed
// is what it deleted. Cloud 0 invents an entry — a number no honest cloud
// lists, the doomed version's hash, the live version's ID — and with cloud 3
// silent the sweep's metadata read is sure to include that copy. The forged
// entry is dropped from the metadata like the honest doomed one, but only
// the honest entry, which f+1 clouds vouch for, has its objects deleted and
// comes back as freed.
func TestDeleteMatchingFreesOnlyCertifiedEntries(t *testing.T) {
	_, clients := testClouds(t, 4)
	stalled := append([]cloud.ObjectStore(nil), clients...)
	stalled[3] = stalledGets{clients[3]}
	m, err := New(Options{Clouds: stalled, F: 1})
	if err != nil {
		t.Fatal(err)
	}
	doomed, err := m.Write(bg, "u", []byte("doomed"))
	if err != nil {
		t.Fatal(err)
	}
	live, err := m.Write(bg, "u", []byte("live"))
	if err != nil {
		t.Fatal(err)
	}
	forgeCopy(t, m, clients[:3], "u", func(md *unitMetadata) {
		aimed := live
		aimed.Number, aimed.DataHash = 7, doomed.DataHash
		md.Versions = append(md.Versions, aimed)
	})

	n, freed, err := m.DeleteMatching(bg, "u", []string{doomed.DataHash})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || len(freed) != 1 || freed[0].Number != doomed.Number || freed[0].ID != doomed.ID {
		t.Fatalf("dropped %d entries and freed %+v; want 2 dropped and only version %d freed", n, freed, doomed.Number)
	}
	for i, c := range clients {
		if _, err := c.Get(bg, m.chunkName("u", doomed.ID, 0)); err == nil {
			t.Errorf("cloud %d keeps the doomed version's block", i)
		}
	}
	if got, err := m.readVersion(bg, "u", live); err != nil || string(got) != "live" {
		t.Fatalf("live version after the sweep: %q, %v", got, err)
	}
}

// v1Entry is what a metadata entry of this package's whole-object layout
// looks like to today's decoder — per-cloud block hashes it no longer knows,
// no chunk size — whether a cloud kept it from then or invents it now.
func v1Entry(number uint64, id, hash string, size int) string {
	return fmt.Sprintf(`{"number":%d,"id":%q,"data_hash":%q,"size":%d,"block_hashes":["a","b","c","d"],"protocol":0}`, number, id, hash, size)
}

// TestV1ShapedInputFailsAsData: nothing writes the whole-object layout any
// more and nothing reads it, so its two shapes are plain bad input. A
// metadata entry without a chunk size is dropped at the merge — however many
// clouds agree on it — before any object name is built from it; a version-1
// frame where a chunk should be is a bad frame, and with too few good ones
// the read fails, it does not panic.
func TestV1ShapedInputFailsAsData(t *testing.T) {
	s, m, _, inner := stagedManager(t, Options{})
	s.setOpen(true)
	live, err := m.Write(bg, "u", []byte("live"))
	if err != nil {
		t.Fatal(err)
	}

	// Every cloud lists, beside the live version, a newer whole-object one.
	old := newObjectID()
	liveEntry, err := json.Marshal(live)
	if err != nil {
		t.Fatal(err)
	}
	md := `{"unit":"u","versions":[` + string(liveEntry) + `,` + v1Entry(2, old, seccrypto.Hash([]byte("old")), 3) + `]}`
	for _, c := range inner {
		if err := c.Put(bg, m.metaName("u"), []byte(md)); err != nil {
			t.Fatal(err)
		}
	}
	if got, info, err := m.Read(bg, "u"); err != nil || string(got) != "live" || info.Number != 1 {
		t.Fatalf("Read = %q, version %d, %v; want the live version, the v1 entry dropped", got, info.Number, err)
	}
	if _, _, err := m.ReadMatching(bg, "u", seccrypto.Hash([]byte("old"))); !errors.Is(err, ErrVersionNotFound) {
		t.Fatalf("ReadMatching the v1 entry's hash: err = %v, want ErrVersionNotFound", err)
	}
	if _, _, err := m.OpenMatching(bg, "u", seccrypto.Hash([]byte("old"))); !errors.Is(err, ErrVersionNotFound) {
		t.Fatalf("OpenMatching the v1 entry's hash: err = %v, want ErrVersionNotFound", err)
	}
	if n, err := m.DeleteVersions(bg, "u", []uint64{2}); err != nil || n != 0 {
		t.Fatalf("DeleteVersions of the v1 entry = %d, %v; want nothing listed to drop", n, err)
	}
	for _, r := range s.snapshot() {
		if strings.Contains(r.name, old) {
			t.Fatalf("%s %s: an object name built from the v1 entry", r.op, r.name)
		}
	}
	if d := s.deletes(); len(d) != 0 {
		t.Fatalf("deleted %v on the authority of a v1 entry", describe(d))
	}

	// Three clouds answer the live version's chunk GET with a version-1
	// frame: one good frame is short of the f+1 a decode needs.
	for _, c := range inner[1:] {
		if err := c.Put(bg, m.chunkName("u", live.ID, 0), v1Frame()); err != nil {
			t.Fatal(err)
		}
	}
	// The frames' hashes are not the metadata's either; forge a copy of the
	// entry that vouches for them, so only the frame decoder stands between
	// them and the decode.
	forged := live
	forged.ChunkHashes = [][]string{{live.ChunkHashes[0][0], seccrypto.Hash(v1Frame()), seccrypto.Hash(v1Frame()), seccrypto.Hash(v1Frame())}}
	if _, err := m.readVersion(bg, "u", forged); !errors.Is(err, ErrQuorumRead) {
		t.Fatalf("read over version-1 frames: err = %v, want ErrQuorumRead", err)
	}
}

// FuzzUnitMetadata feeds arbitrary bytes through the unit-metadata decoder
// and the merge, as three clouds' copies with two of them agreeing: whatever
// comes out must be safe to build object names from and to slice buffers by.
func FuzzUnitMetadata(f *testing.F) {
	id := strings.Repeat("0123456789abcdef", 2)
	honest := `{"unit":"u","versions":[{"number":1,"id":"` + id + `","data_hash":"h","size":3,"protocol":0,"chunk_size":2,"chunk_count":2,"chunk_hashes":[["a","b","c","d"],["e","f","g","h"]]}]}`
	f.Add([]byte(honest), []byte(honest))
	f.Add([]byte(honest), []byte(`{"unit":"u","versions":[{"number":1,"id":"../../v/metadata/0123456789abcdef","data_hash":"h"}]}`))
	f.Add([]byte(honest), []byte(`{"unit":"u","versions":[{"number":2,"id":"`+strings.ToUpper(id)+`","size":-1,"chunk_size":1,"chunk_count":1099511627776}]}`))
	f.Add([]byte(`{"unit":"u","versions":[{"number":18446744073709551615,"id":"`+id+`","size":5,"chunk_size":2,"chunk_count":3,"chunk_hashes":[[],[],[]]}]}`), []byte(`{"unit":"other"}`))
	f.Add([]byte(`{"unit":"u","versions":null}`), []byte(`[`))
	// The whole-object layout's entry, with and without an explicit zero.
	f.Add([]byte(`{"unit":"u","versions":[`+v1Entry(1, id, "h", 3)+`]}`), []byte(honest))
	f.Add([]byte(`{"unit":"u","versions":[{"number":1,"id":"`+id+`","data_hash":"h","size":3,"chunk_size":0,"chunk_count":1,"chunk_hashes":[["a"]]}]}`), []byte(honest))

	_, clients := testClouds(f, 4)
	m, err := New(Options{Clouds: clients, F: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		ca, cb := decodeUnitMetadata(a, "u"), decodeUnitMetadata(b, "u")
		merged := m.mergeMetadata("u", []*unitMetadata{ca, cb, ca})
		for _, v := range merged.Versions {
			if !validObjectID(v.ID) {
				t.Fatalf("merge kept ID %q", v.ID)
			}
			if !v.validChunking() {
				t.Fatalf("merge kept chunk geometry size %d, chunk %d x %d, %d hash rows", v.Size, v.ChunkSize, v.ChunkCount, len(v.ChunkHashes))
			}
			for _, name := range m.objectNames("u", v) {
				rest, ok := strings.CutPrefix(name, "dsky/u/"+v.ID+"/")
				if !ok || strings.ContainsAny(rest, "/.") {
					t.Fatalf("object name %q leaves dsky/u/<id>/", name)
				}
			}
			if merged.certified[v.Number] && (ca == nil || len(merged.variantsOf(v.Number)) == 0) {
				t.Fatalf("version %d certified without two agreeing copies", v.Number)
			}
		}
	})
}
