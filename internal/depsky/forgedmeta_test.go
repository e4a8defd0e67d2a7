package depsky

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"scfs/internal/cloud"
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
// certification, and readChunkedVersion preallocates the reassembly buffer
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
	if _, err := m.readChunkedVersion(bg, "u", huge); !errors.Is(err, ErrIntegrity) {
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
		md := &unitMetadata{Unit: "u", Versions: []VersionInfo{{Number: 1, ID: id, DataHash: "h"}}}
		merged := m.mergeMetadata("u", []*unitMetadata{md, md, md, md})
		if len(merged.Versions) != 0 || len(merged.variants) != 0 {
			t.Fatalf("ID %q survived the merge: %+v", id, merged.Versions)
		}
	}
	md := &unitMetadata{Unit: "u", Versions: []VersionInfo{{Number: 1, ID: good, DataHash: "h"}}}
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
				if _, err := c.Get(bg, m.blockName("u", live.ID)); err == nil {
					holders++
				}
			}

			if _, err := m.DeleteVersions(bg, "u", []uint64{doomed.Number, 7}); err != nil {
				t.Fatal(err)
			}
			for _, c := range clients {
				if _, err := c.Get(bg, m.blockName("u", live.ID)); err == nil {
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

// FuzzUnitMetadata feeds arbitrary bytes through the unit-metadata decoder
// and the merge, as three clouds' copies with two of them agreeing: whatever
// comes out must be safe to build object names from.
func FuzzUnitMetadata(f *testing.F) {
	id := strings.Repeat("0123456789abcdef", 2)
	honest := `{"unit":"u","versions":[{"number":1,"id":"` + id + `","data_hash":"h","size":3,"block_hashes":["a","b","c","d"],"protocol":0}]}`
	f.Add([]byte(honest), []byte(honest))
	f.Add([]byte(honest), []byte(`{"unit":"u","versions":[{"number":1,"id":"../../v/metadata/0123456789abcdef","data_hash":"h"}]}`))
	f.Add([]byte(honest), []byte(`{"unit":"u","versions":[{"number":2,"id":"`+strings.ToUpper(id)+`","size":-1,"chunk_size":1,"chunk_count":1099511627776}]}`))
	f.Add([]byte(`{"unit":"u","versions":[{"number":18446744073709551615,"id":"`+id+`","size":5,"chunk_size":2,"chunk_count":3,"chunk_hashes":[[],[],[]]}]}`), []byte(`{"unit":"other"}`))
	f.Add([]byte(`{"unit":"u","versions":null}`), []byte(`[`))

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
			if v.Chunked() && !v.validChunking() {
				continue // deleteVersionBlocks and the readers stop here
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
