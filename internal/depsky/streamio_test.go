package depsky

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"testing"
	"time"

	"scfs/internal/cloudsim"
	"scfs/internal/seccrypto"
)

// newChunkedManager builds a 4-cloud f=1 manager with a small chunk size so
// multi-chunk paths are exercised cheaply.
func newChunkedManager(t *testing.T, protocol Protocol, chunkSize int) ([]*cloudsim.Provider, *Manager) {
	t.Helper()
	providers, clients := testClouds(t, 4)
	m, err := New(Options{Clouds: clients, F: 1, Protocol: protocol, ChunkSize: chunkSize})
	if err != nil {
		t.Fatal(err)
	}
	return providers, m
}

func randBytes(t *testing.T, n int) []byte {
	t.Helper()
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		t.Fatal(err)
	}
	return b
}

// readRange reads [off, off+n) of the version of unit named hash the way a
// mount does: through OpenMatching's ranged reader. Ranges beyond the end are
// truncated.
func readRange(ctx context.Context, m *Manager, unit, hash string, off, n int64) ([]byte, error) {
	r, _, err := m.OpenMatching(ctx, unit, hash)
	if err != nil {
		return nil, err
	}
	sec := r.Section(ctx, off, n)
	defer sec.Close()
	return io.ReadAll(sec)
}

// TestWriteFromChunkBoundaries pins round-trip correctness at every chunk
// boundary: 0, 1, chunkSize-1, chunkSize, chunkSize+1 and multi-chunk — for
// both write entry points, whose versions no reader can tell apart.
func TestWriteFromChunkBoundaries(t *testing.T) {
	const cs = 4096
	writers := map[string]func(m *Manager, unit string, data []byte) (VersionInfo, error){
		"WriteFrom": func(m *Manager, unit string, data []byte) (VersionInfo, error) {
			return m.WriteFrom(bg, unit, seccrypto.Hash(data), bytes.NewReader(data))
		},
		"Write": func(m *Manager, unit string, data []byte) (VersionInfo, error) {
			return m.Write(bg, unit, data)
		},
	}
	for _, protocol := range []Protocol{ProtocolCA, ProtocolA} {
		_, m := newChunkedManager(t, protocol, cs)
		for _, size := range []int{0, 1, cs - 1, cs, cs + 1, 3*cs + 100, 5 * cs} {
			data := randBytes(t, size)
			var shapes []VersionInfo
			for name, write := range writers {
				unit := fmt.Sprintf("%s-%s-%d", name, protocol, size)
				info, err := write(m, unit, data)
				if err != nil {
					t.Fatalf("%s: %v", unit, err)
				}
				wantChunks := (size + cs - 1) / cs
				if info.Size != size || info.ChunkSize != cs || info.ChunkCount != wantChunks {
					t.Fatalf("%s: info = %+v", unit, info)
				}
				if len(info.ChunkHashes) != wantChunks {
					t.Fatalf("%s: %d chunk hash rows, want %d", unit, len(info.ChunkHashes), wantChunks)
				}
				// What differs between two writes of the same bytes is drawn
				// at random per write (key, IV), nothing else.
				info.ChunkHashes = nil
				info.Tag = "" // each write draws its own
				shapes = append(shapes, info)

				// Whole-value reads by hash.
				got, gotInfo, err := m.ReadMatching(bg, unit, info.DataHash)
				if err != nil || !bytes.Equal(got, data) {
					t.Fatalf("%s: ReadMatching: mismatch or %v", unit, err)
				}
				if gotInfo.DataHash != seccrypto.Hash(data) {
					t.Fatalf("%s: hash mismatch", unit)
				}

				// Ranged reads by hash, served chunk by chunk.
				if ranged, err := readRange(bg, m, unit, info.DataHash, 0, int64(size)); err != nil || !bytes.Equal(ranged, data) {
					t.Fatalf("%s: ranged read: mismatch or %v", unit, err)
				}
				rm, _, err := m.OpenMatching(bg, unit, info.DataHash)
				if err != nil {
					t.Fatalf("%s: OpenMatching: %v", unit, err)
				}
				if ranged, err := io.ReadAll(rm); err != nil || !bytes.Equal(ranged, data) {
					t.Fatalf("%s: ranged read by hash: mismatch or %v", unit, err)
				}
				rm.Close()
			}
			if !reflect.DeepEqual(shapes[0], shapes[1]) {
				t.Fatalf("%s size %d: the two writers' versions differ: %+v vs %+v", protocol, size, shapes[0], shapes[1])
			}
		}
	}
}

// TestOpenRangeFetchesOnlyCoveringChunks checks ranged reads return the
// right bytes and only touch the chunks covering the range.
func TestOpenRangeFetchesOnlyCoveringChunks(t *testing.T) {
	const cs = 4096
	providers, m := newChunkedManager(t, ProtocolCA, cs)
	data := randBytes(t, 8*cs+57)
	info := writeFrom(t, m, "u", data)

	account := providers[0].CreateAccount("alice")
	getRequests := func() int64 { return providers[0].Usage(account).GetRequests }
	before := getRequests()
	var maxGets int64
	for _, c := range []struct{ off, n int64 }{
		{0, 10},
		{cs - 3, 6},
		{3 * cs, cs},
		{int64(len(data)) - 9, 9},
		{int64(len(data)) - 9, 100}, // over-long range is truncated
	} {
		got, err := readRange(bg, m, "u", info.DataHash, c.off, c.n)
		if err != nil {
			t.Fatalf("range read (%d, %d): %v", c.off, c.n, err)
		}
		end := c.off + c.n
		if end > int64(len(data)) {
			end = int64(len(data))
		}
		if !bytes.Equal(got, data[c.off:end]) {
			t.Fatalf("range (%d, %d): bytes differ", c.off, c.n)
		}
		// Each covered chunk costs at most one Get per cloud, plus one for
		// the descriptor.
		maxGets += end/cs - c.off/cs + 1 + 1
	}
	// Summed over all cases (the early-return read path may leave a cloud's
	// Get in flight briefly, so per-case windows are not reliable): ranged
	// reads of an 8-chunk object must fetch far fewer than all chunks every
	// time.
	if reqs := getRequests() - before; reqs > maxGets {
		t.Fatalf("%d gets on one cloud across all ranges, want <= %d", reqs, maxGets)
	}
}

// TestStreamedDegradedReadsAllFaultPatterns exercises every <=f missing
// pattern (each single cloud down, f=1) and both byzantine fault modes, for
// ranged and full reads of a chunked version.
func TestStreamedDegradedReadsAllFaultPatterns(t *testing.T) {
	const cs = 2048
	data := make([]byte, 4*cs+33)
	for i := range data {
		data[i] = byte(i * 31)
	}
	for _, fault := range []cloudsim.FaultMode{cloudsim.FaultUnavailable, cloudsim.FaultCorrupt, cloudsim.FaultLoseWrites} {
		for down := 0; down < 4; down++ {
			providers, m := newChunkedManager(t, ProtocolCA, cs)
			if fault == cloudsim.FaultLoseWrites {
				// Lost writes must be injected before the write.
				providers[down].SetFault(fault)
			}
			hash := seccrypto.Hash(data)
			if _, err := m.WriteFrom(bg, "u", hash, bytes.NewReader(data)); err != nil {
				t.Fatalf("fault %v cloud %d: WriteFrom: %v", fault, down, err)
			}
			providers[down].SetFault(fault)

			got, _, err := m.ReadMatching(bg, "u", hash)
			if err != nil {
				t.Fatalf("fault %v cloud %d: Read: %v", fault, down, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("fault %v cloud %d: Read mismatch", fault, down)
			}

			ranged, err := readRange(bg, m, "u", hash, cs-7, 2*cs)
			if err != nil {
				t.Fatalf("fault %v cloud %d: ranged read: %v", fault, down, err)
			}
			if !bytes.Equal(ranged, data[cs-7:cs-7+2*cs]) {
				t.Fatalf("fault %v cloud %d: ranged read mismatch", fault, down)
			}
		}
	}
}

// faultAfter flips a provider into a fault mode once n bytes of the stream
// have been consumed by the writer — a cloud dying mid-upload.
type faultAfter struct {
	r        io.Reader
	n        int
	provider *cloudsim.Provider
	fault    cloudsim.FaultMode
	read     int
	tripped  bool
}

func (f *faultAfter) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	f.read += n
	if !f.tripped && f.read > f.n {
		f.tripped = true
		f.provider.SetFault(f.fault)
	}
	return n, err
}

// TestWriteFromMidStreamCloudFailure kills exactly f clouds partway through
// a streamed write: the write must still reach a quorum and the data must
// read back intact.
func TestWriteFromMidStreamCloudFailure(t *testing.T) {
	const cs = 2048
	providers, m := newChunkedManager(t, ProtocolCA, cs)
	data := randBytes(t, 10*cs)
	src := &faultAfter{r: bytes.NewReader(data), n: 3 * cs, provider: providers[2], fault: cloudsim.FaultUnavailable}
	info, err := m.WriteFrom(bg, "u", seccrypto.Hash(data), src)
	if err != nil {
		t.Fatalf("WriteFrom with mid-stream failure: %v", err)
	}
	if info.ChunkCount != 10 {
		t.Fatalf("chunk count = %d", info.ChunkCount)
	}
	got, _, err := m.ReadMatching(bg, "u", info.DataHash)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("mismatch after mid-stream cloud failure")
	}
	// With f+1 failures mid-stream the quorum is unreachable and the write
	// must fail rather than record a bogus version.
	providers2, m2 := newChunkedManager(t, ProtocolCA, cs)
	src2 := &faultAfter{r: bytes.NewReader(data), n: 3 * cs, provider: providers2[0], fault: cloudsim.FaultUnavailable}
	providers2[1].SetFault(cloudsim.FaultUnavailable)
	if _, err := m2.WriteFrom(bg, "u2", seccrypto.Hash(data), src2); !errors.Is(err, ErrQuorumWrite) {
		t.Fatalf("err = %v, want ErrQuorumWrite", err)
	}
	// The chunks uploaded before the quorum was lost are deleted again
	// wherever a cloud still answers.
	for _, i := range []int{2, 3} {
		if n := providers2[i].ObjectCount(); n != 0 {
			t.Fatalf("cloud %d keeps %d chunk objects of the failed write", i, n)
		}
	}
}

// TestDeleteChunkedVersionReclaimsSpace verifies chunk objects are removed
// from the clouds when a version is deleted: a write quorum holds each of
// them before, no cloud holds any after.
func TestDeleteChunkedVersionReclaimsSpace(t *testing.T) {
	const cs = 2048
	_, clients := testClouds(t, 4)
	m, err := New(Options{Clouds: clients, F: 1, ChunkSize: cs})
	if err != nil {
		t.Fatal(err)
	}
	info := writeFrom(t, m, "u", randBytes(t, 4*cs))
	chunkObjects := func() int {
		total := 0
		for _, c := range clients {
			objs, err := c.List(bg, "dsky/u/"+info.DataHash+"/")
			if err != nil {
				t.Fatal(err)
			}
			total += len(objs)
		}
		return total
	}
	if n, want := chunkObjects(), info.ChunkCount*m.QuorumSize(); n < want {
		t.Fatalf("%d chunk objects before the delete, want a quorum of each of %d chunks", n, info.ChunkCount)
	}
	if _, err := m.DeleteVersion(bg, "u", info.DataHash); err != nil {
		t.Fatal(err)
	}
	if n := chunkObjects(); n != 0 {
		t.Fatalf("the clouds keep %d chunk objects of the deleted version", n)
	}
}

// TestStreamedConfidentiality: no single cloud stores the plaintext of a
// streamed CA write.
func TestStreamedConfidentiality(t *testing.T) {
	const cs = 2048
	providers, m := newChunkedManager(t, ProtocolCA, cs)
	secret := bytes.Repeat([]byte("TOPSECRET-"), 700) // ~7 KiB, compressible pattern
	writeFrom(t, m, "u", secret)
	for i, p := range providers {
		id := p.CreateAccount("alice")
		objs, err := p.MustClient(id).List(bg, "dsky/u/")
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range objs {
			payload, err := p.MustClient(id).Get(bg, o.Name)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Contains(payload, []byte("TOPSECRET-")) {
				t.Fatalf("cloud %d object %s leaks plaintext", i, o.Name)
			}
		}
	}
}

// TestRangedReadIgnoresForgedMetadataCopy pins the certification rule: the
// ranged read path trusts per-chunk hashes only from a descriptor found
// identical on f+1 clouds, so a single Byzantine cloud rewriting its
// descriptor copy (pointing the chunk hashes at forged frames it serves)
// cannot influence what a ranged read returns.
func TestRangedReadIgnoresForgedMetadataCopy(t *testing.T) {
	const cs = 2048
	_, clients := testClouds(t, 4)
	m, err := New(Options{Clouds: clients, F: 1, ChunkSize: cs})
	if err != nil {
		t.Fatal(err)
	}
	data := randBytes(t, 4*cs)
	info := writeFrom(t, m, "u", data)

	// Cloud 0 turns Byzantine: it rewrites its descriptor copy so every chunk
	// hash points at a forged frame it serves, and stores those frames.
	evil := clients[0]
	forged := bytes.Repeat([]byte{0x66}, len(data))
	v := info
	v.ChunkHashes = make([][]string, v.ChunkCount)
	for idx := range v.ChunkCount {
		chunk := forged[idx*cs : idx*cs+v.chunkPlainLen(idx)]
		for cloudIdx := 0; cloudIdx < 4; cloudIdx++ {
			frame := frameOf(ProtocolA, &block{Full: chunk, ShardIdx: cloudIdx, ChunkIdx: idx, ChunkPlainLen: len(chunk)})
			if cloudIdx == 0 {
				if err := evil.Put(bg, m.chunkName("u", &v, idx), frame); err != nil {
					t.Fatal(err)
				}
			}
			v.ChunkHashes[idx] = append(v.ChunkHashes[idx], seccrypto.Hash(frame))
		}
	}
	// The forged descriptor claims the replication protocol so one frame
	// would suffice to decode a chunk if it were trusted.
	v.Protocol = ProtocolA
	rewritten, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := evil.Put(bg, m.descName("u", v.DataHash), descObject(rewritten, nil)); err != nil {
		t.Fatal(err)
	}

	got, err := readRange(bg, m, "u", info.DataHash, 0, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("ranged read served forged bytes")
	}
}

// TestOpenMatchingDeclinesUncertifiedEntries: a descriptor fewer than f+1
// clouds vouch for — a version one cloud alone still serves, say — is served
// by neither read entry. Both answer ErrVersionNotFound, the answer the
// consistency-anchor loop retries until a descriptor is visible on f+1
// clouds; nothing reads by the chunk hashes of a copy a faulty cloud may
// have written.
func TestOpenMatchingDeclinesUncertifiedEntries(t *testing.T) {
	_, clients := testClouds(t, 4)
	m, err := New(Options{Clouds: clients, F: 1, ChunkSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	info := writeFrom(t, m, "u", randBytes(t, 2000))
	waitGoroutines(baseline, time.Second) // the write's straggler has landed or given up
	desc := m.descName("u", info.DataHash)
	for _, c := range clients[1:] {
		if err := c.Delete(bg, desc); err != nil {
			t.Fatal(err)
		}
	}
	raw, _ := json.Marshal(info)
	if err := clients[0].Put(bg, desc, descObject(raw, nil)); err != nil { // the write's straggler may have been cut
		t.Fatal(err)
	}
	if _, _, err := m.OpenMatching(bg, "u", info.DataHash); !errors.Is(err, ErrVersionNotFound) {
		t.Fatalf("OpenMatching err = %v, want ErrVersionNotFound", err)
	}
	if _, _, err := m.ReadMatching(bg, "u", info.DataHash); !errors.Is(err, ErrVersionNotFound) {
		t.Fatalf("ReadMatching err = %v, want ErrVersionNotFound", err)
	}
}

// TestMalformedChunkGeometryFailsCleanly: a descriptor with inconsistent
// chunk arithmetic must produce an error, not a slice-bounds panic.
func TestMalformedChunkGeometryFailsCleanly(t *testing.T) {
	bad := VersionInfo{Size: 5, ChunkSize: 10, ChunkCount: 3, Protocol: ProtocolCA}
	if bad.validChunking() {
		t.Fatal("inconsistent geometry accepted")
	}
	_, m := newChunkedManager(t, ProtocolCA, 2048)
	if _, err := m.readVersion(bg, &chunkFetcher{m: m, unit: "u", info: bad}); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("err = %v, want ErrIntegrity", err)
	}
	good := VersionInfo{Size: 25, ChunkSize: 10, ChunkCount: 3, ChunkHashes: [][]string{nil, nil, nil}}
	if !good.validChunking() {
		t.Fatal("consistent geometry rejected")
	}
}
