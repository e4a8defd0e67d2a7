package depsky

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"math/bits"
	"testing"
	"time"

	"scfs/internal/cloud"
	"scfs/internal/cloudsim"
	"scfs/internal/seccrypto"
)

// bg is the context used by tests that do not exercise cancellation.
var bg = context.Background()

// testClouds builds n zero-latency simulated providers and returns the
// providers plus object-store clients for one user.
func testClouds(t testing.TB, n int) ([]*cloudsim.Provider, []cloud.ObjectStore) {
	t.Helper()
	providers := make([]*cloudsim.Provider, n)
	clients := make([]cloud.ObjectStore, n)
	for i := 0; i < n; i++ {
		p := cloudsim.NewProvider(cloudsim.Options{Name: fmt.Sprintf("cloud-%d", i)})
		id := p.CreateAccount("alice")
		providers[i] = p
		clients[i] = p.MustClient(id)
	}
	return providers, clients
}

// writeFrom stores data as the version of unit that its hash names.
func writeFrom(t testing.TB, m *Manager, unit string, data []byte) VersionInfo {
	t.Helper()
	info, err := m.WriteFrom(bg, unit, seccrypto.Hash(data), bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return info
}

func newManager(t *testing.T, protocol Protocol) ([]*cloudsim.Provider, *Manager) {
	t.Helper()
	providers, clients := testClouds(t, 4)
	m, err := New(Options{Clouds: clients, F: 1, Protocol: protocol})
	if err != nil {
		t.Fatal(err)
	}
	return providers, m
}

// TestNewValidation: F is taken as given. F = 0 over one cloud is the
// single-provider deployment, every threshold 1; a negative F is refused,
// and 3f+1 clouds are needed for every F.
func TestNewValidation(t *testing.T) {
	_, one := testClouds(t, 1)
	m, err := New(Options{Clouds: one, F: 0, Protocol: ProtocolA})
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != 1 || m.F() != 0 || m.QuorumSize() != 1 || m.witnessSize() != 1 {
		t.Fatalf("one cloud at F=0: N=%d F=%d quorum=%d witness=%d, want 1 0 1 1", m.N(), m.F(), m.QuorumSize(), m.witnessSize())
	}
	if _, err := New(Options{Clouds: one, F: -1}); err == nil {
		t.Fatal("F = -1 accepted")
	}
	_, three := testClouds(t, 3)
	if _, err := New(Options{Clouds: three, F: 1}); !errors.Is(err, ErrNotEnoughClouds) {
		t.Fatalf("three clouds at F=1: err = %v, want ErrNotEnoughClouds", err)
	}
}

// TestNewRefusesCAWithoutFaults: DepSky-CA splits each chunk's key into f+1
// shares, so F = 0 has no valid threshold. The manager refuses it at
// construction instead of failing every Write afterwards.
func TestNewRefusesCAWithoutFaults(t *testing.T) {
	_, four := testClouds(t, 4)
	if _, err := New(Options{Clouds: four, F: 0, Protocol: ProtocolCA}); err == nil {
		t.Fatal("DepSky-CA at F = 0 accepted")
	}
	m, err := New(Options{Clouds: four, F: 0, Protocol: ProtocolA})
	if err != nil {
		t.Fatalf("DepSky-A at F = 0: %v", err)
	}
	if _, err := m.Write(bg, "u", []byte("replicated")); err != nil {
		t.Fatalf("DepSky-A at F = 0 write: %v", err)
	}
}

func TestWriteReadRoundTripCA(t *testing.T) {
	_, m := newManager(t, ProtocolCA)
	for _, size := range []int{0, 1, 100, 4096, 1 << 18} {
		data := make([]byte, size)
		if _, err := rand.Read(data); err != nil {
			t.Fatal(err)
		}
		unit := fmt.Sprintf("file-%d", size)
		info, err := m.Write(bg, unit, data)
		if err != nil {
			t.Fatalf("Write(%d bytes): %v", size, err)
		}
		if info.DataHash != seccrypto.Hash(data) || info.Size != size {
			t.Fatalf("info = %+v", info)
		}
		got, gotInfo, err := m.Read(bg, unit)
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("round trip mismatch for %d bytes", size)
		}
		if gotInfo.DataHash != info.DataHash {
			t.Fatal("hash mismatch between write and read info")
		}
	}
}

func TestWriteReadRoundTripA(t *testing.T) {
	_, m := newManager(t, ProtocolA)
	data := []byte("replicated everywhere")
	if _, err := m.Write(bg, "u", data); err != nil {
		t.Fatal(err)
	}
	got, info, err := m.Read(bg, "u")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) || info.Protocol != ProtocolA {
		t.Fatalf("got %q, protocol %v", got, info.Protocol)
	}
}

func TestVersionsAccumulateAndReadNewest(t *testing.T) {
	_, m := newManager(t, ProtocolCA)
	writeFrom(t, m, "doc", []byte("version 1"))
	writeFrom(t, m, "doc", []byte("version 2"))
	if _, err := m.Write(bg, "doc", []byte("version 3")); err != nil {
		t.Fatal(err)
	}
	got, info, err := m.Read(bg, "doc")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "version 3" || info.DataHash != seccrypto.Hash(got) {
		t.Fatalf("Read returned %q (%+v), want version 3", got, info)
	}
	versions, err := m.ListVersions(bg, "doc")
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != 3 {
		t.Fatalf("ListVersions returned %d, want 3", len(versions))
	}
}

func TestReadMatchingFetchesSpecificVersion(t *testing.T) {
	_, m := newManager(t, ProtocolCA)
	infos := make([]VersionInfo, 0, 3)
	for i := 1; i <= 3; i++ {
		infos = append(infos, writeFrom(t, m, "doc", []byte(fmt.Sprintf("version %d", i))))
	}
	// Fetch the middle version by its hash (the consistency-anchor path).
	got, info, err := m.ReadMatching(bg, "doc", infos[1].DataHash)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "version 2" || info.DataHash != infos[1].DataHash {
		t.Fatalf("ReadMatching returned %q (%+v)", got, info)
	}
	if _, _, err := m.ReadMatching(bg, "doc", seccrypto.Hash([]byte("no such version"))); !errors.Is(err, ErrVersionNotFound) {
		t.Fatalf("err = %v, want ErrVersionNotFound", err)
	}
}

func TestReadMissingUnit(t *testing.T) {
	_, m := newManager(t, ProtocolCA)
	if _, _, err := m.Read(bg, "ghost"); !errors.Is(err, ErrUnitNotFound) {
		t.Fatalf("err = %v, want ErrUnitNotFound", err)
	}
}

func TestToleratesOneUnavailableCloud(t *testing.T) {
	providers, m := newManager(t, ProtocolCA)
	data := []byte("must survive an outage")
	// One cloud is down during the write.
	providers[2].SetFault(cloudsim.FaultUnavailable)
	if _, err := m.Write(bg, "u", data); err != nil {
		t.Fatalf("Write with one cloud down: %v", err)
	}
	// A different cloud is down during the read.
	providers[2].SetFault(cloudsim.FaultNone)
	providers[0].SetFault(cloudsim.FaultUnavailable)
	got, _, err := m.Read(bg, "u")
	if err != nil {
		t.Fatalf("Read with one cloud down: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data mismatch after outage")
	}
}

func TestToleratesOneCorruptingCloud(t *testing.T) {
	providers, m := newManager(t, ProtocolCA)
	data := bytes.Repeat([]byte("integrity "), 1000)
	if _, err := m.Write(bg, "u", data); err != nil {
		t.Fatal(err)
	}
	providers[1].SetFault(cloudsim.FaultCorrupt)
	got, _, err := m.Read(bg, "u")
	if err != nil {
		t.Fatalf("Read with one corrupting cloud: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("corrupted data returned to the caller")
	}
}

// TestDegradedReadWithExactlyFCorruptingClouds exercises readVersion with
// exactly f clouds returning hash-mismatched blocks, for every placement of
// the corrupting clouds, at f=1 (n=4) and f=2 (n=7).
func TestDegradedReadWithExactlyFCorruptingClouds(t *testing.T) {
	for _, f := range []int{1, 2} {
		n := 3*f + 1
		providers, clients := testClouds(t, n)
		m, err := New(Options{Clouds: clients, F: f})
		if err != nil {
			t.Fatal(err)
		}
		data := bytes.Repeat([]byte("degraded-read "), 500)
		if _, err := m.Write(bg, "u", data); err != nil {
			t.Fatalf("f=%d: %v", f, err)
		}
		// Every combination of exactly f corrupting clouds, via bitmask.
		for mask := 0; mask < 1<<n; mask++ {
			if bits.OnesCount(uint(mask)) != f {
				continue
			}
			for i, p := range providers {
				if mask&(1<<i) != 0 {
					p.SetFault(cloudsim.FaultCorrupt)
				} else {
					p.SetFault(cloudsim.FaultNone)
				}
			}
			got, _, err := m.Read(bg, "u")
			if err != nil {
				t.Fatalf("f=%d mask=%b: %v", f, mask, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("f=%d mask=%b: corrupted data returned", f, mask)
			}
		}
	}
}

func TestToleratesOneCloudLosingWrites(t *testing.T) {
	providers, m := newManager(t, ProtocolCA)
	providers[3].SetFault(cloudsim.FaultLoseWrites)
	data := []byte("ack'd but dropped on one cloud")
	if _, err := m.Write(bg, "u", data); err != nil {
		t.Fatal(err)
	}
	got, _, err := m.Read(bg, "u")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data mismatch with a write-dropping cloud")
	}
}

func TestFailureThresholds(t *testing.T) {
	// This test kills two specific clouds after the fact, so it needs the
	// write to have landed on all four — disable the quorum verdict's
	// straggler cancellation to make placement deterministic.
	providers, clients := testClouds(t, 4)
	m, err := New(Options{Clouds: clients, F: 1, DisableQuorumCancel: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Write(bg, "u", []byte("data")); err != nil {
		t.Fatal(err)
	}
	// The write returned at its n-f verdicts; nothing cancels the fourth
	// cloud's uploads here, but they may still be in flight. Wait for both
	// (the descriptor object, which holds the chunk, and the head) to land
	// everywhere.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		landed := 0
		for _, p := range providers {
			landed += p.ObjectCount()
		}
		if landed == 2*len(providers) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d objects landed", landed, 2*len(providers))
		}
	}
	// Writes need a quorum of n-f = 3 clouds: two outages block them.
	providers[0].SetFault(cloudsim.FaultUnavailable)
	providers[1].SetFault(cloudsim.FaultUnavailable)
	if _, err := m.Write(bg, "u", []byte("new")); !errors.Is(err, ErrQuorumWrite) {
		t.Fatalf("Write err = %v, want ErrQuorumWrite", err)
	}
	// Reads only need f+1 = 2 clouds (the paper: "two clouds need to be
	// accessed to recover the file data"), so they still succeed...
	got, _, err := m.Read(bg, "u")
	if err != nil {
		t.Fatalf("Read with 2 clouds down: %v", err)
	}
	if !bytes.Equal(got, []byte("data")) {
		t.Fatal("read returned wrong data")
	}
	// ...but a third outage exceeds the read threshold as well.
	providers[2].SetFault(cloudsim.FaultUnavailable)
	if _, _, err := m.Read(bg, "u"); err == nil {
		t.Fatal("Read succeeded with only one cloud reachable")
	}
}

func TestNoSingleCloudHoldsPlaintext(t *testing.T) {
	// Confidentiality: with DepSky-CA no single provider stores the value or
	// anything containing it in the clear.
	providers, m := newManager(t, ProtocolCA)
	secretPayload := bytes.Repeat([]byte("TOPSECRET"), 200)
	if _, err := m.Write(bg, "classified", secretPayload); err != nil {
		t.Fatal(err)
	}
	for i, p := range providers {
		id := p.CreateAccount("alice")
		c := p.MustClient(id)
		objs, err := c.List(bg, "")
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range objs {
			data, err := c.Get(bg, o.Name)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Contains(data, []byte("TOPSECRET")) {
				t.Fatalf("cloud %d stores plaintext fragment in object %s", i, o.Name)
			}
			b, err := decodeBlock(data)
			if err != nil {
				continue // a descriptor or a head
			}
			if bytes.Contains(b.Payload, []byte("TOPSECRET")) {
				t.Fatalf("cloud %d block contains plaintext", i)
			}
		}
	}
}

func TestDepSkyAStoresPlaintextEverywhere(t *testing.T) {
	// Contrast with the CA protocol: DepSky-A replicates the value verbatim,
	// which is why SCFS uses DepSky-CA for its CoC backend.
	providers, m := newManager(t, ProtocolA)
	if _, err := m.Write(bg, "open", []byte("PLAINVALUE")); err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, p := range providers {
		c := p.MustClient(p.CreateAccount("alice"))
		objs, _ := c.List(bg, "")
		for _, o := range objs {
			data, _ := c.Get(bg, o.Name)
			if _, frame, ok := splitDescObject(data); ok {
				data = frame
			}
			if b, err := decodeBlock(data); err == nil && bytes.Contains(b.Payload, []byte("PLAINVALUE")) {
				found++
			}
		}
	}
	if found < 3 {
		t.Fatalf("expected the plaintext on at least a quorum of clouds, found %d", found)
	}
}

func TestDeleteVersionReclaimsSpace(t *testing.T) {
	// Asserts on provider 0's object count, so every write must land there:
	// disable straggler cancellation for deterministic placement.
	providers, clients := testClouds(t, 4)
	m, err := New(Options{Clouds: clients, F: 1, DisableQuorumCancel: true})
	if err != nil {
		t.Fatal(err)
	}
	var infos []VersionInfo
	for i := 1; i <= 3; i++ {
		infos = append(infos, writeFrom(t, m, "doc", bytes.Repeat([]byte{byte(i)}, 10000)))
	}
	before := providers[0].ObjectCount()
	if _, err := m.DeleteVersion(bg, "doc", infos[0].DataHash); err != nil {
		t.Fatal(err)
	}
	after := providers[0].ObjectCount()
	if after >= before {
		t.Fatalf("object count did not decrease: %d -> %d", before, after)
	}
	versions, _ := m.ListVersions(bg, "doc")
	if len(versions) != 2 {
		t.Fatalf("versions after delete = %d, want 2", len(versions))
	}
	if _, err := m.DeleteVersion(bg, "doc", seccrypto.Hash([]byte("never written"))); !errors.Is(err, ErrVersionNotFound) {
		t.Fatalf("err = %v, want ErrVersionNotFound", err)
	}
	// The newest version is still readable.
	got, _, err := m.ReadMatching(bg, "doc", infos[2].DataHash)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 3 {
		t.Fatal("wrong version after GC")
	}
}

// TestListedButAbsentVersionIsNotFound: a version whose objects no cloud has
// — not visible yet, or deleted while a cloud still serves the descriptor —
// reads as ErrVersionNotFound, which the consistency-anchor loop retries. For
// a version of three chunks the descriptor objects stay and the later chunks
// go: an outage among the misses is then ErrQuorumRead. A version of one
// chunk is its descriptor objects alone: with them gone, no cloud vouches for
// the version, and an outage does not change that.
func TestListedButAbsentVersionIsNotFound(t *testing.T) {
	for name, tc := range map[string]struct {
		size   int
		outage error
	}{"one chunk": {7, ErrVersionNotFound}, "three chunks": {5000, ErrQuorumRead}} {
		t.Run(name, func(t *testing.T) {
			providers, m := newChunkedManager(t, ProtocolCA, 2048)
			info := writeFrom(t, m, "u", randBytes(t, tc.size))
			gone := m.objectNames("u", info)[1:] // the later chunks
			if info.ChunkCount == 1 {
				gone = m.objectNames("u", info)
			}
			for _, c := range m.opts.Clouds {
				for _, name := range gone {
					_ = c.Delete(bg, name)
				}
			}
			if _, _, err := m.ReadMatching(bg, "u", info.DataHash); !errors.Is(err, ErrVersionNotFound) {
				t.Fatalf("objects absent everywhere: err = %v, want ErrVersionNotFound", err)
			}
			providers[0].SetFault(cloudsim.FaultUnavailable)
			if _, _, err := m.ReadMatching(bg, "u", info.DataHash); !errors.Is(err, tc.outage) {
				t.Fatalf("absent on three clouds, outage on one: err = %v, want %v", err, tc.outage)
			}
		})
	}

	// One block short of a decode, the rest corrupted: not "not visible".
	// The write's straggler is not cancelled, so that every cloud holds the
	// version before three of them turn corrupt.
	providers, clients := testClouds(t, 4)
	m, err := New(Options{Clouds: clients, F: 1, DisableQuorumCancel: true})
	if err != nil {
		t.Fatal(err)
	}
	info := writeFrom(t, m, "u", []byte("payload"))
	for _, p := range providers {
		for deadline := time.Now().Add(5 * time.Second); p.ObjectCount() == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the write's straggler never landed")
			}
		}
	}
	for _, p := range providers[1:] {
		p.SetFault(cloudsim.FaultCorrupt)
	}
	if _, _, err := m.ReadMatching(bg, "u", info.DataHash); err == nil || errors.Is(err, ErrVersionNotFound) {
		t.Fatalf("corrupt blocks: err = %v, want a read failure other than ErrVersionNotFound", err)
	}
}

func TestProtocolString(t *testing.T) {
	if ProtocolCA.String() != "DepSky-CA" || ProtocolA.String() != "DepSky-A" {
		t.Fatal("unexpected protocol names")
	}
}

func BenchmarkWriteCA1MB(b *testing.B) {
	providers := make([]cloud.ObjectStore, 4)
	for i := range providers {
		p := cloudsim.NewProvider(cloudsim.Options{Name: fmt.Sprintf("c%d", i)})
		providers[i] = p.MustClient(p.CreateAccount("u"))
	}
	m, err := New(Options{Clouds: providers, F: 1})
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 1<<20)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Write(bg, fmt.Sprintf("u-%d", i), data); err != nil {
			b.Fatal(err)
		}
	}
}
