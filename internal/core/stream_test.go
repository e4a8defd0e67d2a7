package core

import (
	"bytes"
	"context"
	"crypto/rand"
	"fmt"
	"io"
	"testing"
	"time"

	"scfs/internal/cloud"
	"scfs/internal/cloudsim"
	"scfs/internal/coord"
	"scfs/internal/depsky"
	"scfs/internal/depspace"
	"scfs/internal/fsapi"
	"scfs/internal/storage"
)

var bg = context.Background()

// testAgent mounts a blocking-mode agent over a 4-cloud CoC backend with the
// given chunk size, so multi-chunk paths trigger at test-friendly sizes.
func testAgent(t *testing.T, chunkSize int) (*Agent, []*cloudsim.Provider) {
	t.Helper()
	return testAgentWith(t, chunkSize,
		func(c cloud.ObjectStore) cloud.ObjectStore { return c },
		func(s *storage.CloudOfClouds) storage.VersionedStore { return s })
}

// testAgentWith is testAgent with every cloud client and the backend passed
// through the test's wrappers before the mount sees them, and the mount's
// options through tweak.
func testAgentWith(t *testing.T, chunkSize int, wrapCloud func(cloud.ObjectStore) cloud.ObjectStore, wrapStore func(*storage.CloudOfClouds) storage.VersionedStore, tweak ...func(*Options)) (*Agent, []*cloudsim.Provider) {
	t.Helper()
	providers := make([]*cloudsim.Provider, 4)
	clients := make([]cloud.ObjectStore, 4)
	for i := range clients {
		providers[i] = cloudsim.NewProvider(cloudsim.Options{Name: fmt.Sprintf("c%d", i)})
		clients[i] = wrapCloud(providers[i].MustClient(providers[i].CreateAccount("alice")))
	}
	mgr, err := depsky.New(depsky.Options{Clouds: clients, F: 1, ChunkSize: chunkSize})
	if err != nil {
		t.Fatal(err)
	}
	svc := coord.NewDepSpaceService(depspace.NewClient(&depspace.LocalInvoker{Space: depspace.NewSpace()}, "alice", nil))
	opts := Options{
		User:             "alice",
		Mode:             Blocking,
		Coordination:     svc,
		Storage:          wrapStore(storage.NewCloudOfClouds(mgr)),
		MetadataCacheTTL: 500 * time.Millisecond,
		DiskCacheDir:     t.TempDir(),
	}
	for _, f := range tweak {
		f(&opts)
	}
	a, err := New(bg, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Unmount(bg) })
	return a, providers
}

func randData(t *testing.T, n int) []byte {
	t.Helper()
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestAgentStreamedWriteAndRangedRead drives a large file through the full
// agent stack: close streams it to the clouds chunk-by-chunk, and a
// read-only open on a cold cache serves ReadAt through ranged cloud reads
// without pulling the whole object.
func TestAgentStreamedWriteAndRangedRead(t *testing.T) {
	const chunk = residencyBound / 16
	a, providers := testAgent(t, chunk)
	data := randData(t, 16*chunk+99)
	if err := fsapi.WriteFile(bg, a, "/big.bin", data); err != nil {
		t.Fatal(err)
	}

	// Reading through the cache returns identical bytes.
	got, err := fsapi.ReadFile(bg, a, "/big.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cached round trip mismatch")
	}

	// Evict local caches to force the ranged cloud path.
	a.memCache.Clear()
	a.diskCache.Clear()

	account := providers[0].CreateAccount("alice")
	before := providers[0].Usage(account).GetRequests
	h, err := a.Open(bg, "/big.bin", fsapi.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	info, err := h.Stat(bg)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != int64(len(data)) {
		t.Fatalf("lazy Stat size = %d, want %d", info.Size, len(data))
	}
	buf := make([]byte, 100)
	if _, err := h.ReadAt(bg, buf, int64(5*chunk+10)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data[5*chunk+10:5*chunk+110]) {
		t.Fatal("ranged ReadAt mismatch")
	}
	if err := h.Close(bg); err != nil {
		t.Fatal(err)
	}
	// A 100-byte read of a 17-chunk file must not fetch every chunk: the
	// metadata object plus at most a couple of chunk frames per cloud.
	if gets := providers[0].Usage(account).GetRequests - before; gets > 4 {
		t.Fatalf("small ranged read issued %d gets on one cloud", gets)
	}

	// The same file read fully (cold caches again) still matches.
	a.memCache.Clear()
	a.diskCache.Clear()
	got, err = fsapi.ReadFile(bg, a, "/big.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cold full read mismatch")
	}
}

// TestAgentWritableOpenMaterializesLazyFile covers the mixed case: while a
// read-only handle serves ranged reads, a writable open of the same path
// must materialize the contents and both handles must stay correct.
func TestAgentWritableOpenMaterializesLazyFile(t *testing.T) {
	const chunk = residencyBound / 4
	a, _ := testAgent(t, chunk)
	data := randData(t, 6*chunk)
	if err := fsapi.WriteFile(bg, a, "/f", data); err != nil {
		t.Fatal(err)
	}
	a.memCache.Clear()
	a.diskCache.Clear()

	ro, err := a.Open(bg, "/f", fsapi.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := a.Open(bg, "/f", fsapi.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	patch := []byte("PATCHED")
	if _, err := rw.WriteAt(bg, patch, 10); err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), data...)
	copy(want[10:], patch)
	buf := make([]byte, 64)
	if _, err := ro.ReadAt(bg, buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, want[:64]) {
		t.Fatal("read-only handle does not observe the write")
	}
	if err := ro.Close(bg); err != nil {
		t.Fatal(err)
	}
	if err := rw.Close(bg); err != nil {
		t.Fatal(err)
	}
	got, err := fsapi.ReadFile(bg, a, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("patched contents lost")
	}
}

// TestResidencyBound pins the one residency decision at its edge: a
// read-only open of a version of exactly residencyBound bytes fetches it
// whole, and a second open is served from the memory cache; one byte more
// and the open attaches a ranged reader, which moves the contents out of
// the clouds only when ReadAt asks for them.
func TestResidencyBound(t *testing.T) {
	const chunk = residencyBound / 4
	a, providers := testAgent(t, chunk)
	egress := func() (n int64) {
		for _, p := range providers {
			n += p.Usage(p.CreateAccount("alice")).BytesOut
		}
		return n
	}
	atBound, past := randData(t, residencyBound), randData(t, residencyBound+1)
	if err := fsapi.WriteFile(bg, a, "/at", atBound); err != nil {
		t.Fatal(err)
	}
	if err := fsapi.WriteFile(bg, a, "/past", past); err != nil {
		t.Fatal(err)
	}
	a.memCache.Clear()
	a.diskCache.Clear()
	open := func(path string) (*handle, Stats) {
		t.Helper()
		before := a.Stats()
		h, err := a.Open(bg, path, fsapi.ReadOnly)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { h.Close(bg) })
		return h.(*handle), before
	}

	h, before := open("/at")
	if st := a.Stats(); h.of.lazy != nil || st.CloudBytesDown-before.CloudBytesDown != residencyBound {
		t.Fatalf("open of %d bytes: ranged=%v, %d bytes fetched whole; want the whole version", residencyBound, h.of.lazy != nil, st.CloudBytesDown-before.CloudBytesDown)
	}
	h.Close(bg)
	h, before = open("/at")
	if st := a.Stats(); !bytes.Equal(h.of.data, atBound) || st.CloudReads != before.CloudReads || st.MemCacheHits != before.MemCacheHits+1 {
		t.Fatalf("second open made %d cloud reads and %d memory-cache hits, want 0 and 1", st.CloudReads-before.CloudReads, st.MemCacheHits-before.MemCacheHits)
	}

	out := egress()
	h, before = open("/past")
	if st := a.Stats(); h.of.lazy == nil || st.CloudBytesDown != before.CloudBytesDown {
		t.Fatalf("open of %d bytes: ranged=%v, %d bytes fetched whole; want a ranged reader", len(past), h.of.lazy != nil, st.CloudBytesDown-before.CloudBytesDown)
	}
	if moved := egress() - out; moved >= chunk {
		t.Fatalf("the ranged open moved %d bytes out of the clouds, a chunk's worth", moved)
	}
	out = egress()
	got := make([]byte, len(past))
	if n, err := h.ReadAt(bg, got, 0); n != len(past) || (err != nil && err != io.EOF) || !bytes.Equal(got, past) {
		t.Fatalf("ranged ReadAt: %d bytes, %v, match=%v", n, err, bytes.Equal(got, past))
	}
	if moved := egress() - out; moved < int64(len(past)) {
		t.Fatalf("ReadAt of %d bytes moved only %d out of the clouds", len(past), moved)
	}
}

// TestReadDirWarmsStatBurst pins the batched-metadata behaviour: a ReadDir
// is one coordination access (directory metadata and listing in one batch),
// and stating every listed entry afterwards is served from the metadata
// cache with no extra coordination reads.
func TestReadDirWarmsStatBurst(t *testing.T) {
	a, _ := testAgent(t, 4096)
	if err := a.Mkdir(bg, "/dir"); err != nil {
		t.Fatal(err)
	}
	const files = 12
	for i := 0; i < files; i++ {
		if err := fsapi.WriteFile(bg, a, fmt.Sprintf("/dir/f%02d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	a.metaCache.InvalidateAll()
	start := a.Stats().CoordAccesses
	entries, err := a.ReadDir(bg, "/dir")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != files {
		t.Fatalf("ReadDir returned %d entries", len(entries))
	}
	before := a.Stats().CoordAccesses
	if before-start != 1 {
		t.Fatalf("ReadDir with a cold metadata cache cost %d coordination accesses, want 1", before-start)
	}
	for _, e := range entries {
		if _, err := a.Stat(bg, e.Path); err != nil {
			t.Fatal(err)
		}
	}
	after := a.Stats().CoordAccesses
	if after != before {
		t.Fatalf("stat burst after readdir cost %d coordination accesses, want 0", after-before)
	}
}

// TestCollectBatchSweep checks the GC deletes old versions through the
// batched sweep and the storage footprint actually shrinks.
func TestCollectBatchSweep(t *testing.T) {
	a, providers := testAgent(t, 4096)
	a.opts.GC.KeepVersions = 1
	const files, versions = 5, 3
	for i := 0; i < files; i++ {
		for v := 0; v < versions; v++ {
			if err := fsapi.WriteFile(bg, a, fmt.Sprintf("/f%d", i), randData(t, 2000+i+v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// One deleted file: its surviving versions must be purged entirely.
	if err := fsapi.WriteFile(bg, a, "/dead", randData(t, 1500)); err != nil {
		t.Fatal(err)
	}
	if err := a.Unlink(bg, "/dead"); err != nil {
		t.Fatal(err)
	}
	before := providers[0].ObjectCount()
	report, err := a.Collect(bg)
	if err != nil {
		t.Fatal(err)
	}
	wantDeleted := files*(versions-1) + 1
	if report.VersionsDeleted != wantDeleted {
		t.Fatalf("VersionsDeleted = %d, want %d", report.VersionsDeleted, wantDeleted)
	}
	if report.FilesPurged != 1 {
		t.Fatalf("FilesPurged = %d, want 1", report.FilesPurged)
	}
	if after := providers[0].ObjectCount(); after >= before {
		t.Fatalf("object count %d -> %d, want fewer", before, after)
	}
	// Each surviving file still reads back.
	for i := 0; i < files; i++ {
		if _, err := fsapi.ReadFile(bg, a, fmt.Sprintf("/f%d", i)); err != nil {
			t.Fatalf("file %d unreadable after GC: %v", i, err)
		}
	}
}

// TestTruncateOpenOnLazyFile pins the fix for truncate-while-lazy: opening
// a lazily-served large file with Truncate must expose an empty file, not
// the stale pre-truncate cloud contents.
func TestTruncateOpenOnLazyFile(t *testing.T) {
	const chunk = residencyBound / 4
	a, _ := testAgent(t, chunk)
	data := randData(t, 5*chunk)
	if err := fsapi.WriteFile(bg, a, "/t", data); err != nil {
		t.Fatal(err)
	}
	a.memCache.Clear()
	a.diskCache.Clear()

	ro, err := a.Open(bg, "/t", fsapi.ReadOnly) // attaches the ranged reader
	if err != nil {
		t.Fatal(err)
	}
	tr, err := a.Open(bg, "/t", fsapi.ReadWrite|fsapi.Truncate)
	if err != nil {
		t.Fatal(err)
	}
	info, err := tr.Stat(bg)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != 0 {
		t.Fatalf("size after truncate = %d, want 0", info.Size)
	}
	if _, err := tr.ReadAt(bg, make([]byte, 1), 0); err != io.EOF {
		t.Fatalf("read of truncated file: %v, want EOF", err)
	}
	if _, err := tr.WriteAt(bg, []byte("fresh"), 0); err != nil {
		t.Fatal(err)
	}
	if err := ro.Close(bg); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(bg); err != nil {
		t.Fatal(err)
	}
	got, err := fsapi.ReadFile(bg, a, "/t")
	if err != nil || string(got) != "fresh" {
		t.Fatalf("after truncate+write: %q, %v", got, err)
	}
}
