package core

import (
	"bytes"
	"fmt"
	"testing"

	"scfs/internal/cloud"
	"scfs/internal/cloudsim"
	"scfs/internal/coord"
	"scfs/internal/depsky"
	"scfs/internal/depspace"
	"scfs/internal/fsapi"
	"scfs/internal/storage"
)

// nonBlockingPair mounts two agents (a writer in non-blocking mode and a
// blocking reader) over one shared simulated deployment, so what the
// writer's background uploader actually pushed to the clouds can be
// observed from the outside. wrap, when set, stands between the writer and
// the backend.
func nonBlockingPair(t *testing.T, chunkSize int, diskCacheBytes int64, wrap func(storage.VersionedStore) storage.VersionedStore) (writer, reader *Agent) {
	t.Helper()
	providers := make([]*cloudsim.Provider, 4)
	clients := make([]cloud.ObjectStore, 4)
	for i := range clients {
		providers[i] = cloudsim.NewProvider(cloudsim.Options{Name: fmt.Sprintf("c%d", i)})
		clients[i] = providers[i].MustClient(providers[i].CreateAccount("alice"))
	}
	mgr, err := depsky.New(depsky.Options{Clouds: clients, F: 1, ChunkSize: chunkSize})
	if err != nil {
		t.Fatal(err)
	}
	space := depspace.NewSpace()
	newAgent := func(mode Mode, agentID string, store storage.VersionedStore) *Agent {
		svc := coord.NewDepSpaceService(depspace.NewClient(&depspace.LocalInvoker{Space: space}, "alice", nil))
		a, err := New(bg, Options{
			User:           "alice",
			AgentID:        agentID,
			Mode:           mode,
			Coordination:   svc,
			Storage:        store,
			DiskCacheDir:   t.TempDir(),
			DiskCacheBytes: diskCacheBytes,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { a.Unmount(bg) })
		return a
	}
	store := storage.VersionedStore(storage.NewCloudOfClouds(mgr))
	writerStore := store
	if wrap != nil {
		writerStore = wrap(store)
	}
	return newAgent(NonBlocking, "writer-1", writerStore), newAgent(Blocking, "reader-1", store)
}

// TestUploaderStreamsFromDiskCache is the bounded-uploader-memory check: a
// queued background upload carries no payload — the dirty version is
// spilled to (and pinned in) the disk cache, and the uploader streams it
// from there, whatever its size. Dropping the in-memory copy while the
// upload waits in the queue must not lose the write.
func TestUploaderStreamsFromDiskCache(t *testing.T) {
	const chunk = 4096
	for _, size := range []int{4 << 10, 8*chunk + 33} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			store := &watchedStore{uploads: make(chan string, 2)}
			store.hold()
			w, r := nonBlockingPair(t, chunk, 1<<30, func(s storage.VersionedStore) storage.VersionedStore {
				store.VersionedStore = s
				return store
			})
			// A held upload ahead of it keeps the version in the queue.
			if err := fsapi.WriteFile(bg, w, "/ahead.bin", []byte("ahead")); err != nil {
				t.Fatal(err)
			}
			store.awaitUpload(t, "for the file ahead")
			data := randData(t, size)
			if err := fsapi.WriteFile(bg, w, "/spill.bin", data); err != nil {
				t.Fatal(err)
			}
			w.memCache.Clear()
			close(store.gate)
			if err := w.WaitForUploads(bg); err != nil {
				t.Fatal(err)
			}
			if errs := w.Stats().UploadErrors; errs != 0 {
				t.Fatalf("background upload errors: %d", errs)
			}
			got, err := fsapi.ReadFile(bg, r, "/spill.bin")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("reader saw wrong bytes after spilled background upload")
			}
		})
	}
}

// TestUploaderQueueHoldsNoPayload pins the memory bound structurally: after
// Close queues an upload, the pending task's only payload copy is the disk
// cache entry (pinned against eviction), so queue memory is O(tasks), not
// O(bytes). The disk entry must stay pinned — and thus unevictable — until
// the upload completes, even under cache pressure.
func TestUploaderQueueHoldsNoPayload(t *testing.T) {
	const chunk = 4096
	// Disk cache sized to ~2 versions: the pressure writes below would
	// evict an unpinned queued version.
	w, r := nonBlockingPair(t, chunk, 3*8*chunk, nil)
	data := randData(t, 8*chunk)
	if err := fsapi.WriteFile(bg, w, "/pinned.bin", data); err != nil {
		t.Fatal(err)
	}
	w.memCache.Clear()
	// Cache pressure while the upload is queued: unpinned LRU entries go,
	// the pinned queued version must survive.
	for i := 0; i < 4; i++ {
		w.diskCache.Put(fmt.Sprintf("pressure-%d", i), randData(t, 8*chunk))
	}
	if err := w.WaitForUploads(bg); err != nil {
		t.Fatal(err)
	}
	if errs := w.Stats().UploadErrors; errs != 0 {
		t.Fatalf("background upload errors under cache pressure: %d", errs)
	}
	got, err := fsapi.ReadFile(bg, r, "/pinned.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("pinned spilled version was lost under cache pressure")
	}
}

// TestUploaderFallbackWhenDiskCacheCannotHold: a version larger than the
// whole disk cache cannot be spilled; the task then carries the payload
// (the documented edge case) and the upload still succeeds.
func TestUploaderFallbackWhenDiskCacheCannotHold(t *testing.T) {
	const chunk = 4096
	w, r := nonBlockingPair(t, chunk, 1024 /* smaller than any version */, nil)
	data := randData(t, 4*chunk)
	if err := fsapi.WriteFile(bg, w, "/big-for-cache.bin", data); err != nil {
		t.Fatal(err)
	}
	if err := w.WaitForUploads(bg); err != nil {
		t.Fatal(err)
	}
	if errs := w.Stats().UploadErrors; errs != 0 {
		t.Fatalf("fallback upload errors: %d", errs)
	}
	got, err := fsapi.ReadFile(bg, r, "/big-for-cache.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("fallback upload lost data")
	}
}

// TestGCReportsReclaimedFootprint: the batched sweep attributes the bytes
// and cloud objects it freed, and chunked versions are credited per chunk.
func TestGCReportsReclaimedFootprint(t *testing.T) {
	const chunk = 4096
	a, _ := testAgent(t, chunk)
	// Two versions of a chunked file; KeepVersions defaults to 1, so one
	// 8-chunk version dies.
	data := randData(t, 8*chunk)
	for v := 0; v < 2; v++ {
		data[0] = byte(v) // distinct hashes
		if err := fsapi.WriteFile(bg, a, "/gc.bin", data); err != nil {
			t.Fatal(err)
		}
	}
	report, err := a.Collect(bg)
	if err != nil {
		t.Fatal(err)
	}
	if report.VersionsDeleted != 1 {
		t.Fatalf("VersionsDeleted = %d, want 1", report.VersionsDeleted)
	}
	// 8 chunks and the descriptor x preferred quorum of 3 clouds = 27 objects.
	if report.ReclaimedObjects != 27 {
		t.Fatalf("ReclaimedObjects = %d, want 27", report.ReclaimedObjects)
	}
	if report.ReclaimedBytes < int64(8*chunk) {
		t.Fatalf("ReclaimedBytes = %d, want >= payload size %d", report.ReclaimedBytes, 8*chunk)
	}
}
