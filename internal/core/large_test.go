package core

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scfs/internal/cloud"
	"scfs/internal/fsapi"
	"scfs/internal/storage"
)

// heldStore keeps, without copying, what the agent hands WriteVersion, so a
// test can measure the agent's own allocations and inspect what it uploaded.
// Its mounts are Blocking, so every close hands its buffer to WriteVersion,
// whatever its size: nothing reaches the embedded store's streamed write.
type heldStore struct {
	storage.VersionedStore
	mu   sync.Mutex
	last []byte
}

func (s *heldStore) WriteVersion(_ context.Context, _, _ string, data []byte) error {
	s.mu.Lock()
	s.last = data
	s.mu.Unlock()
	return nil
}

func (s *heldStore) written() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

// TestAppendsCopyTheFileAConstantNumberOfTimes: a file written by sixteen
// 1 MiB appends and closed costs the handle path less than four times its
// size in allocations (geometric growth, and the last close hands the
// contents to the upload instead of copying them); growing by exactly the
// new size on every append copied it 8.5 times over.
func TestAppendsCopyTheFileAConstantNumberOfTimes(t *testing.T) {
	const piece, pieces = 1 << 20, 16
	d := newDeployment(t)
	store := &heldStore{VersionedStore: storage.NewCloudOfClouds(d.mgr)}
	a, _ := d.agent(t, "a", func(o *Options) { o.Storage = store })
	data := randData(t, piece*pieces)

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h, err := a.Open(bg, "/appended", fsapi.ReadWrite|fsapi.Create)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(data); off += piece {
		if _, err := h.WriteAt(bg, data[off:off+piece], int64(off)); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Close(bg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)

	if !bytes.Equal(store.written(), data) {
		t.Fatal("uploaded contents differ from what was appended")
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d appends of %d MiB + close allocated %.1fx the file's size", pieces, piece>>20, float64(alloc)/float64(len(data)))
	if alloc >= 4*uint64(len(data)) {
		t.Fatalf("handle path allocated %d bytes for a %d-byte file, want < 4x", alloc, len(data))
	}
}

// TestSparseWritesReadZeros: the gap a write beyond the end leaves reads as
// zeros — also when the bytes under it once held data a truncate cut off.
func TestSparseWritesReadZeros(t *testing.T) {
	d := newDeployment(t)
	store := &heldStore{VersionedStore: storage.NewCloudOfClouds(d.mgr)}
	a, _ := d.agent(t, "a", func(o *Options) { o.Storage = store })
	h, err := a.Open(bg, "/sparse", fsapi.ReadWrite|fsapi.Create)
	if err != nil {
		t.Fatal(err)
	}
	ones := bytes.Repeat([]byte{0xFF}, 8192)
	if _, err := h.WriteAt(bg, ones[:10], 5000); err != nil { // off > len of an empty file
		t.Fatal(err)
	}
	if _, err := h.WriteAt(bg, ones, 0); err != nil {
		t.Fatal(err)
	}
	if err := h.Truncate(bg, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt(bg, []byte("tail"), 6000); err != nil { // inside the old capacity
		t.Fatal(err)
	}
	if err := h.Truncate(bg, 20000); err != nil { // beyond it
		t.Fatal(err)
	}
	want := make([]byte, 20000)
	copy(want, ones[:100])
	copy(want[6000:], "tail")
	got := make([]byte, len(want)+1)
	if n, _ := h.ReadAt(bg, got, 0); n != len(want) || !bytes.Equal(got[:n], want) {
		t.Fatalf("open handle reads %d bytes, match=%v", n, bytes.Equal(got[:n], want))
	}
	if err := h.Close(bg); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(store.written(), want) {
		t.Fatal("uploaded contents differ: a gap did not read as zeros")
	}
}

// TestCloseWithOtherHandlesOpenUploadsACopy: only the last close may hand the
// file's buffer to the upload; an earlier one uploads a snapshot that later
// writes through the handles still open do not reach.
func TestCloseWithOtherHandlesOpenUploadsACopy(t *testing.T) {
	d := newDeployment(t)
	store := &heldStore{VersionedStore: storage.NewCloudOfClouds(d.mgr)}
	a, _ := d.agent(t, "a", func(o *Options) { o.Storage = store })
	h1, err := a.Open(bg, "/two", fsapi.ReadWrite|fsapi.Create)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := a.Open(bg, "/two", fsapi.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h1.WriteAt(bg, []byte("first"), 0); err != nil {
		t.Fatal(err)
	}
	if err := h1.Close(bg); err != nil {
		t.Fatal(err)
	}
	snapshot := store.written()
	if _, err := h2.WriteAt(bg, []byte("FIRST"), 0); err != nil {
		t.Fatal(err)
	}
	if string(snapshot) != "first" {
		t.Fatalf("a write through the open handle changed the closed version to %q", snapshot)
	}
	if err := h2.Close(bg); err != nil {
		t.Fatal(err)
	}
	if got := store.written(); string(got) != "FIRST" {
		t.Fatalf("last close uploaded %q", got)
	}
}

// chunkGate parks the chunk GETs of the clouds it is installed on while it is
// closed, announcing each on arrived.
type chunkGate struct {
	closed  atomic.Bool
	arrived chan struct{}
	open    chan struct{}
}

type gatedCloud struct {
	cloud.ObjectStore
	g *chunkGate
}

func (c *gatedCloud) Get(ctx context.Context, name string) ([]byte, error) {
	if c.g.closed.Load() && !strings.HasSuffix(name, "/desc") {
		c.g.arrived <- struct{}{}
		select {
		case <-c.g.open:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return c.ObjectStore.Get(ctx, name)
}

// rangedCounter counts the ranged opens of a backend and the reads through
// the readers it returns.
type rangedCounter struct {
	*storage.CloudOfClouds
	opens, reads atomic.Int64
}

func (s *rangedCounter) OpenVersionAt(ctx context.Context, fileID, hash string) (storage.ReaderAtCloser, error) {
	s.opens.Add(1)
	r, err := s.CloudOfClouds.OpenVersionAt(ctx, fileID, hash)
	if err != nil {
		return nil, err
	}
	return &countedReader{ReaderAtCloser: r, s: s}, nil
}

type countedReader struct {
	storage.ReaderAtCloser
	s *rangedCounter
}

func (r *countedReader) ReadAtContext(ctx context.Context, p []byte, off int64) (int, error) {
	r.s.reads.Add(1)
	return r.ReaderAtCloser.ReadAtContext(ctx, p, off)
}

// TestReadFileOfAColdLargeFileIsOnePayloadRound: fsapi.ReadFile of a cold
// four-chunk file is one ranged open and one read through it, whose 16 chunk
// GETs are in flight together; no whole-object read happens, and the agent
// stays responsive meanwhile — a Stat on the same mount returns while the
// GETs are parked.
func TestReadFileOfAColdLargeFileIsOnePayloadRound(t *testing.T) {
	const chunk = 4096
	// Sized for every chunk GET the read may issue.
	gate := &chunkGate{arrived: make(chan struct{}, 16), open: make(chan struct{})}
	store := &rangedCounter{}
	a, _ := testAgentWith(t, chunk, 2*chunk,
		func(c cloud.ObjectStore) cloud.ObjectStore { return &gatedCloud{ObjectStore: c, g: gate} },
		func(s *storage.CloudOfClouds) storage.VersionedStore {
			store.CloudOfClouds = s
			return store
		})

	data := randData(t, 4*chunk)
	if err := fsapi.WriteFile(bg, a, "/big.bin", data); err != nil {
		t.Fatal(err)
	}
	a.memCache.Clear()
	a.diskCache.Clear()
	wholeBefore := a.Stats().CloudBytesDown

	gate.closed.Store(true)
	type result struct {
		data []byte
		err  error
	}
	res := make(chan result, 1)
	go func() {
		got, err := fsapi.ReadFile(bg, a, "/big.bin")
		res <- result{got, err}
	}()
	for i := 0; i < 16; i++ {
		select {
		case <-gate.arrived:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of the 16 chunk GETs were in flight together", i)
		}
	}
	if _, err := a.Stat(bg, "/big.bin"); err != nil {
		t.Fatalf("Stat while the chunk GETs are parked: %v", err)
	}
	close(gate.open)
	r := <-res
	if r.err != nil || !bytes.Equal(r.data, data) {
		t.Fatalf("ReadFile: %v, match=%v", r.err, bytes.Equal(r.data, data))
	}
	if opens, reads := store.opens.Load(), store.reads.Load(); opens != 1 || reads != 1 {
		t.Fatalf("ReadFile made %d ranged opens and %d reads through them, want 1 and 1", opens, reads)
	}
	if whole := a.Stats().CloudBytesDown - wholeBefore; whole != 0 {
		t.Fatalf("ReadFile pulled %d whole-object bytes", whole)
	}
}
