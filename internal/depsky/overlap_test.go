package depsky

import (
	"bytes"
	"context"
	"errors"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"scfs/internal/cloud"
	"scfs/internal/cloudsim"
	"scfs/internal/stream"
)

// rpc is one Get, Put or Delete a stagedClouds double saw, as an interval on
// its logical clock.
type rpc struct {
	op         string // "get", "put" or "delete"
	name       string
	start, end int64

	gate chan struct{} // closed by release
	fail error         // set before release: answer with it, skip the store
}

func (r *rpc) is(op, suffix string) bool { return r.op == op && strings.HasSuffix(r.name, suffix) }

// stagedClouds wraps the object stores of one manager. Every Get and Put is
// logged and parks before it reaches the store until the test releases it,
// so the test — not the scheduler — decides which requests are in flight
// together; with instant clouds one request could otherwise finish before
// its sibling on the next cloud has started. Deletes are logged, not parked.
type stagedClouds struct {
	mu    sync.Mutex
	clock int64
	log   []*rpc
	open  bool // stop parking: the test is done staging

	// arrived and finished carry every parked request as it parks and as
	// it returns; the capacity is more than any test here issues, so the
	// double never blocks on a test that stopped listening.
	arrived  chan *rpc
	finished chan *rpc
}

type stagedStore struct {
	cloud.ObjectStore
	s *stagedClouds
}

func newStagedClouds(inner []cloud.ObjectStore) (*stagedClouds, []cloud.ObjectStore) {
	s := &stagedClouds{arrived: make(chan *rpc, 256), finished: make(chan *rpc, 256)}
	out := make([]cloud.ObjectStore, len(inner))
	for i, c := range inner {
		out[i] = &stagedStore{ObjectStore: c, s: s}
	}
	return s, out
}

// begin logs a request; a Get or Put then parks until it is released or its
// context ends.
func (c *stagedStore) begin(ctx context.Context, op, name string) (*rpc, error) {
	r := &rpc{op: op, name: name, gate: make(chan struct{})}
	c.s.mu.Lock()
	c.s.clock++
	r.start = c.s.clock
	c.s.log = append(c.s.log, r)
	park := op != "delete" && !c.s.open
	c.s.mu.Unlock()
	if !park {
		return r, nil
	}
	c.s.arrived <- r
	select {
	case <-r.gate:
		return r, r.fail
	case <-ctx.Done():
		return r, ctx.Err()
	}
}

func (c *stagedStore) end(r *rpc) {
	c.s.mu.Lock()
	c.s.clock++
	r.end = c.s.clock
	c.s.mu.Unlock()
	if r.op != "delete" {
		c.s.finished <- r
	}
}

func (c *stagedStore) Get(ctx context.Context, name string) ([]byte, error) {
	r, err := c.begin(ctx, "get", name)
	defer c.end(r)
	if err != nil {
		return nil, err
	}
	return c.ObjectStore.Get(ctx, name)
}

func (c *stagedStore) Put(ctx context.Context, name string, data []byte) error {
	r, err := c.begin(ctx, "put", name)
	defer c.end(r)
	if err != nil {
		return err
	}
	return c.ObjectStore.Put(ctx, name, data)
}

func (c *stagedStore) Delete(ctx context.Context, name string) error {
	r, _ := c.begin(ctx, "delete", name)
	defer c.end(r)
	return c.ObjectStore.Delete(ctx, name)
}

// await returns the next n requests to park.
func (s *stagedClouds) await(t *testing.T, n int) []*rpc {
	t.Helper()
	return recvRPCs(t, s.arrived, n, "park")
}

// done waits until n parked requests have returned.
func (s *stagedClouds) done(t *testing.T, n int) {
	t.Helper()
	recvRPCs(t, s.finished, n, "return")
}

func recvRPCs(t *testing.T, ch chan *rpc, n int, what string) []*rpc {
	t.Helper()
	out := make([]*rpc, 0, n)
	for len(out) < n {
		select {
		case r := <-ch:
			out = append(out, r)
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d requests %sed: %v", len(out), n, what, describe(out))
		}
	}
	return out
}

func release(rs []*rpc) {
	for _, r := range rs {
		close(r.gate)
	}
}

func pick(rs []*rpc, op, suffix string) []*rpc {
	var out []*rpc
	for _, r := range rs {
		if r.is(op, suffix) {
			out = append(out, r)
		}
	}
	return out
}

func describe(rs []*rpc) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.op + " " + r.name
	}
	return out
}

// setOpen(true) stops parking: later requests go straight to the store.
func (s *stagedClouds) setOpen(open bool) {
	s.mu.Lock()
	s.open = open
	s.mu.Unlock()
}

// deletes returns the Deletes logged so far.
func (s *stagedClouds) deletes() []*rpc {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*rpc
	for _, r := range s.log {
		if r.op == "delete" {
			out = append(out, r)
		}
	}
	return out
}

// snapshot returns the Gets and Puts logged so far.
func (s *stagedClouds) snapshot() []*rpc {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*rpc
	for _, r := range s.log {
		if r.op != "delete" {
			out = append(out, r)
		}
	}
	return out
}

// depth is the critical-path depth as scfsbench's spans.chain computes
// depsky.rpc_rounds: the largest set of pairwise disjoint request intervals,
// found greedily by earliest end.
func depth(rs []*rpc) int {
	sorted := append([]*rpc(nil), rs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].end < sorted[j].end })
	n, end := 0, int64(-1)
	for _, r := range sorted {
		if r.start >= end {
			n++
			end = r.end
		}
	}
	return n
}

// kthEnd is the logical time by which k of rs had returned.
func kthEnd(rs []*rpc, k int) int64 {
	ends := make([]int64, len(rs))
	for i, r := range rs {
		ends[i] = r.end
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	return ends[k-1]
}

func stagedManager(t *testing.T, opts Options) (*stagedClouds, *Manager, []*cloudsim.Provider, []cloud.ObjectStore) {
	t.Helper()
	providers, inner := testClouds(t, 4)
	s, staged := newStagedClouds(inner)
	opts.Clouds, opts.F = staged, 1
	m, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, m, providers, inner
}

type writeResult struct {
	info VersionInfo
	err  error
}

func goWrite(m *Manager, unit string, data []byte) chan writeResult {
	res := make(chan writeResult, 1)
	go func() {
		info, err := m.Write(bg, unit, data)
		res <- writeResult{info, err}
	}()
	return res
}

// TestWriteOverlapsMetadataReadWithUpload: a write's metadata read and its
// block upload are one cloud round, the metadata write the second — 3n
// requests, critical-path depth 2 — and the metadata write waits for both.
func TestWriteOverlapsMetadataReadWithUpload(t *testing.T) {
	for _, first := range []string{"/c0", "/metadata"} {
		s, m, _, _ := stagedManager(t, Options{})
		res := goWrite(m, "u", []byte("two rounds"))

		// With every metadata GET parked, all n block PUTs are in flight.
		round1 := s.await(t, 8)
		gets, puts := pick(round1, "get", "/metadata"), pick(round1, "put", "/c0")
		if len(gets) != 4 || len(puts) != 4 {
			t.Fatalf("first round is %v, want 4 metadata GETs beside 4 block PUTs", describe(round1))
		}
		// Let one half of the round finish: no metadata PUT may follow
		// until the other half has too.
		now, later := puts, gets
		if first == "/metadata" {
			now, later = gets, puts
		}
		release(now)
		s.done(t, 3) // a quorum of them; the straggler may be cancelled instead
		if early := pick(s.snapshot(), "put", "/metadata"); len(early) != 0 {
			t.Fatalf("metadata PUT issued with the %s half of the round still parked", later[0].name)
		}
		release(later)
		round2 := s.await(t, 4)
		if len(pick(round2, "put", "/metadata")) != 4 {
			t.Fatalf("second round is %v, want 4 metadata PUTs", describe(round2))
		}
		release(round2)
		if r := <-res; r.err != nil || r.info.Number != 1 {
			t.Fatalf("Write = %+v, %v", r.info, r.err)
		}
		s.done(t, 12-3)

		all := s.snapshot()
		if len(all) != 12 {
			t.Fatalf("a small write issued %d requests, want 3n = 12: %v", len(all), describe(all))
		}
		if d := depth(all); d != 2 {
			t.Fatalf("critical-path depth = %d, want 2", d)
		}
		// On the logical clock: every metadata PUT started after a quorum of
		// block PUTs and a quorum of metadata GETs had returned.
		after := max(kthEnd(puts, 3), kthEnd(gets, 3))
		for _, r := range round2 {
			if r.start < after {
				t.Fatalf("metadata PUT at %d, quorums complete at %d", r.start, after)
			}
		}
	}
}

// TestWriteNumbersAfterTheMetadataItReads: the version number comes from the
// metadata read, however late it completes relative to the upload, and the
// entries it revealed are kept.
func TestWriteNumbersAfterTheMetadataItReads(t *testing.T) {
	s, m, _, inner := stagedManager(t, Options{})
	res := goWrite(m, "u", []byte("mine"))
	round1 := s.await(t, 8)
	release(pick(round1, "put", "/c0"))
	s.done(t, 3)

	// While the reads are parked, another writer stores two versions.
	other, err := New(Options{Clouds: inner, F: 1})
	if err != nil {
		t.Fatal(err)
	}
	var theirs []VersionInfo
	for _, v := range []string{"theirs 1", "theirs 2"} {
		info, err := other.Write(bg, "u", []byte(v))
		if err != nil {
			t.Fatal(err)
		}
		theirs = append(theirs, info)
	}

	release(pick(round1, "get", "/metadata"))
	release(s.await(t, 4))
	r := <-res
	if r.err != nil || r.info.Number != 3 {
		t.Fatalf("Write = number %d, %v; want 3, after the newest version the read revealed", r.info.Number, r.err)
	}
	versions, err := other.ListVersions(bg, "u")
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != 3 || versions[0].ID != theirs[0].ID || versions[1].ID != theirs[1].ID || versions[2].ID != r.info.ID {
		t.Fatalf("versions = %+v, want the other writer's two, then mine", versions)
	}
}

// TestFailedBlockQuorumWritesNoMetadata: when the blocks miss their quorum
// the write issues no metadata PUT, and deletes what it did upload.
func TestFailedBlockQuorumWritesNoMetadata(t *testing.T) {
	s, m, providers, _ := stagedManager(t, Options{})
	res := goWrite(m, "u", []byte("doomed"))
	round1 := s.await(t, 8)
	puts := pick(round1, "put", "/c0")
	// Two clouds store their block before two others refuse theirs.
	release(puts[:2])
	s.done(t, 2)
	puts[2].fail, puts[3].fail = cloud.ErrUnavailable, cloud.ErrUnavailable
	release(puts[2:])
	release(pick(round1, "get", "/metadata"))
	if r := <-res; !errors.Is(r.err, ErrQuorumWrite) {
		t.Fatalf("Write err = %v, want ErrQuorumWrite", r.err)
	}
	if meta := pick(s.snapshot(), "put", "/metadata"); len(meta) != 0 {
		t.Fatalf("%d metadata PUTs after a failed block quorum", len(meta))
	}
	for i, p := range providers {
		if n := p.ObjectCount(); n != 0 {
			t.Fatalf("cloud %d keeps %d objects of the failed write", i, n)
		}
	}
}

// TestFailedMetadataWriteKeepsItsObjects: a metadata write that misses its
// quorum has still landed on some clouds, and those copies list the version
// as the newest. Its objects must stay, or the unit is unreadable until the
// next write succeeds.
func TestFailedMetadataWriteKeepsItsObjects(t *testing.T) {
	s, m, _, inner := stagedManager(t, Options{})
	// The first version is written past the double, so that the counts
	// below are of the second write's requests alone.
	direct, err := New(Options{Clouds: inner, F: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := direct.Write(bg, "u", []byte("first")); err != nil {
		t.Fatal(err)
	}

	res := goWrite(m, "u", []byte("second"))
	release(s.await(t, 8))
	meta := s.await(t, 4)
	if p := pick(meta, "put", "/metadata"); len(p) != 4 {
		t.Fatalf("second round is %v, want the metadata PUTs", describe(meta))
	}
	// Two clouds store the new metadata before two others refuse it.
	release(meta[:2])
	s.done(t, 10)
	meta[2].fail, meta[3].fail = cloud.ErrUnavailable, cloud.ErrUnavailable
	release(meta[2:])
	if r := <-res; !errors.Is(r.err, ErrQuorumWrite) {
		t.Fatalf("Write err = %v, want ErrQuorumWrite", r.err)
	}
	if d := s.deletes(); len(d) != 0 {
		t.Fatalf("deleted %v after the metadata PUT was issued", describe(d))
	}

	// Every read quorum of three includes a copy that lists "second".
	s.setOpen(true)
	got, _, err := m.Read(bg, "u")
	if err != nil || string(got) != "second" {
		t.Fatalf("Read after the failed write = %q, %v; want the version its metadata copies list", got, err)
	}
}

// TestCancelledWriteIssuesNoMetadataPut: a ctx cancelled while the write
// waits at the join publishes nothing and deletes the uploaded blocks.
func TestCancelledWriteIssuesNoMetadataPut(t *testing.T) {
	s, m, providers, _ := stagedManager(t, Options{})
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	res := make(chan error, 1)
	go func() {
		_, err := m.Write(ctx, "u", []byte("abandoned"))
		res <- err
	}()
	round1 := s.await(t, 8)
	release(pick(round1, "put", "/c0"))
	s.done(t, 4)
	cancel() // the metadata GETs are still parked
	if err := <-res; !errors.Is(err, context.Canceled) {
		t.Fatalf("Write err = %v, want context.Canceled", err)
	}
	if meta := pick(s.snapshot(), "put", "/metadata"); len(meta) != 0 {
		t.Fatalf("%d metadata PUTs from a cancelled write", len(meta))
	}
	for i, p := range providers {
		if n := p.ObjectCount(); n != 0 {
			t.Fatalf("cloud %d keeps %d objects of the cancelled write", i, n)
		}
	}
}

// TestUploadThatStoredNothingDeletesNothing: a write that fails before its
// first PUT has no objects to discard and issues no DELETE.
func TestUploadThatStoredNothingDeletesNothing(t *testing.T) {
	s, m, _, _ := stagedManager(t, Options{ChunkSize: 1024})
	s.setOpen(true)
	boom := errors.New("boom")
	if _, err := m.WriteFrom(bg, "u", iotest.ErrReader(boom)); !errors.Is(err, boom) {
		t.Fatalf("WriteFrom err = %v, want the reader's", err)
	}
	if puts := pick(s.snapshot(), "put", ""); len(puts) != 0 {
		t.Fatalf("PUTs from a write with nothing to store: %v", describe(puts))
	}
	if d := s.deletes(); len(d) != 0 {
		t.Fatalf("deleted %v though nothing was stored", describe(d))
	}
}

func goWriteFrom(m *Manager, unit string, data []byte) chan writeResult {
	res := make(chan writeResult, 1)
	go func() {
		info, err := m.WriteFrom(bg, unit, bytes.NewReader(data))
		res <- writeResult{info, err}
	}()
	return res
}

// byName groups requests by object name.
func byName(rs []*rpc) map[string][]*rpc {
	out := make(map[string][]*rpc)
	for _, r := range rs {
		out[r.name] = append(out[r.name], r)
	}
	return out
}

// TestWriteFromOverlapsMetadataRead: a streamed write of four chunks keeps
// every encoded chunk in flight, so all of them upload beside the metadata
// read and the metadata write is the second round: 6n requests, depth 2.
func TestWriteFromOverlapsMetadataRead(t *testing.T) {
	const cs = 1024
	s, m, _, _ := stagedManager(t, Options{ChunkSize: cs})
	data := randBytes(t, 4*cs)
	res := goWriteFrom(m, "u", data)

	round1 := s.await(t, 20)
	gets, puts := pick(round1, "get", "/metadata"), pick(round1, "put", "")
	if chunks := byName(puts); len(gets) != 4 || len(puts) != 16 || len(chunks) != 4 {
		t.Fatalf("first round is %v, want the 4 metadata GETs beside the 16 PUTs of 4 chunks", describe(round1))
	}
	release(round1)
	round2 := s.await(t, 4)
	if p := pick(round2, "put", "/metadata"); len(p) != 4 {
		t.Fatalf("second round is %v, want the metadata PUTs", describe(round2))
	}
	release(round2)
	r := <-res
	if r.err != nil {
		t.Fatal(r.err)
	}
	s.done(t, 24)
	if d := depth(s.snapshot()); d != 2 {
		t.Fatalf("critical-path depth = %d, want 2", d)
	}
	for name, chunk := range byName(puts) {
		for _, meta := range round2 {
			if q := kthEnd(chunk, 3); meta.start < q {
				t.Fatalf("metadata PUT at %d, %s at its quorum at %d", meta.start, name, q)
			}
		}
	}

	s.setOpen(true)
	got, _, err := m.Read(bg, "u")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back: %v", err)
	}
}

// TestWriteFromKeepsAWindowOfChunksInFlight: a streamed write of twice
// stream.Window chunks never has more than stream.Window chunks' PUTs
// outstanding — a chunk starts uploading only when an earlier one reached its
// quorum — and every chunk is at n-f before the metadata PUT is issued.
func TestWriteFromKeepsAWindowOfChunksInFlight(t *testing.T) {
	const cs, chunks = 1024, 2 * stream.Window
	s, m, _, _ := stagedManager(t, Options{ChunkSize: cs})
	data := randBytes(t, chunks*cs)
	res := goWriteFrom(m, "u", data)

	round1 := s.await(t, 4+4*stream.Window)
	parked := byName(pick(round1, "put", ""))
	if len(parked) != stream.Window {
		t.Fatalf("%d chunks' PUTs parked beside the metadata read, want %d: %v", len(parked), stream.Window, describe(round1))
	}
	release(pick(round1, "get", "/metadata"))
	s.done(t, 4)
	// Every chunk that reaches its quorum admits exactly one more.
	for uploaded := 0; uploaded < chunks; uploaded++ {
		var name string
		for name = range parked {
			break
		}
		release(parked[name])
		s.done(t, 4)
		delete(parked, name)
		if uploaded+stream.Window >= chunks {
			continue
		}
		next := byName(s.await(t, 4))
		if len(next) != 1 {
			t.Fatalf("one chunk at its quorum admitted %d: %v", len(next), next)
		}
		for name, puts := range next {
			if parked[name] != nil || !puts[0].is("put", "") || strings.HasSuffix(name, "/metadata") {
				t.Fatalf("admitted %v, want the PUTs of a new chunk", describe(puts))
			}
			parked[name] = puts
		}
	}
	meta := s.await(t, 4)
	if p := pick(meta, "put", "/metadata"); len(p) != 4 {
		t.Fatalf("last round is %v, want the metadata PUTs", describe(meta))
	}
	release(meta)
	if r := <-res; r.err != nil || r.info.ChunkCount != chunks {
		t.Fatalf("WriteFrom = %+v, %v", r.info, r.err)
	}
	s.done(t, 4)

	// On the logical clock: when any chunk PUT started, at most stream.Window
	// chunks had started uploading and were still short of their quorum, and
	// the metadata PUTs started after the last quorum.
	all := byName(pick(s.snapshot(), "put", ""))
	delete(all, meta[0].name)
	if len(all) != chunks {
		t.Fatalf("PUTs of %d chunks, want %d", len(all), chunks)
	}
	for _, puts := range all {
		for _, p := range puts {
			uploading := 0
			for _, other := range all {
				began := other[0].start
				for _, o := range other {
					began = min(began, o.start)
				}
				if began <= p.start && p.start < kthEnd(other, 3) {
					uploading++
				}
			}
			if uploading > stream.Window {
				t.Fatalf("%d chunks uploading at %d, want <= %d", uploading, p.start, stream.Window)
			}
		}
		for _, mp := range meta {
			if q := kthEnd(puts, 3); mp.start < q {
				t.Fatalf("metadata PUT at %d, %s at its quorum at %d", mp.start, puts[0].name, q)
			}
		}
	}

	s.setOpen(true)
	got, _, err := m.Read(bg, "u")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back: %v", err)
	}
}

// stagedReader writes data past the double, as four chunks, and opens it for
// ranged reads through the double, releasing the open's metadata GETs.
func stagedReader(t *testing.T, data []byte) (*stagedClouds, *stream.Reader) {
	t.Helper()
	s, m, _, inner := stagedManager(t, Options{})
	direct, err := New(Options{Clouds: inner, F: 1, ChunkSize: len(data) / 4})
	if err != nil {
		t.Fatal(err)
	}
	info, err := direct.Write(bg, "u", data)
	if err != nil {
		t.Fatal(err)
	}
	opened := make(chan *stream.Reader, 1)
	go func() {
		r, _, err := m.OpenMatching(bg, "u", info.DataHash)
		if err != nil {
			t.Error(err)
		}
		opened <- r
	}()
	gets := s.await(t, 4)
	if g := pick(gets, "get", "/metadata"); len(g) != 4 {
		t.Fatalf("the open issued %v, want the 4 metadata GETs", describe(gets))
	}
	release(gets)
	s.done(t, 4)
	r := <-opened
	if r == nil {
		t.FailNow()
	}
	t.Cleanup(func() { r.Close() })
	return s, r
}

type readResult struct {
	n   int
	err error
}

func goReadAt(r *stream.Reader, p []byte) chan readResult {
	res := make(chan readResult, 1)
	go func() {
		n, err := r.ReadAtContext(bg, p, 0)
		res <- readResult{n, err}
	}()
	return res
}

// TestRangedReadFetchesItsChunksTogether: a read of a whole four-chunk
// version through a ranged open is the metadata round and one payload round —
// all 16 chunk GETs in flight together, 5n requests, depth 2.
func TestRangedReadFetchesItsChunksTogether(t *testing.T) {
	data := randBytes(t, 4*1024)
	s, r := stagedReader(t, data)
	got := make([]byte, len(data))
	res := goReadAt(r, got)

	gets := s.await(t, 16)
	if chunks := byName(pick(gets, "get", "")); len(chunks) != 4 || len(chunks[gets[0].name]) != 4 {
		t.Fatalf("payload round is %v, want the 16 GETs of 4 chunks", describe(gets))
	}
	release(gets)
	if rr := <-res; rr.err != nil || rr.n != len(data) || !bytes.Equal(got, data) {
		t.Fatalf("ReadAt = %d, %v", rr.n, rr.err)
	}
	s.done(t, 16)
	all := s.snapshot()
	if len(all) != 20 {
		t.Fatalf("open and read issued %d requests, want 5n = 20: %v", len(all), describe(all))
	}
	if d := depth(all); d != 2 {
		t.Fatalf("critical-path depth = %d, want 2", d)
	}
}

// TestRangedReadSurfacesTheFailingChunk: when one chunk of a multi-chunk read
// cannot be had, the read returns that chunk's verdict — quorum lost, or
// absent on every cloud — and the fetches of the other chunks are cancelled.
func TestRangedReadSurfacesTheFailingChunk(t *testing.T) {
	for _, tc := range []struct {
		name    string
		answers []error // of the four clouds asked for the failing chunk
		want    error
	}{
		{"quorum lost", []error{nil, cloud.ErrUnavailable, cloud.ErrUnavailable, cloud.ErrUnavailable}, ErrQuorumRead},
		{"absent everywhere", []error{cloud.ErrNotFound, cloud.ErrNotFound, cloud.ErrNotFound, cloud.ErrNotFound}, ErrVersionNotFound},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := randBytes(t, 4*1024)
			s, r := stagedReader(t, data)
			res := goReadAt(r, make([]byte, len(data)))
			gets := s.await(t, 16)
			var failing []*rpc
			for name, g := range byName(gets) {
				if strings.HasSuffix(name, "/c2") {
					failing = g
				}
			}
			for i, g := range failing {
				g.fail = tc.answers[i]
			}
			release(failing)
			// The other twelve GETs are still parked: only the cancellation
			// of the read can end them.
			rr := <-res
			if !errors.Is(rr.err, tc.want) || !strings.Contains(rr.err.Error(), "chunk 2") {
				t.Fatalf("ReadAt = %d, %v; want chunk 2's %v", rr.n, rr.err, tc.want)
			}
			s.done(t, 16)
		})
	}
}
