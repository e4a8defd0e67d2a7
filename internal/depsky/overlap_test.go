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
	"scfs/internal/seccrypto"
	"scfs/internal/stream"
)

// rpc is one Get, Put or Delete a stagedClouds double saw, as an interval on
// its logical clock.
type rpc struct {
	op         string // "get", "put" or "delete"
	name       string
	cloud      int
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
	s   *stagedClouds
	idx int
}

func newStagedClouds(inner []cloud.ObjectStore) (*stagedClouds, []cloud.ObjectStore) {
	s := &stagedClouds{arrived: make(chan *rpc, 256), finished: make(chan *rpc, 256)}
	out := make([]cloud.ObjectStore, len(inner))
	for i, c := range inner {
		out[i] = &stagedStore{ObjectStore: c, s: s, idx: i}
	}
	return s, out
}

// begin logs a request; a Get or Put then parks until it is released or its
// context ends.
func (c *stagedStore) begin(ctx context.Context, op, name string) (*rpc, error) {
	r := &rpc{op: op, name: name, cloud: c.idx, gate: make(chan struct{})}
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

// settled waits until every Get and Put logged so far has returned — a
// cancelled straggler returns on its own time — and returns them.
func (s *stagedClouds) settled(t *testing.T) []*rpc {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		all, open := s.snapshot(), 0
		s.mu.Lock()
		for _, r := range all {
			if r.end == 0 {
				open++
			}
		}
		s.mu.Unlock()
		if open == 0 {
			return all
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d requests never returned", open)
		}
	}
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

// TestWriteOverlapsMetadataReadWithUpload: a register write's head read and
// the upload of its descriptor objects are one cloud round, the head write
// the second — 3n requests, critical-path depth 2 — and the head write waits
// for both.
func TestWriteOverlapsMetadataReadWithUpload(t *testing.T) {
	for _, first := range []string{"put", "get"} {
		s, m, _, _ := stagedManager(t, Options{})
		res := goWrite(m, "u", []byte("two rounds"))

		// With every head GET parked, all n descriptor PUTs are in flight.
		round1 := s.await(t, 8)
		gets, puts := pick(round1, "get", "/head"), pick(round1, "put", "")
		if len(gets) != 4 || len(pick(puts, "put", "/desc")) != 4 {
			t.Fatalf("first round is %v, want 4 head GETs beside 4 descriptor PUTs", describe(round1))
		}
		// Let one half of the round finish: no head PUT may follow until the
		// other half has too.
		now, later := puts, gets
		if first == "get" {
			now, later = gets, puts
		}
		release(now)
		s.done(t, len(now))
		if early := pick(s.snapshot(), "put", "/head"); len(early) != 0 {
			t.Fatalf("head PUT issued with the %s half of the round still parked", later[0].op)
		}
		release(later)
		round2 := s.await(t, 4)
		if len(pick(round2, "put", "/head")) != 4 {
			t.Fatalf("second round is %v, want 4 head PUTs", describe(round2))
		}
		release(round2)
		if r := <-res; r.err != nil || r.info.DataHash != seccrypto.Hash([]byte("two rounds")) {
			t.Fatalf("Write = %+v, %v", r.info, r.err)
		}
		s.done(t, 12-len(now))

		all := s.snapshot()
		if len(all) != 12 {
			t.Fatalf("a small register write issued %d requests, want 3n = 12: %v", len(all), describe(all))
		}
		if d := depth(all); d != 2 {
			t.Fatalf("critical-path depth = %d, want 2", d)
		}
		// On the logical clock: every head PUT started after a quorum of
		// descriptor PUTs and of head GETs had returned.
		after := max(kthEnd(pick(puts, "put", "/desc"), 3), kthEnd(gets, 3))
		for _, r := range round2 {
			if r.start < after {
				t.Fatalf("head PUT at %d, quorums complete at %d", r.start, after)
			}
		}
	}
}

// storedHead returns the highest head of unit the clouds store.
func storedHead(t *testing.T, m *Manager, clouds []cloud.ObjectStore, unit string) head {
	t.Helper()
	var top head
	for _, c := range clouds {
		if raw, err := c.Get(bg, m.headName(unit)); err == nil {
			if h, ok := decodeHead(raw); ok && h.seq > top.seq {
				top = h
			}
		}
	}
	if top.seq == 0 {
		t.Fatal("no cloud holds a head")
	}
	return top
}

// TestWriteNumbersAfterTheMetadataItReads: the head's sequence number comes
// from the head read, however late it completes relative to the upload; and
// once the new head is in place, the versions the heads it read named are
// deleted.
func TestWriteNumbersAfterTheMetadataItReads(t *testing.T) {
	s, m, _, inner := stagedManager(t, Options{})
	res := goWrite(m, "u", []byte("mine"))
	round1 := s.await(t, 8)
	release(pick(round1, "put", ""))
	s.done(t, 4)

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

	release(pick(round1, "get", "/head"))
	heads := s.await(t, 4)
	s.setOpen(true)
	release(heads)
	r := <-res
	if r.err != nil {
		t.Fatal(r.err)
	}
	if h := storedHead(t, m, inner, "u"); h.seq != 3 || h.hash != r.info.DataHash {
		t.Fatalf("head = %+v, want seq 3 naming mine, after the newest head the read revealed", h)
	}
	versions, err := other.ListVersions(bg, "u")
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != 1 || versions[0] != r.info.DataHash {
		t.Fatalf("versions = %v, want only mine: each head write deletes what the heads it read named", versions)
	}
	if got, _, err := other.Read(bg, "u"); err != nil || string(got) != "mine" {
		t.Fatalf("Read = %q, %v; want mine", got, err)
	}
}

// TestFailedBlockQuorumWritesNoMetadata: when the blocks of one chunk miss
// their quorum, the write issues neither descriptor nor head PUTs, and
// deletes what it did upload.
func TestFailedBlockQuorumWritesNoMetadata(t *testing.T) {
	s, m, providers, _ := stagedManager(t, Options{ChunkSize: 4})
	res := goWrite(m, "u", []byte("doomed")) // two chunks
	round1 := s.await(t, 12)
	blocks := pick(round1, "put", "/c1")
	// Chunk 0 and two blocks of chunk 1 are stored before two clouds refuse
	// theirs.
	release(append(pick(round1, "put", "/c0"), blocks[:2]...))
	s.done(t, 6)
	blocks[2].fail, blocks[3].fail = cloud.ErrUnavailable, cloud.ErrUnavailable
	release(blocks[2:])
	release(pick(round1, "get", "/head"))
	if r := <-res; !errors.Is(r.err, ErrQuorumWrite) {
		t.Fatalf("Write err = %v, want ErrQuorumWrite", r.err)
	}
	if meta := append(pick(s.snapshot(), "put", "/head"), pick(s.snapshot(), "put", "/desc")...); len(meta) != 0 {
		t.Fatalf("%v after a failed block quorum", describe(meta))
	}
	for i, p := range providers {
		if n := p.ObjectCount(); n != 0 {
			t.Fatalf("cloud %d keeps %d objects of the failed write", i, n)
		}
	}
}

// TestFailedMetadataWriteKeepsItsObjects: a head write that misses its
// quorum has still landed on some clouds, and those heads name the version
// as the newest. Its objects must stay, and so must the version the old head
// names.
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
	heads := s.await(t, 4)
	if p := pick(heads, "put", "/head"); len(p) != 4 {
		t.Fatalf("second round is %v, want the head PUTs", describe(heads))
	}
	// Two clouds store the new head before two others refuse it.
	release(heads[:2])
	s.done(t, 10)
	heads[2].fail, heads[3].fail = cloud.ErrUnavailable, cloud.ErrUnavailable
	release(heads[2:])
	if r := <-res; !errors.Is(r.err, ErrQuorumWrite) {
		t.Fatalf("Write err = %v, want ErrQuorumWrite", r.err)
	}
	if d := s.deletes(); len(d) != 0 {
		t.Fatalf("deleted %v after the head PUT was issued", describe(d))
	}

	// Every read quorum of three includes a head that names "second".
	s.setOpen(true)
	got, _, err := m.Read(bg, "u")
	if err != nil || string(got) != "second" {
		t.Fatalf("Read after the failed write = %q, %v; want the version its heads name", got, err)
	}
	if got, _, err := m.ReadMatching(bg, "u", seccrypto.Hash([]byte("first"))); err != nil || string(got) != "first" {
		t.Fatalf("the old head's version = %q, %v; want it kept", got, err)
	}
}

// TestCancelledWriteIssuesNoMetadataPut: a ctx cancelled while the write
// waits at the join publishes no head. The version it stored stays, since
// the same contents may be what the current head names; nothing new names
// it.
func TestCancelledWriteIssuesNoMetadataPut(t *testing.T) {
	s, m, _, _ := stagedManager(t, Options{})
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	res := make(chan error, 1)
	go func() {
		_, err := m.Write(ctx, "u", []byte("abandoned"))
		res <- err
	}()
	round1 := s.await(t, 8)
	release(pick(round1, "put", ""))
	s.done(t, 4)
	cancel() // the head GETs are still parked
	if err := <-res; !errors.Is(err, context.Canceled) {
		t.Fatalf("Write err = %v, want context.Canceled", err)
	}
	if heads := pick(s.snapshot(), "put", "/head"); len(heads) != 0 {
		t.Fatalf("%d head PUTs from a cancelled write", len(heads))
	}
	if d := s.deletes(); len(d) != 0 {
		t.Fatalf("a cancelled write deleted %v", describe(d))
	}
	s.setOpen(true)
	if _, _, err := m.Read(bg, "u"); !errors.Is(err, ErrUnitNotFound) {
		t.Fatalf("Read after the cancelled write = %v, want ErrUnitNotFound", err)
	}
}

// TestUploadThatStoredNothingDeletesNothing: a write that fails before its
// first PUT has no objects to discard and issues no DELETE.
func TestUploadThatStoredNothingDeletesNothing(t *testing.T) {
	s, m, _, _ := stagedManager(t, Options{ChunkSize: 1024})
	s.setOpen(true)
	boom := errors.New("boom")
	if _, err := m.WriteFrom(bg, "u", seccrypto.Hash(nil), iotest.ErrReader(boom)); !errors.Is(err, boom) {
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
		info, err := m.WriteFrom(bg, unit, seccrypto.Hash(data), bytes.NewReader(data))
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

// TestWriteFromIsOneRound: a streamed write of one chunk is one round of n
// PUTs, each cloud's descriptor object holding its frame.
func TestWriteFromIsOneRound(t *testing.T) {
	s, m, _, _ := stagedManager(t, Options{ChunkSize: 1024})
	data := randBytes(t, 1000)
	res := goWriteFrom(m, "u", data)
	round1 := s.await(t, 4)
	if len(pick(round1, "put", "/desc")) != 4 {
		t.Fatalf("the round is %v, want the 4 descriptor PUTs", describe(round1))
	}
	release(round1)
	r := <-res
	if r.err != nil {
		t.Fatal(r.err)
	}
	s.done(t, 4)
	if all := s.snapshot(); len(all) != 4 || depth(all) != 1 {
		t.Fatalf("%d requests at depth %d, want 4 at depth 1: %v", len(all), depth(all), describe(all))
	}
	s.setOpen(true)
	if got, _, err := m.ReadMatching(bg, "u", r.info.DataHash); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back: %v", err)
	}
}

// TestWriteFromStoresChunksBeforeDescriptor: a streamed write of four chunks
// keeps every chunk in flight at once, and its descriptor objects go up only
// once each chunk has reached n-f clouds — so no cloud ever serves a
// descriptor whose chunks are not stored: two rounds, 5n requests.
func TestWriteFromStoresChunksBeforeDescriptor(t *testing.T) {
	const cs = 1024
	s, m, _, _ := stagedManager(t, Options{ChunkSize: cs})
	data := randBytes(t, 4*cs)
	res := goWriteFrom(m, "u", data)

	round1 := s.await(t, 16)
	if chunks := byName(pick(round1, "put", "")); len(chunks) != 4 || len(pick(round1, "put", "/desc")) != 0 {
		t.Fatalf("the first round is %v, want the 16 PUTs of 4 chunks", describe(round1))
	}
	// Each chunk reaches its quorum but one: no descriptor PUT yet.
	var last []*rpc
	for _, puts := range byName(round1) {
		release(puts[:2])
		last = append(last, puts[2])
	}
	s.done(t, 8)
	release(last[:3])
	s.done(t, 3)
	if desc := pick(s.snapshot(), "put", "/desc"); len(desc) != 0 {
		t.Fatalf("%v with a chunk short of its quorum", describe(desc))
	}
	release(last[3:])
	round2 := s.await(t, 4)
	if len(pick(round2, "put", "/desc")) != 4 {
		t.Fatalf("the second round is %v, want the 4 descriptor PUTs", describe(round2))
	}
	release(round2)
	r := <-res
	if r.err != nil {
		t.Fatal(r.err)
	}
	s.setOpen(true)
	if all := s.settled(t); len(all) != 20 || depth(all) != 2 {
		t.Fatalf("%d requests at depth %d, want 20 at depth 2: %v", len(all), depth(all), describe(all))
	}
	if got, _, err := m.ReadMatching(bg, "u", r.info.DataHash); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back: %v", err)
	}
}

// TestWriteFromKeepsAWindowOfChunksInFlight: a streamed write of twice
// stream.Window chunks never has more than stream.Window chunks' PUTs
// outstanding — a chunk starts uploading only when an earlier one reached its
// quorum — and the write returns only once every later chunk and then the
// descriptor objects are at n-f.
func TestWriteFromKeepsAWindowOfChunksInFlight(t *testing.T) {
	const cs, chunks = 1024, 2 * stream.Window
	s, m, _, _ := stagedManager(t, Options{ChunkSize: cs})
	data := randBytes(t, chunks*cs)
	res := goWriteFrom(m, "u", data)

	descName := m.descName("u", seccrypto.Hash(data))
	var desc []*rpc
	// admit collects parked PUTs until a chunk has all n of its own; the
	// descriptor's PUTs, should they come early, are set aside.
	admit := func(want int) map[string][]*rpc {
		got := make(map[string][]*rpc)
		for full := 0; full < want; {
			r := s.await(t, 1)[0]
			if r.name == descName {
				desc = append(desc, r)
				continue
			}
			if got[r.name] = append(got[r.name], r); len(got[r.name]) == 4 {
				full++
			}
		}
		return got
	}
	parked := admit(stream.Window)
	if len(parked) != stream.Window {
		t.Fatalf("%d chunks' PUTs parked, want %d: %v", len(parked), stream.Window, parked)
	}
	// Every chunk that reaches its quorum admits exactly one more.
	for uploaded := 0; uploaded < chunks; uploaded++ {
		var name string
		for name = range parked {
			break
		}
		release(parked[name])
		s.done(t, 4)
		delete(parked, name)
		if len(desc) > 0 {
			t.Fatalf("%v with %d chunks short of their quorum", describe(desc), chunks-uploaded)
		}
		if uploaded+stream.Window >= chunks {
			continue
		}
		next := admit(1)
		if len(next) != 1 {
			t.Fatalf("one chunk at its quorum admitted %d: %v", len(next), next)
		}
		for name, puts := range next {
			if parked[name] != nil || !puts[0].is("put", "") {
				t.Fatalf("admitted %v, want the PUTs of a new chunk", describe(puts))
			}
			parked[name] = puts
		}
	}
	if len(desc) < 4 {
		desc = append(desc, s.await(t, 4-len(desc))...)
	}
	if p := pick(desc, "put", "/desc"); len(p) != 4 {
		t.Fatalf("last PUTs are %v, want the descriptor's", describe(desc))
	}
	select {
	case r := <-res:
		t.Fatalf("WriteFrom returned before its descriptor was stored: %+v, %v", r.info, r.err)
	default:
	}
	release(desc)
	if r := <-res; r.err != nil || r.info.ChunkCount != chunks {
		t.Fatalf("WriteFrom = %+v, %v", r.info, r.err)
	}
	s.done(t, 4)

	// On the logical clock: when any chunk PUT started, at most stream.Window
	// chunks had started uploading and were still short of their quorum.
	all := byName(pick(s.snapshot(), "put", ""))
	delete(all, desc[0].name)
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
	}

	s.setOpen(true)
	got, _, err := m.ReadMatching(bg, "u", seccrypto.Hash(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back: %v", err)
	}
}

// TestSmallReadIsOneRound: a read of a version of one chunk is the GETs of
// the descriptor objects — n requests, depth 1 — and decodes the chunk only
// by the hashes of a certified descriptor: one copy is not enough.
func TestSmallReadIsOneRound(t *testing.T) {
	s, m, _, inner := stagedManager(t, Options{})
	direct, err := New(Options{Clouds: inner, F: 1})
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("one round")
	info := writeFrom(t, direct, "u", data)
	type readResult struct {
		data []byte
		err  error
	}
	res := make(chan readResult, 1)
	go func() {
		got, _, err := m.ReadMatching(bg, "u", info.DataHash)
		res <- readResult{got, err}
	}()
	round := s.await(t, 4)
	if len(pick(round, "get", "/desc")) != 4 {
		t.Fatalf("the read's round is %v, want 4 descriptor GETs", describe(round))
	}
	held := -1 // a cloud the write's cancelled straggler may have missed
	for i := range inner {
		if _, err := inner[i].Get(bg, m.descName("u", info.DataHash)); err == nil {
			held = i
			break
		}
	}
	for _, r := range round {
		if r.cloud == held {
			release([]*rpc{r})
		}
	}
	s.done(t, 1)
	select {
	case r := <-res:
		t.Fatalf("read returned on one copy: %q, %v", r.data, r.err)
	default:
	}
	for _, r := range round {
		if r.cloud != held {
			release([]*rpc{r})
		}
	}
	if r := <-res; r.err != nil || !bytes.Equal(r.data, data) {
		t.Fatalf("ReadMatching = %q, %v", r.data, r.err)
	}
	s.done(t, 3)
	if all := s.snapshot(); len(all) != 4 || depth(all) != 1 {
		t.Fatalf("%d requests at depth %d, want 4 at depth 1", len(all), depth(all))
	}
}

// TestIdenticalWritesInterleaved: two writes of the same bytes draw two keys,
// so one name holds two encodings. With their descriptor objects landing in a
// different order at each cloud — clouds 0 and 1 keep the first write's, 2
// and 3 the second's — each cloud's descriptor and frame still come from one
// write, each write has f+1 of them, and the version reads back.
func TestIdenticalWritesInterleaved(t *testing.T) {
	s, m, _, _ := stagedManager(t, Options{DisableQuorumCancel: true})
	data := []byte("the same bytes twice")
	first := goWriteFrom(m, "u", data)
	w1 := s.await(t, 4)
	second := goWriteFrom(m, "u", data)
	w2 := s.await(t, 4)
	onCloud := func(rs []*rpc, cloud int) *rpc {
		for _, r := range rs {
			if r.cloud == cloud {
				return r
			}
		}
		t.Fatalf("no PUT to cloud %d in %v", cloud, describe(rs))
		return nil
	}
	var early, late []*rpc
	for i, keep := range [][]*rpc{w1, w1, w2, w2} {
		other := w2
		if keep[0] == w2[0] {
			other = w1
		}
		early = append(early, onCloud(other, i))
		late = append(late, onCloud(keep, i))
	}
	release(early)
	s.done(t, 4)
	release(late)
	for _, res := range []chan writeResult{first, second} {
		if r := <-res; r.err != nil {
			t.Fatal(r.err)
		}
	}
	s.done(t, 4)
	s.setOpen(true)
	if got, _, err := m.ReadMatching(bg, "u", seccrypto.Hash(data)); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("ReadMatching after interleaved identical writes = %q, %v", got, err)
	}
}

// TestIdenticalRewriteLeavesTheStoredVersionReadable: a write of bytes
// already stored draws a new key and a new tag. While its later chunks go
// up, and after its descriptor round fails halfway — two clouds hold its
// descriptor objects, two the first write's — the version reads whole and
// ranged, also through a reader opened on the first write's descriptor
// before the rewrite began. The chunks each write stored under its tag stay
// until the version is deleted, which removes them all.
func TestIdenticalRewriteLeavesTheStoredVersionReadable(t *testing.T) {
	const cs = 1024
	s, m, providers, inner := stagedManager(t, Options{ChunkSize: cs})
	direct, err := New(Options{Clouds: inner, F: 1, ChunkSize: cs, DisableQuorumCancel: true})
	if err != nil {
		t.Fatal(err)
	}
	data := randBytes(t, 3*cs)
	hash := seccrypto.Hash(data)
	writeFrom(t, direct, "u", data)
	for _, p := range providers { // the write's stragglers land too
		for deadline := time.Now().Add(5 * time.Second); p.ObjectCount() < 4; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the first write's stragglers never landed")
			}
		}
	}
	early, _, err := direct.OpenMatching(bg, "u", hash)
	if err != nil {
		t.Fatal(err)
	}
	defer early.Close()
	readable := func(when string) {
		t.Helper()
		if got, _, err := direct.ReadMatching(bg, "u", hash); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s: ReadMatching = %v", when, err)
		}
		r, _, err := direct.OpenMatching(bg, "u", hash)
		if err != nil {
			t.Fatalf("%s: OpenMatching = %v", when, err)
		}
		defer r.Close()
		got := make([]byte, cs)
		if _, err := r.ReadAtContext(bg, got, 2*cs); err != nil || !bytes.Equal(got, data[2*cs:]) {
			t.Fatalf("%s: ranged read = %v", when, err)
		}
	}

	res := goWriteFrom(m, "u", data)
	chunks := s.await(t, 12)
	readable("with the rewrite's chunks in flight")
	release(chunks)
	desc := s.await(t, 4)
	if len(pick(desc, "put", "/desc")) != 4 {
		t.Fatalf("the rewrite's second round is %v, want its descriptor PUTs", describe(desc))
	}
	release(desc[:2])
	s.done(t, 14)
	readable("with half the descriptor objects replaced")
	desc[2].fail, desc[3].fail = cloud.ErrUnavailable, cloud.ErrUnavailable
	release(desc[2:])
	if r := <-res; !errors.Is(r.err, ErrQuorumWrite) {
		t.Fatalf("rewrite err = %v, want ErrQuorumWrite", r.err)
	}
	if d := s.deletes(); len(d) != 0 {
		t.Fatalf("a write whose descriptor round started deleted %v", describe(d))
	}
	readable("after the failed rewrite")

	s.setOpen(true)
	writeFrom(t, m, "u", data)
	readable("after a complete rewrite")
	got := make([]byte, len(data))
	if _, err := early.ReadAtContext(bg, got, 0); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("reader opened on the first write: %v", err)
	}
	if _, err := direct.DeleteVersion(bg, "u", hash); err != nil {
		t.Fatal(err)
	}
	for i, c := range inner {
		if objs, _ := c.List(bg, m.unitPrefix("u")); len(objs) != 0 {
			t.Errorf("cloud %d keeps %d objects of the deleted version", i, len(objs))
		}
	}
}

// stagedReader writes data past the double, as four chunks, and opens it for
// ranged reads through the double, releasing the open's descriptor GETs.
func stagedReader(t *testing.T, data []byte) (*stagedClouds, *stream.Reader) {
	t.Helper()
	s, m, _, inner := stagedManager(t, Options{})
	direct, err := New(Options{Clouds: inner, F: 1, ChunkSize: len(data) / 4})
	if err != nil {
		t.Fatal(err)
	}
	info := writeFrom(t, direct, "u", data)
	opened := make(chan *stream.Reader, 1)
	go func() {
		r, _, err := m.OpenMatching(bg, "u", info.DataHash)
		if err != nil {
			t.Error(err)
		}
		opened <- r
	}()
	gets := s.await(t, 4)
	if g := pick(gets, "get", "/desc"); len(g) != 4 {
		t.Fatalf("the open issued %v, want the 4 descriptor GETs", describe(gets))
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
// version through a ranged open is the descriptor round and one payload
// round — all 16 chunk GETs in flight together, 5n requests, depth 2.
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
	all := s.settled(t)
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
			s.settled(t)
		})
	}
}
