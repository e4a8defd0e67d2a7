package metashard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"scfs/internal/coord"
	"scfs/internal/depspace"
)

var bg = context.Background()

func newShards(t *testing.T, n int) []coord.Service {
	t.Helper()
	shards := make([]coord.Service, n)
	for i := range shards {
		shards[i] = coord.NewDepSpaceService(
			depspace.NewClient(&depspace.LocalInvoker{Space: depspace.NewSpace()}, "agent", nil))
	}
	return shards
}

func newSharded(t *testing.T, n int, opts ...Option) *Service {
	t.Helper()
	s, err := New(newShards(t, n), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRoutingIsStable(t *testing.T) {
	s := newSharded(t, 4)
	for _, key := range []string{"a/b/c", "", "/", "x", "dir/file.txt"} {
		first := s.ShardFor(key)
		for i := 0; i < 10; i++ {
			if got := s.ShardFor(key); got != first {
				t.Fatalf("ShardFor(%q) flapped: %d then %d", key, first, got)
			}
		}
	}
	// Subtree mode co-locates a whole subtree.
	sub := newSharded(t, 4, WithSubtreePartition())
	base := sub.ShardFor("tree")
	for _, key := range []string{"tree/a", "tree/a/b", "tree/zzz", "/tree/lead-slash"} {
		if got := sub.ShardFor(key); got != base {
			t.Fatalf("subtree key %q routed to shard %d, root to %d", key, got, base)
		}
	}
}

func TestBasicOpsRouteAndRoundTrip(t *testing.T) {
	s := newSharded(t, 3)
	acl := coord.ACL{Owner: "agent"}
	keys := make([]string, 20)
	for i := range keys {
		keys[i] = fmt.Sprintf("dir-%d/file-%d", i%5, i)
		if _, err := s.PutMetadata(bg, keys[i], []byte(fmt.Sprintf("v%d", i)), acl); err != nil {
			t.Fatalf("put %s: %v", keys[i], err)
		}
	}
	used := map[int]bool{}
	for i, key := range keys {
		rec, err := s.GetMetadata(bg, key)
		if err != nil || string(rec.Value) != fmt.Sprintf("v%d", i) {
			t.Fatalf("get %s = %q, %v", key, rec.Value, err)
		}
		used[s.ShardFor(key)] = true
	}
	if len(used) < 2 {
		t.Fatalf("20 keys across 3 shards landed on %d shard(s); hash is not spreading", len(used))
	}
	if err := s.DeleteMetadata(bg, keys[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetMetadata(bg, keys[0]); !errors.Is(err, coord.ErrNotFound) {
		t.Fatalf("get after delete: %v, want ErrNotFound", err)
	}
}

func TestListMergeOrderIsDeterministic(t *testing.T) {
	acl := coord.ACL{Owner: "agent"}
	// Same data, different shard counts: the merged listing must be identical.
	var listings [][]string
	for _, n := range []int{1, 2, 5} {
		s := newSharded(t, n)
		for i := 0; i < 30; i++ {
			key := fmt.Sprintf("ls/%02d", (i*7)%30) // insertion order != key order
			if _, err := s.PutMetadata(bg, key, []byte("x"), acl); err != nil {
				t.Fatal(err)
			}
		}
		recs, err := s.ListMetadata(bg, "ls/")
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]string, len(recs))
		for i, r := range recs {
			keys[i] = r.Key
		}
		if !sort.StringsAreSorted(keys) {
			t.Fatalf("listing with %d shards is not key-sorted: %v", n, keys)
		}
		listings = append(listings, keys)
	}
	for i := 1; i < len(listings); i++ {
		if fmt.Sprint(listings[i]) != fmt.Sprint(listings[0]) {
			t.Fatalf("listing differs across shard counts:\n%v\nvs\n%v", listings[0], listings[i])
		}
	}
}

func TestConcurrentCasSameKeySameShard(t *testing.T) {
	s := newSharded(t, 4)
	acl := coord.ACL{Owner: "agent"}
	const key = "contended/key"
	ver, err := s.PutMetadata(bg, key, []byte("0"), acl)
	if err != nil {
		t.Fatal(err)
	}
	// 16 goroutines CAS the same key from the same observed version: exactly
	// one must win per round, which is only guaranteed if every CAS lands on
	// the same backend.
	const rounds = 8
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		var wins, conflicts int64
		var mu sync.Mutex
		var nextVer uint64
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				v, err := s.CasMetadata(bg, key, []byte(fmt.Sprintf("r%d-g%d", r, g)), ver, acl)
				mu.Lock()
				defer mu.Unlock()
				switch {
				case err == nil:
					wins++
					nextVer = v
				case errors.Is(err, coord.ErrConflict):
					conflicts++
				default:
					t.Errorf("cas: %v", err)
				}
			}(g)
		}
		wg.Wait()
		if wins != 1 || conflicts != 15 {
			t.Fatalf("round %d: %d winners, %d conflicts (want exactly 1 and 15)", r, wins, conflicts)
		}
		ver = nextVer
	}
}

func TestRenamePrefixAcrossShards(t *testing.T) {
	s := newSharded(t, 4)
	acl := coord.ACL{Owner: "agent"}
	for i := 0; i < 12; i++ {
		if _, err := s.PutMetadata(bg, fmt.Sprintf("src/f%02d", i), []byte(fmt.Sprintf("v%d", i)), acl); err != nil {
			t.Fatal(err)
		}
	}
	// "src-sibling" must NOT match the rename of "src" (separator rule).
	if _, err := s.PutMetadata(bg, "src-sibling", []byte("keep"), acl); err != nil {
		t.Fatal(err)
	}
	n, err := s.RenamePrefix(bg, "src", "dst")
	if err != nil {
		t.Fatal(err)
	}
	if n != 12 {
		t.Fatalf("renamed %d records, want 12", n)
	}
	for i := 0; i < 12; i++ {
		rec, err := s.GetMetadata(bg, fmt.Sprintf("dst/f%02d", i))
		if err != nil || string(rec.Value) != fmt.Sprintf("v%d", i) {
			t.Fatalf("dst/f%02d = %q, %v", i, rec.Value, err)
		}
		if _, err := s.GetMetadata(bg, fmt.Sprintf("src/f%02d", i)); !errors.Is(err, coord.ErrNotFound) {
			t.Fatalf("src/f%02d still present after rename (err=%v)", i, err)
		}
	}
	if rec, err := s.GetMetadata(bg, "src-sibling"); err != nil || string(rec.Value) != "keep" {
		t.Fatalf("src-sibling disturbed by rename: %q, %v", rec.Value, err)
	}
}

func TestSubtreeRenameDelegatesToOneShard(t *testing.T) {
	s := newSharded(t, 4, WithSubtreePartition())
	acl := coord.ACL{Owner: "agent"}
	for i := 0; i < 6; i++ {
		if _, err := s.PutMetadata(bg, fmt.Sprintf("tree/a/f%d", i), []byte("x"), acl); err != nil {
			t.Fatal(err)
		}
	}
	before := s.PerShardStats()
	n, err := s.RenamePrefix(bg, "tree/a", "tree/b")
	if err != nil || n != 6 {
		t.Fatalf("rename = %d, %v (want 6, nil)", n, err)
	}
	after := s.PerShardStats()
	// A delegated rename is one write on the owning shard — no fan-out.
	touched := 0
	for i := range before {
		if after[i] != before[i] {
			touched++
		}
	}
	if touched != 1 {
		t.Fatalf("subtree rename touched %d shards, want exactly 1", touched)
	}
	recs, err := s.ListMetadata(bg, "tree/b/")
	if err != nil || len(recs) != 6 {
		t.Fatalf("post-rename listing = %d records, %v", len(recs), err)
	}
}

// failingShard wraps a backend and fails writes on demand, to exercise the
// partial-failure contract of the cross-shard move.
type failingShard struct {
	coord.Service
	mu   sync.Mutex
	fail bool
}

func (f *failingShard) setFail(v bool) { f.mu.Lock(); f.fail = v; f.mu.Unlock() }

func (f *failingShard) failing() bool { f.mu.Lock(); defer f.mu.Unlock(); return f.fail }

func (f *failingShard) PutMetadata(ctx context.Context, key string, value []byte, acl coord.ACL) (uint64, error) {
	if f.failing() {
		return 0, errors.New("injected shard outage")
	}
	return f.Service.PutMetadata(ctx, key, value, acl)
}

func TestRenamePartialFailureContract(t *testing.T) {
	inner := newShards(t, 2)
	flaky := &failingShard{Service: inner[1]}
	s, err := New([]coord.Service{inner[0], flaky})
	if err != nil {
		t.Fatal(err)
	}
	acl := coord.ACL{Owner: "agent"}
	const total = 16
	for i := 0; i < total; i++ {
		if _, err := s.PutMetadata(bg, fmt.Sprintf("mv/%02d", i), []byte("x"), acl); err != nil {
			t.Fatal(err)
		}
	}
	flaky.setFail(true)
	n, err := s.RenamePrefix(bg, "mv", "moved")
	if err == nil {
		t.Fatal("rename succeeded with a shard down")
	}
	// Contract: the first n records are fully moved; re-issuing the rename
	// after the outage completes the move, and nothing is lost.
	flaky.setFail(false)
	n2, err := s.RenamePrefix(bg, "mv", "moved")
	if err != nil {
		t.Fatalf("re-issued rename: %v", err)
	}
	recs, err := s.ListMetadata(bg, "moved/")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != total {
		t.Fatalf("after recovery %d records under moved/, want %d (first pass %d, second %d)", len(recs), total, n, n2)
	}
	if left, _ := s.ListMetadata(bg, "mv/"); len(left) != 0 {
		t.Fatalf("%d records stranded under mv/ after recovery", len(left))
	}
}

// TestCrossShardRenamePreservesACLs pins the access-policy fix: the
// record-by-record cross-shard move must re-store each record under the ACL
// the source shard reported, not a blank (world-accessible) one.
func TestCrossShardRenamePreservesACLs(t *testing.T) {
	spaces := []*depspace.Space{depspace.NewSpace(), depspace.NewSpace(), depspace.NewSpace()}
	asPrincipal := func(who string) *Service {
		shards := make([]coord.Service, len(spaces))
		for i, sp := range spaces {
			shards[i] = coord.NewDepSpaceService(depspace.NewClient(&depspace.LocalInvoker{Space: sp}, who, nil))
		}
		s, err := New(shards)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	owner := asPrincipal("agent")
	intruder := asPrincipal("mallory")

	acl := coord.ACL{Owner: "agent"}
	const total = 10
	for i := 0; i < total; i++ {
		if _, err := owner.PutMetadata(bg, fmt.Sprintf("sec/f%02d", i), []byte("v"), acl); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := owner.RenamePrefix(bg, "sec", "prot"); err != nil || n != total {
		t.Fatalf("rename = %d, %v (want %d, nil)", n, err, total)
	}
	for i := 0; i < total; i++ {
		key := fmt.Sprintf("prot/f%02d", i)
		rec, err := owner.GetMetadata(bg, key)
		if err != nil {
			t.Fatalf("owner get %s: %v", key, err)
		}
		if rec.ACL.Owner != "agent" {
			t.Fatalf("record %s lost its ACL in the move: owner = %q, want %q", key, rec.ACL.Owner, "agent")
		}
		if _, err := intruder.GetMetadata(bg, key); err == nil {
			t.Fatalf("record %s became readable by another principal after the cross-shard move", key)
		}
	}
}

func TestSubtreeListTargetsOneShard(t *testing.T) {
	s := newSharded(t, 4, WithSubtreePartition())
	acl := coord.ACL{Owner: "agent"}
	for i := 0; i < 5; i++ {
		if _, err := s.PutMetadata(bg, fmt.Sprintf("/dir/f%d", i), []byte("x"), acl); err != nil {
			t.Fatal(err)
		}
	}
	before := s.PerShardStats()
	recs, err := s.ListMetadata(bg, "/dir/")
	if err != nil || len(recs) != 5 {
		t.Fatalf("list = %d records, %v", len(recs), err)
	}
	if !sort.SliceIsSorted(recs, func(a, b int) bool { return recs[a].Key < recs[b].Key }) {
		t.Fatal("single-shard listing not key-sorted")
	}
	after := s.PerShardStats()
	listed := 0
	for i := range before {
		listed += int(after[i].MetadataLists - before[i].MetadataLists)
	}
	if listed != 1 {
		t.Fatalf("subtree-pinned listing hit %d shards, want 1", listed)
	}
	// An incomplete top segment must still fan out.
	before = s.PerShardStats()
	if _, err := s.ListMetadata(bg, "/di"); err != nil {
		t.Fatal(err)
	}
	after = s.PerShardStats()
	listed = 0
	for i := range before {
		listed += int(after[i].MetadataLists - before[i].MetadataLists)
	}
	if listed != 4 {
		t.Fatalf("unpinned listing hit %d shards, want 4", listed)
	}
}

func TestLocksRouteByName(t *testing.T) {
	s := newSharded(t, 3)
	if err := s.TryLock(bg, "locks/a", "alice", time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := s.TryLock(bg, "locks/a", "bob", time.Minute); !errors.Is(err, coord.ErrLockHeld) {
		t.Fatalf("second owner acquired the lock: %v", err)
	}
	if err := s.Unlock(bg, "locks/a", "alice"); err != nil {
		t.Fatal(err)
	}
	if err := s.TryLock(bg, "locks/a", "bob", time.Minute); err != nil {
		t.Fatalf("lock not acquirable after unlock: %v", err)
	}
}

func TestStatsAggregation(t *testing.T) {
	s := newSharded(t, 3)
	acl := coord.ACL{Owner: "agent"}
	for i := 0; i < 9; i++ {
		if _, err := s.PutMetadata(bg, fmt.Sprintf("st/%d", i), []byte("x"), acl); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.ListMetadata(bg, "st/"); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.MetadataWrites != 9 {
		t.Fatalf("aggregated writes = %d, want 9", st.MetadataWrites)
	}
	if st.MetadataLists != 3 {
		t.Fatalf("aggregated lists = %d, want 3 (one per shard fan-out)", st.MetadataLists)
	}
	per := s.PerShardStats()
	var sum int64
	for _, p := range per {
		sum += p.Total()
	}
	if sum != st.Total() {
		t.Fatalf("per-shard totals sum %d != aggregate %d", sum, st.Total())
	}
}

func TestNewRejectsEmptyShardList(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("New(nil) succeeded")
	}
}

// twoShardKeys returns one key routed to each shard of a two-shard plane.
func twoShardKeys(t *testing.T, s *Service) (on0, on1 string) {
	t.Helper()
	for i := 0; on0 == "" || on1 == ""; i++ {
		if i > 1000 {
			t.Fatal("no key found for one of the shards")
		}
		key := fmt.Sprintf("dir/f%03d", i)
		if s.ShardFor(key) == 0 && on0 == "" {
			on0 = key
		} else if s.ShardFor(key) == 1 && on1 == "" {
			on1 = key
		}
	}
	return on0, on1
}

// TestBatchSpanningShards: a batch whose commands route to two shards comes
// back in request order, per-key order holds (a read behind a write of the
// same key sees it), and a listing merges every shard's records sorted.
func TestBatchSpanningShards(t *testing.T) {
	s := newSharded(t, 2)
	k0, k1 := twoShardKeys(t, s)
	acl := coord.ACL{Owner: "agent"}
	res, err := s.Batch(bg, []coord.Op{
		coord.TryLock(k1, "me", time.Minute),
		coord.Put(k0, []byte("zero"), acl),
		coord.Get(k1), // not there yet
		coord.Put(k1, []byte("one"), acl),
		coord.Get(k0),
		coord.Get(k1),
		coord.List("dir/"),
		coord.Unlock(k1, "me"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil || res[1].Err != nil || res[3].Err != nil || res[7].Err != nil {
		t.Fatalf("lock %v, puts %v %v, unlock %v", res[0].Err, res[1].Err, res[3].Err, res[7].Err)
	}
	if !errors.Is(res[2].Err, coord.ErrNotFound) {
		t.Errorf("get ahead of the put of its key: %v, want ErrNotFound", res[2].Err)
	}
	if string(res[4].Record.Value) != "zero" || string(res[5].Record.Value) != "one" {
		t.Errorf("gets returned %q and %q, want the shards' values in request order", res[4].Record.Value, res[5].Record.Value)
	}
	var listed []string
	for _, r := range res[6].Records {
		listed = append(listed, r.Key)
	}
	want := []string{k0, k1}
	sort.Strings(want)
	if res[6].Err != nil || fmt.Sprint(listed) != fmt.Sprint(want) {
		t.Errorf("listing = %v (%v), want %v", listed, res[6].Err, want)
	}
	// Each shard was accessed once.
	for i, st := range s.PerShardStats() {
		if st.Total() != 1 || st.Batches != 1 {
			t.Errorf("shard %d stats %+v, want one batch", i, st)
		}
	}
}

// TestBatchConditionalCommandsRouteByKey: a conditional Delete or Cas goes to
// its key's shard and is checked against the version that shard holds, so
// a batch spanning shards purges and rewrites each record only at the
// version it was read at.
func TestBatchConditionalCommandsRouteByKey(t *testing.T) {
	s := newSharded(t, 2)
	k0, k1 := twoShardKeys(t, s)
	acl := coord.ACL{Owner: "agent"}
	v0, err := s.PutMetadata(bg, k0, []byte("zero"), acl)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := s.PutMetadata(bg, k1, []byte("one"), acl)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Batch(bg, []coord.Op{
		coord.Delete(k0, v0+100), // stale
		coord.Cas(k1, []byte("one'"), v1, acl),
		coord.Delete(k0, v0),
		coord.Cas(k1, []byte("one''"), v1, acl), // stale: the Cas above moved it
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res[0].Err, coord.ErrConflict) || res[1].Err != nil || res[2].Err != nil || !errors.Is(res[3].Err, coord.ErrConflict) {
		t.Fatalf("stale delete %v, cas %v, delete %v, stale cas %v", res[0].Err, res[1].Err, res[2].Err, res[3].Err)
	}
	if _, err := s.GetMetadata(bg, k0); !errors.Is(err, coord.ErrNotFound) {
		t.Errorf("deleted record: %v, want ErrNotFound", err)
	}
	if rec, err := s.GetMetadata(bg, k1); err != nil || string(rec.Value) != "one'" {
		t.Errorf("rewritten record %q, %v", rec.Value, err)
	}
}

func (f *failingShard) Batch(ctx context.Context, ops []coord.Op) ([]coord.Result, error) {
	if f.failing() {
		return nil, errors.New("injected shard outage")
	}
	return f.Service.Batch(ctx, ops)
}

// TestBatchShardOutageFailsOwnCommandsOnly: the commands of a shard that
// cannot be reached fail; the other shard's commands keep their results,
// and a listing that needed the failed shard fails.
func TestBatchShardOutageFailsOwnCommandsOnly(t *testing.T) {
	inner := newShards(t, 2)
	flaky := &failingShard{Service: inner[1]}
	s, err := New([]coord.Service{inner[0], flaky})
	if err != nil {
		t.Fatal(err)
	}
	k0, k1 := twoShardKeys(t, s)
	flaky.setFail(true)
	res, err := s.Batch(bg, []coord.Op{
		coord.Put(k0, []byte("zero"), coord.ACL{}),
		coord.Put(k1, []byte("one"), coord.ACL{}),
		coord.List("dir/"),
		coord.Get(k0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil || string(res[3].Record.Value) != "zero" {
		t.Errorf("healthy shard: put %v, get %q", res[0].Err, res[3].Record.Value)
	}
	if res[1].Err == nil || res[2].Err == nil || res[2].Records != nil {
		t.Errorf("failed shard: put %v, listing %v with %d records", res[1].Err, res[2].Err, len(res[2].Records))
	}
}
