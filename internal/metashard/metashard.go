// Package metashard shards the SCFS metadata namespace across N coordination
// backends, the scale-out the paper proposes for going beyond one
// coordination service (§4: "the namespace can be partitioned across several
// coordination service instances"). It implements coord.Service over a set of
// backends: single-key operations route to one shard by a stable partition
// function, ListMetadata fans out to every shard and merges deterministically,
// and RenamePrefix either delegates to one shard (when the partition function
// guarantees co-location) or falls back to a documented copy-then-delete move.
package metashard

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"time"

	"scfs/internal/coord"
	"scfs/internal/telemetry"
)

// Mode selects the partition function.
type Mode int

const (
	// HashMode routes each key independently by a stable hash of the whole
	// key. It balances best but scatters every directory across shards, so
	// RenamePrefix always takes the cross-shard move path.
	HashMode Mode = iota
	// SubtreeMode routes by the key's top path segment, co-locating a whole
	// subtree on one shard (the paper's partition-by-subtree suggestion).
	// RenamePrefix within a top segment — the common case: renames inside a
	// directory tree — delegates to that single shard and stays atomic.
	SubtreeMode
)

// Service multiplexes coord.Service over N shards. It is safe for concurrent
// use when its backends are.
type Service struct {
	shards []coord.Service
	mode   Mode
	// names are the per-shard span targets ("shard-0", ...), formatted once
	// at construction so the routing hot path never builds strings.
	names []string
}

var _ coord.Service = (*Service)(nil)

// Option configures the shard router.
type Option func(*Service)

// WithSubtreePartition switches the partition function from whole-key hashing
// to top-path-segment hashing.
func WithSubtreePartition() Option {
	return func(s *Service) { s.mode = SubtreeMode }
}

// New builds a sharded coordination service over the given backends. The
// backend order is the shard numbering and must be stable across agents
// sharing a namespace.
func New(shards []coord.Service, opts ...Option) (*Service, error) {
	if len(shards) == 0 {
		return nil, errors.New("metashard: at least one shard is required")
	}
	s := &Service{shards: shards, mode: HashMode, names: make([]string, len(shards))}
	for i := range shards {
		s.names[i] = fmt.Sprintf("shard-%d", i)
	}
	for _, o := range opts {
		o(s)
	}
	return s, nil
}

// routeSpan records the routing decision of one single-shard operation on
// the request's trace: which shard the key hashed to. A no-op for
// untraced requests (one context lookup).
func (s *Service) routeSpan(ctx context.Context, i int) {
	tr := telemetry.FromContext(ctx)
	if tr == nil {
		return
	}
	tr.Record(telemetry.Span{Name: "shard.route", Target: s.names[i], Outcome: telemetry.SpanOK})
}

// Shards returns the number of backends.
func (s *Service) Shards() int { return len(s.shards) }

// Backend names the sharded plane for telemetry labels (coord.BackendName).
func (s *Service) Backend() string { return "metashard" }

// topSegment returns the first path segment of a key ("" for keys with no
// segment, e.g. "/" or "").
func topSegment(key string) string {
	key = strings.TrimPrefix(key, "/")
	if i := strings.IndexByte(key, '/'); i >= 0 {
		return key[:i]
	}
	return key
}

// ShardFor returns the shard index a key routes to. Exported so tests (and
// operators debugging placement) can verify routing is stable.
func (s *Service) ShardFor(key string) int {
	h := fnv.New64a()
	switch s.mode {
	case SubtreeMode:
		h.Write([]byte(topSegment(key)))
	default:
		h.Write([]byte(key))
	}
	return int(h.Sum64() % uint64(len(s.shards)))
}

func (s *Service) shard(key string) coord.Service { return s.shards[s.ShardFor(key)] }

// GetMetadata implements coord.Service.
func (s *Service) GetMetadata(ctx context.Context, key string) (coord.Record, error) {
	i := s.ShardFor(key)
	s.routeSpan(ctx, i)
	return s.shards[i].GetMetadata(ctx, key)
}

// PutMetadata implements coord.Service.
func (s *Service) PutMetadata(ctx context.Context, key string, value []byte, acl coord.ACL) (uint64, error) {
	i := s.ShardFor(key)
	s.routeSpan(ctx, i)
	return s.shards[i].PutMetadata(ctx, key, value, acl)
}

// CasMetadata implements coord.Service. Because routing is a pure function of
// the key, every CAS on one key lands on the same shard, so the backend's
// compare-and-swap retains its linearizable conflict detection.
func (s *Service) CasMetadata(ctx context.Context, key string, value []byte, expectedVersion uint64, acl coord.ACL) (uint64, error) {
	i := s.ShardFor(key)
	s.routeSpan(ctx, i)
	return s.shards[i].CasMetadata(ctx, key, value, expectedVersion, acl)
}

// DeleteMetadata implements coord.Service.
func (s *Service) DeleteMetadata(ctx context.Context, key string) error {
	i := s.ShardFor(key)
	s.routeSpan(ctx, i)
	return s.shards[i].DeleteMetadata(ctx, key)
}

// listTargets returns the shards a prefix listing must consult, as the
// index range [lo, hi). In SubtreeMode a prefix that pins its whole top
// segment (it extends past a '/') can only match keys on that segment's
// shard, so directory listings stay single-shard; every other case fans out
// to all shards.
func (s *Service) listTargets(prefix string) (lo, hi int) {
	if s.mode == SubtreeMode {
		trimmed := strings.TrimPrefix(prefix, "/")
		if i := strings.IndexByte(trimmed, '/'); i > 0 {
			lo = s.ShardFor(prefix)
			return lo, lo + 1
		}
	}
	return 0, len(s.shards)
}

// ListMetadata implements coord.Service: it fans out to the relevant shards
// concurrently and merges the results sorted by key, so the merge order is
// deterministic regardless of shard count or reply arrival order.
func (s *Service) ListMetadata(ctx context.Context, prefix string) ([]coord.Record, error) {
	lo, hi := s.listTargets(prefix)
	targets := s.shards[lo:hi]
	if len(targets) == 1 {
		s.routeSpan(ctx, s.ShardFor(prefix))
		out, err := targets[0].ListMetadata(ctx, prefix)
		if err != nil {
			return nil, fmt.Errorf("metashard: list on shard %d: %w", s.ShardFor(prefix), err)
		}
		sort.Slice(out, func(a, b int) bool { return out[a].Key < out[b].Key })
		return out, nil
	}
	tr := telemetry.FromContext(ctx)
	var fanStart time.Time
	if tr != nil {
		fanStart = time.Now()
	}
	results := make([][]coord.Record, len(targets))
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i, sh := range targets {
		wg.Add(1)
		go func(i int, sh coord.Service) {
			defer wg.Done()
			results[i], errs[i] = sh.ListMetadata(ctx, prefix)
		}(i, sh)
	}
	wg.Wait()
	var out []coord.Record
	merr := error(nil)
	for i := range targets {
		if errs[i] != nil {
			merr = fmt.Errorf("metashard: list on shard %d: %w", i, errs[i])
			break
		}
		out = append(out, results[i]...)
	}
	if tr != nil {
		outc := telemetry.SpanOK
		if merr != nil {
			outc = telemetry.SpanError
		}
		tr.Record(telemetry.Span{
			Name:    "shard.fanout",
			Start:   fanStart,
			Dur:     time.Since(fanStart),
			Outcome: outc,
			Err:     merr,
			Ops:     len(targets),
		})
	}
	if merr != nil {
		return nil, merr
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Key < out[b].Key })
	return out, nil
}

// renameMatches applies the RenamePrefix matching rule shared by the
// backends: the exact key, or any key extending it past a path separator.
func renameMatches(key, oldPrefix string) bool {
	return key == oldPrefix || strings.HasPrefix(key, oldPrefix+"/")
}

// RenamePrefix implements coord.Service.
//
// In SubtreeMode, every key matching oldPrefix shares oldPrefix's top segment
// (the matching rule only extends a prefix past a '/'), so when source and
// destination route to the same shard the rename delegates to that backend
// and keeps whatever atomicity it provides.
//
// Otherwise — HashMode, or a cross-subtree rename — the records move one at a
// time: copy to the destination shard, then delete from the source shard, in
// ascending key order. The partial-failure contract: if the move fails after
// k records, the first k records exist only under their new keys, the failing
// record may exist under BOTH keys (copied but not yet deleted), and the rest
// are untouched under their old keys; the returned count is k. Re-issuing the
// same rename is safe and completes the move (already-moved records no longer
// match oldPrefix). Each copy re-stores the record under the ACL the source
// shard reported (coord.Record.ACL), so backend-enforced access policies
// survive the move on backends that expose them.
func (s *Service) RenamePrefix(ctx context.Context, oldPrefix, newPrefix string) (int, error) {
	if s.mode == SubtreeMode {
		src, dst := s.ShardFor(oldPrefix), s.ShardFor(newPrefix)
		if src == dst {
			s.routeSpan(ctx, src)
			return s.shards[src].RenamePrefix(ctx, oldPrefix, newPrefix)
		}
	}
	records, err := s.ListMetadata(ctx, oldPrefix)
	if err != nil {
		return 0, err
	}
	count := 0
	for _, r := range records {
		if !renameMatches(r.Key, oldPrefix) {
			continue
		}
		newKey := newPrefix + strings.TrimPrefix(r.Key, oldPrefix)
		if _, err := s.shard(newKey).PutMetadata(ctx, newKey, r.Value, r.ACL); err != nil {
			return count, fmt.Errorf("metashard: rename copy of %q: %w", r.Key, err)
		}
		if err := s.shard(r.Key).DeleteMetadata(ctx, r.Key); err != nil {
			return count, fmt.Errorf("metashard: rename delete of %q: %w", r.Key, err)
		}
		count++
	}
	return count, nil
}

// TryLock implements coord.Service; locks route by name like metadata keys,
// so one lock name always resolves to one backend.
func (s *Service) TryLock(ctx context.Context, name, owner string, ttl time.Duration) error {
	i := s.ShardFor(name)
	s.routeSpan(ctx, i)
	return s.shards[i].TryLock(ctx, name, owner, ttl)
}

// Unlock implements coord.Service.
func (s *Service) Unlock(ctx context.Context, name, owner string) error {
	i := s.ShardFor(name)
	s.routeSpan(ctx, i)
	return s.shards[i].Unlock(ctx, name, owner)
}

// Batch implements coord.Service: the batch is split into one sub-batch per
// shard, each holding that shard's commands in request order, the
// sub-batches travel concurrently, and the results come back in request
// order. Commands on one key — a lock and the record it guards — share a
// shard and so keep their order; commands on different shards have none. A
// listing joins the sub-batch of every shard it must consult and its
// records are merged as ListMetadata merges them. A shard whose access
// fails fails its own commands only.
func (s *Service) Batch(ctx context.Context, ops []coord.Op) ([]coord.Result, error) {
	sub := make([][]coord.Op, len(s.shards))
	from := make([][]int, len(s.shards)) // from[shard][j] = index in ops of sub[shard][j]
	for i, op := range ops {
		lo := s.ShardFor(op.Key)
		hi := lo + 1
		if op.Kind == coord.OpList {
			lo, hi = s.listTargets(op.Key)
		}
		for sh := lo; sh < hi; sh++ {
			sub[sh] = append(sub[sh], op)
			from[sh] = append(from[sh], i)
		}
	}
	results := make([][]coord.Result, len(s.shards))
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for sh := range s.shards {
		if len(sub[sh]) == 0 {
			continue
		}
		s.routeSpan(ctx, sh)
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			results[sh], errs[sh] = s.shards[sh].Batch(ctx, sub[sh])
		}(sh)
	}
	wg.Wait()

	out := make([]coord.Result, len(ops))
	for sh := range s.shards {
		for j, i := range from[sh] {
			var r coord.Result
			if errs[sh] != nil {
				r.Err = fmt.Errorf("metashard: batch on shard %d: %w", sh, errs[sh])
			} else {
				r = results[sh][j]
			}
			if out[i].Err == nil {
				// The first failing shard decides a fanned-out listing.
				out[i].Err = r.Err
			}
			out[i].Record, out[i].Version = r.Record, r.Version
			out[i].Records = append(out[i].Records, r.Records...)
		}
	}
	for i, op := range ops {
		if op.Kind != coord.OpList {
			continue
		}
		if out[i].Err != nil {
			out[i].Records = nil
			continue
		}
		recs := out[i].Records
		sort.Slice(recs, func(a, b int) bool { return recs[a].Key < recs[b].Key })
	}
	return out, nil
}

// Stats implements coord.Service, summing the access counters of every shard.
func (s *Service) Stats() coord.Stats {
	var total coord.Stats
	for _, sh := range s.shards {
		st := sh.Stats()
		total.MetadataReads += st.MetadataReads
		total.MetadataWrites += st.MetadataWrites
		total.MetadataLists += st.MetadataLists
		total.LockOps += st.LockOps
		total.Batches += st.Batches
	}
	return total
}

// PerShardStats returns each shard's own counters, index-aligned with the
// backend order passed to New — the observability hook for spotting hot
// shards.
func (s *Service) PerShardStats() []coord.Stats {
	out := make([]coord.Stats, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.Stats()
	}
	return out
}
