package bench

import (
	"context"
	"errors"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"scfs/internal/cloud"
	"scfs/internal/coord"
	"scfs/internal/smr"
	"scfs/internal/storage"
	"scfs/scfsbench/spans"
)

// The recording wrappers of the traced pass. Each sits at one boundary the
// benchmark can reach from outside the program, records a span around every
// call and counts what crossed. With a nil recorder they only count, which is
// what the transparency test relies on.

func outcome(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, context.Canceled):
		return "cancelled"
	case errors.Is(err, storage.ErrVersionNotFound), errors.Is(err, cloud.ErrNotFound), errors.Is(err, coord.ErrNotFound):
		return "notfound"
	default:
		return "error"
	}
}

// --- coordination service ---

// coordTap wraps the coord.Service the agent talks to.
type coordTap struct {
	coord.Service
	rec *spans.Recorder

	listCalls, listRecords, listBytes atomic.Int64
}

func (t *coordTap) span(ctx context.Context, name string) (context.Context, *spans.Active) {
	return t.rec.Start(ctx, spans.Coord, name)
}

func (t *coordTap) GetMetadata(ctx context.Context, key string) (coord.Record, error) {
	ctx, sp := t.span(ctx, "get")
	r, err := t.Service.GetMetadata(ctx, key)
	sp.End(int64(len(r.Value)), outcome(err))
	return r, err
}

func (t *coordTap) PutMetadata(ctx context.Context, key string, value []byte, acl coord.ACL) (uint64, error) {
	ctx, sp := t.span(ctx, "put")
	v, err := t.Service.PutMetadata(ctx, key, value, acl)
	sp.End(int64(len(value)), outcome(err))
	return v, err
}

func (t *coordTap) CasMetadata(ctx context.Context, key string, value []byte, expected uint64, acl coord.ACL) (uint64, error) {
	ctx, sp := t.span(ctx, "cas")
	v, err := t.Service.CasMetadata(ctx, key, value, expected, acl)
	sp.End(int64(len(value)), outcome(err))
	return v, err
}

func (t *coordTap) DeleteMetadata(ctx context.Context, key string) error {
	ctx, sp := t.span(ctx, "delete")
	err := t.Service.DeleteMetadata(ctx, key)
	sp.End(0, outcome(err))
	return err
}

func (t *coordTap) ListMetadata(ctx context.Context, prefix string) ([]coord.Record, error) {
	ctx, sp := t.span(ctx, "list")
	recs, err := t.Service.ListMetadata(ctx, prefix)
	var n int64
	for _, r := range recs {
		n += int64(len(r.Key) + len(r.Value))
	}
	t.listCalls.Add(1)
	t.listRecords.Add(int64(len(recs)))
	t.listBytes.Add(n)
	sp.End(n, outcome(err))
	return recs, err
}

func (t *coordTap) RenamePrefix(ctx context.Context, oldPrefix, newPrefix string) (int, error) {
	ctx, sp := t.span(ctx, "rename")
	n, err := t.Service.RenamePrefix(ctx, oldPrefix, newPrefix)
	sp.End(0, outcome(err))
	return n, err
}

func (t *coordTap) TryLock(ctx context.Context, name, owner string, ttl time.Duration) error {
	ctx, sp := t.span(ctx, "trylock")
	err := t.Service.TryLock(ctx, name, owner, ttl)
	sp.End(0, outcome(err))
	return err
}

func (t *coordTap) Unlock(ctx context.Context, name, owner string) error {
	ctx, sp := t.span(ctx, "unlock")
	err := t.Service.Unlock(ctx, name, owner)
	sp.End(0, outcome(err))
	return err
}

// --- invoker ---

// invokerTap wraps an smr.Invoker: above the coalescer it sees one
// invocation per tuple-space command, below it one per consensus round.
type invokerTap struct {
	inner smr.Invoker
	rec   *spans.Recorder
	name  string

	calls, cmdBytes, replyBytes atomic.Int64

	mu  sync.Mutex
	rtt []float64 // microseconds
}

func (t *invokerTap) Invoke(ctx context.Context, op []byte) ([]byte, error) {
	ctx, sp := t.rec.Start(ctx, spans.Invoker, t.name)
	start := time.Now()
	reply, err := t.inner.Invoke(ctx, op)
	d := time.Since(start)
	sp.End(int64(len(op)+len(reply)), outcome(err))
	t.calls.Add(1)
	t.cmdBytes.Add(int64(len(op)))
	t.replyBytes.Add(int64(len(reply)))
	t.mu.Lock()
	t.rtt = append(t.rtt, float64(d)/1e3)
	t.mu.Unlock()
	return reply, err
}

// --- storage ---

// storageTap wraps the cloud-of-clouds VersionedStore. It embeds the real
// value so the optional faces the agent type-asserts stay reachable.
type storageTap struct {
	*storage.CloudOfClouds
	rec *spans.Recorder

	reads, notFound atomic.Int64
}

var (
	_ storage.VersionedStore = (*storageTap)(nil)
	_ storage.StreamWriter   = (*storageTap)(nil)
	_ storage.RangeOpener    = (*storageTap)(nil)
	_ storage.VersionSweeper = (*storageTap)(nil)
	_ storage.VersionCoster  = (*storageTap)(nil)
)

func (t *storageTap) WriteVersion(ctx context.Context, fileID, hash string, data []byte) error {
	ctx, sp := t.rec.Start(ctx, spans.Storage, "write")
	err := t.CloudOfClouds.WriteVersion(ctx, fileID, hash, data)
	sp.End(int64(len(data)), outcome(err))
	return err
}

// countingReader measures how many bytes a streamed write consumed.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (t *storageTap) WriteVersionFrom(ctx context.Context, fileID, hash string, r io.Reader) error {
	ctx, sp := t.rec.Start(ctx, spans.Storage, "write_stream")
	cr := &countingReader{r: r}
	err := t.CloudOfClouds.WriteVersionFrom(ctx, fileID, hash, cr)
	sp.End(cr.n, outcome(err))
	return err
}

func (t *storageTap) read(err error) {
	t.reads.Add(1)
	if errors.Is(err, storage.ErrVersionNotFound) {
		t.notFound.Add(1)
	}
}

func (t *storageTap) ReadVersion(ctx context.Context, fileID, hash string) ([]byte, error) {
	ctx, sp := t.rec.Start(ctx, spans.Storage, "read")
	data, err := t.CloudOfClouds.ReadVersion(ctx, fileID, hash)
	t.read(err)
	sp.End(int64(len(data)), outcome(err))
	return data, err
}

func (t *storageTap) OpenVersionAt(ctx context.Context, fileID, hash string) (storage.ReaderAtCloser, error) {
	ctx, sp := t.rec.Start(ctx, spans.Storage, "open_ranged")
	r, err := t.CloudOfClouds.OpenVersionAt(ctx, fileID, hash)
	t.read(err)
	sp.End(0, outcome(err))
	if err != nil {
		return nil, err
	}
	return &rangedTap{ReaderAtCloser: r, rec: t.rec}, nil
}

func (t *storageTap) DeleteVersion(ctx context.Context, fileID, hash string) error {
	ctx, sp := t.rec.Start(ctx, spans.Storage, "delete")
	err := t.CloudOfClouds.DeleteVersion(ctx, fileID, hash)
	sp.End(0, outcome(err))
	return err
}

func (t *storageTap) ListVersions(ctx context.Context, fileID string) ([]string, error) {
	ctx, sp := t.rec.Start(ctx, spans.Storage, "list")
	out, err := t.CloudOfClouds.ListVersions(ctx, fileID)
	sp.End(0, outcome(err))
	return out, err
}

func (t *storageTap) DeleteVersionsBatch(ctx context.Context, batch map[string][]string) storage.SweepStats {
	ctx, sp := t.rec.Start(ctx, spans.Storage, "sweep")
	st := t.CloudOfClouds.DeleteVersionsBatch(ctx, batch)
	sp.End(st.ReclaimedBytes, "ok")
	return st
}

// rangedTap records the chunk fetches of a lazily opened large file, which
// happen under the ReadAt call and not under OpenVersionAt.
type rangedTap struct {
	storage.ReaderAtCloser
	rec *spans.Recorder
}

func (r *rangedTap) ReadAtContext(ctx context.Context, p []byte, off int64) (int, error) {
	ctx, sp := r.rec.Start(ctx, spans.Storage, "read_ranged")
	n, err := r.ReaderAtCloser.ReadAtContext(ctx, p, off)
	if err == io.EOF {
		sp.End(int64(n), "ok")
	} else {
		sp.End(int64(n), outcome(err))
	}
	return n, err
}

// --- cloud ---

// cloudTap wraps one provider account's cloud.ObjectStore.
type cloudTap struct {
	inner cloud.ObjectStore
	rec   *spans.Recorder

	requests, putBytes, getBytes atomic.Int64
}

var (
	_ cloud.ObjectStore = (*cloudTap)(nil)
	_ cloud.Meter       = (*cloudTap)(nil)
)

func (t *cloudTap) Provider() string { return t.inner.Provider() }
func (t *cloudTap) Account() string  { return t.inner.Account() }

// Usage implements cloud.Meter by forwarding to the provider's meter.
func (t *cloudTap) Usage() cloud.Usage {
	if m, ok := t.inner.(cloud.Meter); ok {
		return m.Usage()
	}
	return cloud.Usage{}
}

func (t *cloudTap) span(ctx context.Context, name string) (context.Context, *spans.Active) {
	t.requests.Add(1)
	return t.rec.Start(ctx, spans.Cloud, name)
}

func (t *cloudTap) Put(ctx context.Context, name string, data []byte) error {
	ctx, sp := t.span(ctx, "put")
	err := t.inner.Put(ctx, name, data)
	t.putBytes.Add(int64(len(data)))
	sp.End(int64(len(data)), outcome(err))
	return err
}

func (t *cloudTap) Get(ctx context.Context, name string) ([]byte, error) {
	ctx, sp := t.span(ctx, "get")
	data, err := t.inner.Get(ctx, name)
	t.getBytes.Add(int64(len(data)))
	sp.End(int64(len(data)), outcome(err))
	return data, err
}

func (t *cloudTap) Head(ctx context.Context, name string) (cloud.ObjectInfo, error) {
	ctx, sp := t.span(ctx, "head")
	info, err := t.inner.Head(ctx, name)
	sp.End(0, outcome(err))
	return info, err
}

func (t *cloudTap) Delete(ctx context.Context, name string) error {
	ctx, sp := t.span(ctx, "delete")
	err := t.inner.Delete(ctx, name)
	sp.End(0, outcome(err))
	return err
}

func (t *cloudTap) List(ctx context.Context, prefix string) ([]cloud.ObjectInfo, error) {
	ctx, sp := t.span(ctx, "list")
	out, err := t.inner.List(ctx, prefix)
	sp.End(0, outcome(err))
	return out, err
}

func (t *cloudTap) SetACL(ctx context.Context, name string, grants []cloud.Grant) error {
	ctx, sp := t.span(ctx, "setacl")
	err := t.inner.SetACL(ctx, name, grants)
	sp.End(0, outcome(err))
	return err
}

func (t *cloudTap) GetACL(ctx context.Context, name string) ([]cloud.Grant, error) {
	ctx, sp := t.span(ctx, "getacl")
	out, err := t.inner.GetACL(ctx, name)
	sp.End(0, outcome(err))
	return out, err
}

// --- counters ---

// reset zeroes the taps' counters and drops the spans recorded so far, so
// that what set-up and warm-up did is not counted.
func (t *taps) reset() {
	t.rec.Reset()
	t.coord.listCalls.Store(0)
	t.coord.listRecords.Store(0)
	t.coord.listBytes.Store(0)
	for _, inv := range []*invokerTap{t.upper, t.lower} {
		if inv != nil {
			inv.calls.Store(0)
			inv.cmdBytes.Store(0)
			inv.replyBytes.Store(0)
			inv.mu.Lock()
			inv.rtt = nil
			inv.mu.Unlock()
		}
	}
	for _, s := range t.storage {
		s.reads.Store(0)
		s.notFound.Store(0)
	}
	for _, c := range t.clouds {
		c.requests.Store(0)
		c.putBytes.Store(0)
		c.getBytes.Store(0)
	}
}

// invokerCounts is what one invoker tap saw.
type invokerCounts struct {
	calls, cmdBytes, replyBytes float64
	rtt                         []float64 // sorted, microseconds
}

// tapCounts is a copy of the taps' counters since the last reset.
type tapCounts struct {
	listCalls, listRecords, listBytes float64
	// commands is the number of tuple-space commands the coordination
	// client invoked; wire is the consensus side of the invoker boundary:
	// the tap below the coalescer where there is one, the only tap otherwise.
	commands                          float64
	wire                              invokerCounts
	reads, notFound                   float64
	cloudRequests, putBytes, getBytes float64
}

func (t *taps) counts() tapCounts {
	n := tapCounts{
		listCalls:   float64(t.coord.listCalls.Load()),
		listRecords: float64(t.coord.listRecords.Load()),
		listBytes:   float64(t.coord.listBytes.Load()),
		commands:    float64(t.upper.calls.Load()),
	}
	wire := t.upper
	if t.lower != nil {
		wire = t.lower
	}
	wire.mu.Lock()
	n.wire = invokerCounts{
		calls:      float64(wire.calls.Load()),
		cmdBytes:   float64(wire.cmdBytes.Load()),
		replyBytes: float64(wire.replyBytes.Load()),
		rtt:        append([]float64(nil), wire.rtt...),
	}
	wire.mu.Unlock()
	sort.Float64s(n.wire.rtt)
	for _, s := range t.storage {
		n.reads += float64(s.reads.Load())
		n.notFound += float64(s.notFound.Load())
	}
	for _, c := range t.clouds {
		n.cloudRequests += float64(c.requests.Load())
		n.putBytes += float64(c.putBytes.Load())
		n.getBytes += float64(c.getBytes.Load())
	}
	return n
}
