package coord

import (
	"context"
	"time"

	"scfs/internal/telemetry"
)

// instrumented counts every coordination command into a telemetry registry
// as coord_ops_total{op} counters, one per operation class; a Batch counts
// once as op="batch" and once per command it carries under that command's
// class. The instruments are resolved once at construction; the
// per-command cost is one atomic add.
type instrumented struct {
	inner Service

	// byKind holds the counters of the batchable commands, indexed by
	// OpKind, for the plain call and the batched command alike.
	byKind        [OpCas + 1]*telemetry.Counter
	rename, batch *telemetry.Counter
}

var _ Service = (*instrumented)(nil)

// Instrument wraps a coordination service so every access increments
// coord_ops_total{op} in reg. A nil registry returns s unchanged. The
// wrapper forwards Stats (the paper's §4 access counters) untouched: the
// registry counters are the exported view of the same traffic, labeled by
// operation.
func Instrument(s Service, reg *telemetry.Registry) Service {
	if reg == nil || s == nil {
		return s
	}
	c := func(op string) *telemetry.Counter {
		return reg.Counter(telemetry.Name("coord_ops_total", "op", op))
	}
	i := &instrumented{inner: s, rename: c("rename"), batch: c("batch")}
	for k := OpGet; k <= OpCas; k++ {
		i.byKind[k] = c(k.String())
	}
	return i
}

// GetMetadata implements Service.
func (i *instrumented) GetMetadata(ctx context.Context, key string) (Record, error) {
	i.byKind[OpGet].Inc()
	return i.inner.GetMetadata(ctx, key)
}

// PutMetadata implements Service.
func (i *instrumented) PutMetadata(ctx context.Context, key string, value []byte, acl ACL) (uint64, error) {
	i.byKind[OpPut].Inc()
	return i.inner.PutMetadata(ctx, key, value, acl)
}

// CasMetadata implements Service.
func (i *instrumented) CasMetadata(ctx context.Context, key string, value []byte, expectedVersion uint64, acl ACL) (uint64, error) {
	i.byKind[OpCas].Inc()
	return i.inner.CasMetadata(ctx, key, value, expectedVersion, acl)
}

// DeleteMetadata implements Service.
func (i *instrumented) DeleteMetadata(ctx context.Context, key string) error {
	i.byKind[OpDelete].Inc()
	return i.inner.DeleteMetadata(ctx, key)
}

// ListMetadata implements Service.
func (i *instrumented) ListMetadata(ctx context.Context, prefix string) ([]Record, error) {
	i.byKind[OpList].Inc()
	return i.inner.ListMetadata(ctx, prefix)
}

// RenamePrefix implements Service.
func (i *instrumented) RenamePrefix(ctx context.Context, oldPrefix, newPrefix string) (int, error) {
	i.rename.Inc()
	return i.inner.RenamePrefix(ctx, oldPrefix, newPrefix)
}

// TryLock implements Service.
func (i *instrumented) TryLock(ctx context.Context, name, owner string, ttl time.Duration) error {
	i.byKind[OpTryLock].Inc()
	return i.inner.TryLock(ctx, name, owner, ttl)
}

// Unlock implements Service.
func (i *instrumented) Unlock(ctx context.Context, name, owner string) error {
	i.byKind[OpUnlock].Inc()
	return i.inner.Unlock(ctx, name, owner)
}

// Batch implements Service.
func (i *instrumented) Batch(ctx context.Context, ops []Op) ([]Result, error) {
	i.batch.Inc()
	for _, op := range ops {
		if int(op.Kind) < len(i.byKind) {
			i.byKind[op.Kind].Inc()
		}
	}
	return i.inner.Batch(ctx, ops)
}

// Stats implements Service.
func (i *instrumented) Stats() Stats { return i.inner.Stats() }
