package coord

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"scfs/internal/clock"
)

// LatencyOptions describes the network path between an SCFS agent and the
// coordination service. The paper measures 60–100 ms per coordination-service
// access for the cloud-hosted deployments; the non-sharing mode pays nothing
// because it never contacts the service.
type LatencyOptions struct {
	// MinRTT and MaxRTT bound the per-access latency (uniformly sampled).
	MinRTT time.Duration
	MaxRTT time.Duration
	// Scale multiplies the sampled latency (0 means 1.0), mirroring the
	// cloudsim latency scale so whole experiments shrink uniformly.
	Scale float64
	// Clock defaults to the real clock.
	Clock clock.Clock
	// Seed seeds the sampler.
	Seed int64
}

// DefaultCoCLatency models the four-cloud replicated DepSpace deployment,
// whose client-observed latency is slightly higher because the BFT protocol
// needs a quorum of geographically spread replicas.
func DefaultCoCLatency() LatencyOptions {
	return LatencyOptions{MinRTT: 70 * time.Millisecond, MaxRTT: 100 * time.Millisecond}
}

// latencyService wraps a Service and sleeps for a sampled network round trip
// before every call; a Batch is one call.
type latencyService struct {
	inner Service
	opts  LatencyOptions
	clk   clock.Clock

	mu  sync.Mutex
	rng *rand.Rand
}

// WithLatency returns a Service identical to inner but charging the given
// access latency on every operation.
func WithLatency(inner Service, opts LatencyOptions) Service {
	if opts.Clock == nil {
		opts.Clock = clock.Real()
	}
	if opts.Scale == 0 {
		opts.Scale = 1.0
	}
	return &latencyService{
		inner: inner,
		opts:  opts,
		clk:   opts.Clock,
		rng:   rand.New(rand.NewSource(opts.Seed)),
	}
}

// sleep charges one sampled network round trip, returning early with
// ctx.Err() when the caller cancels mid-flight.
func (l *latencyService) sleep(ctx context.Context) error {
	min, max := l.opts.MinRTT, l.opts.MaxRTT
	if max < min {
		max = min
	}
	var d time.Duration
	l.mu.Lock()
	if max > min {
		d = min + time.Duration(l.rng.Int63n(int64(max-min)))
	} else {
		d = min
	}
	l.mu.Unlock()
	d = time.Duration(float64(d) * l.opts.Scale)
	return clock.SleepCtx(ctx, l.clk, d)
}

func (l *latencyService) GetMetadata(ctx context.Context, key string) (Record, error) {
	if err := l.sleep(ctx); err != nil {
		return Record{}, err
	}
	return l.inner.GetMetadata(ctx, key)
}

func (l *latencyService) PutMetadata(ctx context.Context, key string, value []byte, acl ACL) (uint64, error) {
	if err := l.sleep(ctx); err != nil {
		return 0, err
	}
	return l.inner.PutMetadata(ctx, key, value, acl)
}

func (l *latencyService) CasMetadata(ctx context.Context, key string, value []byte, expectedVersion uint64, acl ACL) (uint64, error) {
	if err := l.sleep(ctx); err != nil {
		return 0, err
	}
	return l.inner.CasMetadata(ctx, key, value, expectedVersion, acl)
}

func (l *latencyService) DeleteMetadata(ctx context.Context, key string) error {
	if err := l.sleep(ctx); err != nil {
		return err
	}
	return l.inner.DeleteMetadata(ctx, key)
}

func (l *latencyService) ListMetadata(ctx context.Context, prefix string) ([]Record, error) {
	if err := l.sleep(ctx); err != nil {
		return nil, err
	}
	return l.inner.ListMetadata(ctx, prefix)
}

func (l *latencyService) RenamePrefix(ctx context.Context, oldPrefix, newPrefix string) (int, error) {
	if err := l.sleep(ctx); err != nil {
		return 0, err
	}
	return l.inner.RenamePrefix(ctx, oldPrefix, newPrefix)
}

func (l *latencyService) TryLock(ctx context.Context, name, owner string, ttl time.Duration) error {
	if err := l.sleep(ctx); err != nil {
		return err
	}
	return l.inner.TryLock(ctx, name, owner, ttl)
}

func (l *latencyService) Unlock(ctx context.Context, name, owner string) error {
	if err := l.sleep(ctx); err != nil {
		return err
	}
	return l.inner.Unlock(ctx, name, owner)
}

func (l *latencyService) Batch(ctx context.Context, ops []Op) ([]Result, error) {
	if err := l.sleep(ctx); err != nil {
		return nil, err
	}
	return l.inner.Batch(ctx, ops)
}

func (l *latencyService) Stats() Stats { return l.inner.Stats() }
