package coord

import (
	"context"
	"time"

	"scfs/internal/clock"
)

// Lease is a lock kept for as long as its holder needs it, however long
// that is: Hold takes the lock, renews it before its TTL runs out, and
// Release gives it back.
type Lease struct {
	svc         Service
	name, owner string
	stop        context.CancelFunc
	done        chan struct{}
}

// Hold takes the lock name for owner with the given TTL and renews it every
// third of the TTL on clk (a TryLock by the holder renews its lease) until
// Release, so the lease never lapses under a live holder. ctx bounds only
// the acquisition; a refused acquisition returns TryLock's error.
func Hold(ctx context.Context, svc Service, name, owner string, ttl time.Duration, clk clock.Clock) (*Lease, error) {
	if err := svc.TryLock(ctx, name, owner, ttl); err != nil {
		return nil, err
	}
	//scfslint:ignore ctxdiscipline lease-lifetime root, cancelled by Release
	renewCtx, stop := context.WithCancel(context.Background())
	l := &Lease{svc: svc, name: name, owner: owner, stop: stop, done: make(chan struct{})}
	go l.renew(renewCtx, ttl, clk)
	return l, nil
}

func (l *Lease) renew(ctx context.Context, ttl time.Duration, clk clock.Clock) {
	defer close(l.done)
	for {
		select {
		case <-ctx.Done():
			return
		case <-clk.After(ttl / 3):
		}
		// A failed renewal is retried at the next tick, still inside the
		// lease.
		_ = l.svc.TryLock(ctx, l.name, l.owner, ttl)
	}
}

// Release stops the renewals and unlocks. The caller's ctx may be done
// already (a forced unmount, a cancelled mount), so the unlock gets its own
// short deadline; an unlock that fails leaves the lock to its lease. A nil
// Lease releases nothing.
func (l *Lease) Release(ctx context.Context) {
	if l == nil {
		return
	}
	l.stop()
	<-l.done
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
	defer cancel()
	_ = l.svc.Unlock(ctx, l.name, l.owner)
}
