package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"scfs/internal/clock"
	"scfs/internal/coord"
	"scfs/internal/depspace"
	"scfs/internal/fsapi"
	"scfs/internal/storage"
)

// pnsMount mounts an agent of alice with a private name space over the
// deployment's clouds and the given coordination service.
func pnsMount(t *testing.T, d *deployment, id string, svc coord.Service, pns storage.PNSStore, clk clock.Clock) (*Agent, error) {
	t.Helper()
	a, err := New(bg, Options{
		User:         "alice",
		AgentID:      id,
		Mode:         Blocking,
		Coordination: svc,
		Storage:      storage.NewCloudOfClouds(d.mgr),
		PNSStorage:   pns,
		UsePNS:       true,
		DiskCacheDir: t.TempDir(),
		Clock:        clk,
	})
	if err == nil {
		t.Cleanup(func() { a.Unmount(bg) })
	}
	return a, err
}

// TestPNSLeaseIsRenewed: a mounted agent renews its private name space's
// lock on its own clock, so however long it stays mounted — here twice the
// lease — a second agent of the same user is still refused. The agent and
// the tuple space share one simulated clock, so an unrenewed lease expires.
func TestPNSLeaseIsRenewed(t *testing.T) {
	d := newDeployment(t)
	clk := clock.NewSim(time.Unix(1700000000, 0))
	svc := coord.NewDepSpaceService(depspace.NewClient(&depspace.LocalInvoker{Space: d.space}, "alice", clk))
	if _, err := pnsMount(t, d, "first", svc, storage.NewCoCPNS(d.mgr), clk); err != nil {
		t.Fatal(err)
	}
	// armed waits until the agent waits on the clock: its next renewal is
	// scheduled, and the one before it has finished.
	armed := func(elapsed time.Duration) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for clk.Pending() == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%v after the mount, no renewal of the name space's lease is scheduled", elapsed)
			}
			time.Sleep(time.Millisecond)
		}
	}
	const ttl = 60 * time.Second // the default LockTTL
	var elapsed time.Duration
	for elapsed < 2*ttl {
		armed(elapsed)
		clk.Advance(ttl / 6)
		elapsed += ttl / 6
	}
	armed(elapsed)
	if _, err := pnsMount(t, d, "second", svc, storage.NewCoCPNS(d.mgr), clk); !errors.Is(err, fsapi.ErrLocked) {
		t.Fatalf("a second agent of the user mounted %v after the first: %v, want ErrLocked", elapsed, err)
	}
}

// brokenPNS fails every read of the name space.
type brokenPNS struct{ storage.PNSStore }

func (brokenPNS) ReadPNS(context.Context, string) ([]byte, error) {
	return nil, errors.New("unreadable name space")
}

// TestFailedMountReleasesPNSLock: a mount that took the private name
// space's lock and then failed to load the name space releases the lock,
// so the user's next mount goes through at once instead of after the lease.
func TestFailedMountReleasesPNSLock(t *testing.T) {
	d := newDeployment(t)
	svc := coord.NewDepSpaceService(depspace.NewClient(&depspace.LocalInvoker{Space: d.space}, "alice", nil))
	if _, err := pnsMount(t, d, "failed", svc, brokenPNS{storage.NewCoCPNS(d.mgr)}, nil); err == nil {
		t.Fatal("a mount whose name space cannot be read succeeded")
	}
	if _, err := pnsMount(t, d, "next", svc, storage.NewCoCPNS(d.mgr), nil); err != nil {
		t.Fatalf("mounting after the failed mount: %v", err)
	}
}
