package coord

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"scfs/internal/clock"
	"scfs/internal/depspace"
)

var bg = context.Background()

// backends returns one instance of every coordination backend under test,
// each bound to the principal "alice".
func backends(t *testing.T) map[string]Service {
	t.Helper()
	ds := NewDepSpaceService(depspace.NewClient(&depspace.LocalInvoker{Space: depspace.NewSpace()}, "alice", nil))
	return map[string]Service{"depspace": ds}
}

func TestMetadataCRUDAllBackends(t *testing.T) {
	for name, svc := range backends(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := svc.GetMetadata(bg, "/f"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("missing key err = %v, want ErrNotFound", err)
			}
			v1, err := svc.PutMetadata(bg, "/f", []byte("meta-v1"), ACL{Owner: "alice"})
			if err != nil {
				t.Fatal(err)
			}
			rec, err := svc.GetMetadata(bg, "/f")
			if err != nil {
				t.Fatal(err)
			}
			if string(rec.Value) != "meta-v1" || rec.Version != v1 {
				t.Fatalf("rec = %+v, want value meta-v1 version %d", rec, v1)
			}
			v2, err := svc.PutMetadata(bg, "/f", []byte("meta-v2"), ACL{Owner: "alice"})
			if err != nil {
				t.Fatal(err)
			}
			if v2 <= v1 {
				t.Fatalf("version did not advance: %d -> %d", v1, v2)
			}
			if err := svc.DeleteMetadata(bg, "/f"); err != nil {
				t.Fatal(err)
			}
			if _, err := svc.GetMetadata(bg, "/f"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("after delete err = %v, want ErrNotFound", err)
			}
			if err := svc.DeleteMetadata(bg, "/f"); err != nil {
				t.Fatalf("deleting a missing record must be a no-op, got %v", err)
			}
		})
	}
}

func TestCasMetadataAllBackends(t *testing.T) {
	for name, svc := range backends(t) {
		t.Run(name, func(t *testing.T) {
			// Create-if-absent.
			v, err := svc.CasMetadata(bg, "/f", []byte("first"), 0, ACL{Owner: "alice"})
			if err != nil {
				t.Fatal(err)
			}
			// A second create-if-absent must conflict.
			if _, err := svc.CasMetadata(bg, "/f", []byte("second"), 0, ACL{Owner: "alice"}); !errors.Is(err, ErrConflict) {
				t.Fatalf("err = %v, want ErrConflict", err)
			}
			// Conditional update with correct version succeeds.
			v2, err := svc.CasMetadata(bg, "/f", []byte("third"), v, ACL{Owner: "alice"})
			if err != nil {
				t.Fatal(err)
			}
			// Stale version conflicts.
			if _, err := svc.CasMetadata(bg, "/f", []byte("fourth"), v, ACL{Owner: "alice"}); !errors.Is(err, ErrConflict) {
				t.Fatalf("stale cas err = %v, want ErrConflict", err)
			}
			rec, err := svc.GetMetadata(bg, "/f")
			if err != nil {
				t.Fatal(err)
			}
			if string(rec.Value) != "third" || rec.Version != v2 {
				t.Fatalf("rec = %+v", rec)
			}
		})
	}
}

func TestListMetadataAllBackends(t *testing.T) {
	for name, svc := range backends(t) {
		t.Run(name, func(t *testing.T) {
			keys := []string{"/docs/a", "/docs/b", "/pics/c"}
			for _, k := range keys {
				if _, err := svc.PutMetadata(bg, k, []byte(k), ACL{Owner: "alice"}); err != nil {
					t.Fatal(err)
				}
			}
			recs, err := svc.ListMetadata(bg, "/docs/")
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 2 {
				t.Fatalf("ListMetadata(/docs/) returned %d records, want 2", len(recs))
			}
			all, err := svc.ListMetadata(bg, "/")
			if err != nil {
				t.Fatal(err)
			}
			if len(all) != 3 {
				t.Fatalf("ListMetadata(/) returned %d records, want 3", len(all))
			}
		})
	}
}

// replySizer records the size of the last reply the tuple space gave.
type replySizer struct {
	depspace.LocalInvoker
	last int
}

func (r *replySizer) Invoke(ctx context.Context, cmd []byte) ([]byte, error) {
	reply, err := r.LocalInvoker.Invoke(ctx, cmd)
	r.last = len(reply)
	return reply, err
}

// TestListReplyIsProportionalToDirectory: the tuple space tests the prefix,
// so listing a directory of 12 costs the same reply whether the space holds
// those 12 tuples or 1200.
func TestListReplyIsProportionalToDirectory(t *testing.T) {
	listing := func(dirs int) int {
		inv := &replySizer{LocalInvoker: depspace.LocalInvoker{Space: depspace.NewSpace()}}
		svc := NewDepSpaceService(depspace.NewClient(inv, "alice", nil))
		for d := 0; d < dirs; d++ {
			for f := 0; f < 12; f++ {
				key := fmt.Sprintf("/d%02d/file%02d", d, f)
				if _, err := svc.PutMetadata(bg, key, []byte(key), ACL{Owner: "alice"}); err != nil {
					t.Fatal(err)
				}
			}
		}
		recs, err := svc.ListMetadata(bg, "/d00/")
		if err != nil || len(recs) != 12 {
			t.Fatalf("ListMetadata(/d00/) among %d directories = %d records, %v; want 12", dirs, len(recs), err)
		}
		return inv.last
	}
	alone, among := listing(1), listing(100)
	if diff := among - alone; diff*10 >= alone || -diff*10 >= alone {
		t.Fatalf("listing 12 of 12 tuples replied %d bytes, 12 of 1200 replied %d: not within 10%%", alone, among)
	}
}

func TestRenamePrefixAllBackends(t *testing.T) {
	for name, svc := range backends(t) {
		t.Run(name, func(t *testing.T) {
			for _, k := range []string{"/dir/a", "/dir/sub/b", "/dirx/c"} {
				if _, err := svc.PutMetadata(bg, k, []byte(k), ACL{Owner: "alice"}); err != nil {
					t.Fatal(err)
				}
			}
			n, err := svc.RenamePrefix(bg, "/dir", "/renamed")
			if err != nil {
				t.Fatal(err)
			}
			if n != 2 {
				t.Fatalf("renamed %d records, want 2", n)
			}
			if _, err := svc.GetMetadata(bg, "/renamed/a"); err != nil {
				t.Fatalf("renamed record missing: %v", err)
			}
			if _, err := svc.GetMetadata(bg, "/dirx/c"); err != nil {
				t.Fatalf("sibling with similar prefix must be untouched: %v", err)
			}
			if _, err := svc.GetMetadata(bg, "/dir/a"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("old key still present: %v", err)
			}
		})
	}
}

func TestLockingAllBackends(t *testing.T) {
	for name, svc := range backends(t) {
		t.Run(name, func(t *testing.T) {
			if err := svc.TryLock(bg, "/f", "agent-a", time.Minute); err != nil {
				t.Fatal(err)
			}
			// A different owner must be rejected.
			if err := svc.TryLock(bg, "/f", "agent-b", time.Minute); !errors.Is(err, ErrLockHeld) {
				t.Fatalf("second owner err = %v, want ErrLockHeld", err)
			}
			// Re-entrant acquisition by the holder renews the lock.
			if err := svc.TryLock(bg, "/f", "agent-a", time.Minute); err != nil {
				t.Fatalf("re-entrant lock err = %v", err)
			}
			// Unlock by a non-holder must not release it.
			if err := svc.Unlock(bg, "/f", "agent-b"); err == nil {
				if err2 := svc.TryLock(bg, "/f", "agent-b", time.Minute); !errors.Is(err2, ErrLockHeld) {
					t.Fatal("non-holder unlock released the lock")
				}
			}
			// Holder releases; other agent can now lock.
			if err := svc.Unlock(bg, "/f", "agent-a"); err != nil {
				t.Fatal(err)
			}
			if err := svc.TryLock(bg, "/f", "agent-b", time.Minute); err != nil {
				t.Fatalf("after release err = %v", err)
			}
			// Unlocking a never-held lock is a no-op.
			if err := svc.Unlock(bg, "/never", "agent-a"); err != nil {
				t.Fatalf("unlock of unknown lock err = %v", err)
			}
		})
	}
}

func TestEphemeralLockExpiresAfterCrash(t *testing.T) {
	// A crashed SCFS agent must not hold its locks forever (§2.5.1): the
	// ephemeral tuple expires after its TTL and another agent can lock.
	clk := clock.NewSim(time.Unix(0, 0))
	space := depspace.NewSpace()
	crashed := NewDepSpaceService(depspace.NewClient(&depspace.LocalInvoker{Space: space}, "crashed", clk))
	survivor := NewDepSpaceService(depspace.NewClient(&depspace.LocalInvoker{Space: space}, "survivor", clk))

	if err := crashed.TryLock(bg, "/f", "crashed-agent", 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := survivor.TryLock(bg, "/f", "survivor-agent", 30*time.Second); !errors.Is(err, ErrLockHeld) {
		t.Fatalf("err = %v, want ErrLockHeld", err)
	}
	// The crashed agent never unlocks; time passes beyond the TTL.
	clk.Advance(31 * time.Second)
	if err := survivor.TryLock(bg, "/f", "survivor-agent", 30*time.Second); err != nil {
		t.Fatalf("lock not acquirable after holder crash: %v", err)
	}
}

func TestDepSpaceACLEnforcedThroughService(t *testing.T) {
	space := depspace.NewSpace()
	alice := NewDepSpaceService(depspace.NewClient(&depspace.LocalInvoker{Space: space}, "alice", nil))
	bob := NewDepSpaceService(depspace.NewClient(&depspace.LocalInvoker{Space: space}, "bob", nil))

	if _, err := alice.PutMetadata(bg, "/private", []byte("x"), ACL{Owner: "alice"}); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.GetMetadata(bg, "/private"); !errors.Is(err, ErrDenied) {
		t.Fatalf("bob read err = %v, want ErrDenied", err)
	}
	if _, err := alice.PutMetadata(bg, "/shared", []byte("y"), ACL{Owner: "alice", Readers: []string{"bob"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.GetMetadata(bg, "/shared"); err != nil {
		t.Fatalf("bob read of shared record: %v", err)
	}
}

func TestStatsCountAccesses(t *testing.T) {
	svc := NewDepSpaceService(depspace.NewClient(&depspace.LocalInvoker{Space: depspace.NewSpace()}, "alice", nil))
	if _, err := svc.PutMetadata(bg, "/f", []byte("v"), ACL{}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.GetMetadata(bg, "/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.ListMetadata(bg, "/"); err != nil {
		t.Fatal(err)
	}
	if err := svc.TryLock(bg, "/f", "a", time.Minute); err != nil {
		t.Fatal(err)
	}
	s := svc.Stats()
	if s.MetadataReads != 1 || s.MetadataWrites != 1 || s.MetadataLists != 1 || s.LockOps != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Total() != 4 {
		t.Fatalf("Total = %d, want 4", s.Total())
	}
}

func TestWithLatencyChargesEveryAccess(t *testing.T) {
	clk := clock.NewSim(time.Unix(0, 0))
	inner := NewDepSpaceService(depspace.NewClient(&depspace.LocalInvoker{Space: depspace.NewSpace()}, "alice", clk))
	svc := WithLatency(inner, LatencyOptions{MinRTT: 80 * time.Millisecond, MaxRTT: 80 * time.Millisecond, Clock: clk})

	done := make(chan error, 1)
	go func() {
		_, err := svc.PutMetadata(bg, "/f", []byte("v"), ACL{})
		done <- err
	}()
	// The call must be parked on the simulated clock.
	deadline := time.Now().Add(5 * time.Second)
	for clk.Pending() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("latency wrapper did not sleep")
		}
		time.Sleep(100 * time.Microsecond)
	}
	select {
	case <-done:
		t.Fatal("call completed before latency elapsed")
	default:
	}
	clk.Advance(100 * time.Millisecond)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Stats pass through the wrapper.
	if svc.Stats().MetadataWrites != 1 {
		t.Fatalf("stats through wrapper = %+v", svc.Stats())
	}
}

func TestLatencyProfilesAreSane(t *testing.T) {
	coc := DefaultCoCLatency()
	if coc.MinRTT < 60*time.Millisecond || coc.MaxRTT > 100*time.Millisecond || coc.MinRTT > coc.MaxRTT {
		t.Fatalf("CoC latency profile out of the paper's 60-100ms band: %+v", coc)
	}
}

func TestConcurrentLockersSingleWinner(t *testing.T) {
	svc := NewDepSpaceService(depspace.NewClient(&depspace.LocalInvoker{Space: depspace.NewSpace()}, "agent", nil))
	const contenders = 16
	winners := make(chan int, contenders)
	doneCh := make(chan struct{})
	for i := 0; i < contenders; i++ {
		go func(i int) {
			if err := svc.TryLock(bg, "/f", fmt.Sprintf("agent-%d", i), time.Minute); err == nil {
				winners <- i
			}
			doneCh <- struct{}{}
		}(i)
	}
	for i := 0; i < contenders; i++ {
		<-doneCh
	}
	close(winners)
	count := 0
	for range winners {
		count++
	}
	if count != 1 {
		t.Fatalf("%d agents acquired the lock, want exactly 1", count)
	}
}
