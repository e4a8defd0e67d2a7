package coord

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"scfs/internal/clock"
	"scfs/internal/depspace"
	"scfs/internal/telemetry"
)

// batchScript exercises every batchable command, with failures and with
// commands whose outcome depends on the ones before them, as two batches.
func batchScript() [][]Op {
	acl := ACL{Owner: "alice"}
	return [][]Op{{
		TryLock("/d/f", "agent-1", time.Minute),
		Get("/d/f"), // not there yet
		Put("/d/f", []byte("v1"), acl),
		Put("/d/g", []byte("g"), acl),
		Put("/other", []byte("o"), acl),
		Get("/d/f"),
		TryLock("/d/f", "agent-2", time.Minute), // held by agent-1
		Put("/d/f", []byte("v2"), acl),
		List("/d/"),
		Unlock("/d/f", "agent-2"), // not the holder: the lock stays
		Unlock("/d/f", "agent-1"),
	}, {
		Unlock("/d/f", "agent-1"), // already released
		TryLock("/d/f", "agent-2", time.Minute),
		Get("/d/f"),
		Delete("/d/g", 0),
		Cas("/d/h", []byte("h"), 0, acl),
		Cas("/d/h", []byte("h"), 0, acl), // exists now
	}}
}

// TestBatchEqualsSingleCallsAllBackends: a Batch returns, command for
// command, what the same calls return issued one after another — and for a
// Cas that clashes, the record it clashed with besides.
func TestBatchEqualsSingleCallsAllBackends(t *testing.T) {
	singles, batched := backends(t), backends(t)
	for name, svc := range singles {
		t.Run(name, func(t *testing.T) {
			var got, want []Result
			for _, ops := range batchScript() {
				for _, op := range ops {
					res, err := Do(bg, svc, op)
					if err != nil {
						t.Fatal(err)
					}
					want = append(want, res[0])
				}
				res, err := batched[name].Batch(bg, ops)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, res...)
			}
			if got[16].Record.Key != "/d/h" || string(got[16].Record.Value) != "h" {
				t.Errorf("second create-if-absent clashed with %+v, want /d/h's record", got[16].Record)
			}
			got[16].Record = Record{}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("command %d: batch %+v, single %+v", i, got[i], want[i])
				}
			}
			if !errors.Is(got[1].Err, ErrNotFound) || !errors.Is(got[6].Err, ErrLockHeld) || got[11].Err != nil || got[12].Err != nil {
				t.Errorf("outcomes: get-before-put %v, foreign lock %v, second unlock %v, lock after release %v", got[1].Err, got[6].Err, got[11].Err, got[12].Err)
			}
			if string(got[13].Record.Value) != "v2" || len(got[8].Records) != 2 {
				t.Errorf("final get %q, listing of /d/ has %d records", got[13].Record.Value, len(got[8].Records))
			}
			if got[14].Err != nil || got[15].Err != nil || !errors.Is(got[16].Err, ErrConflict) {
				t.Errorf("outcomes: delete %v, create-if-absent %v, second create-if-absent %v", got[14].Err, got[15].Err, got[16].Err)
			}
		})
	}
}

// TestBatchedTryLockRenewsOwnLease: re-acquiring a lock its owner already
// holds renews the lease, in a batch as in a single call.
func TestBatchedTryLockRenewsOwnLease(t *testing.T) {
	for name, svc := range backends(t) {
		t.Run(name, func(t *testing.T) {
			if err := svc.TryLock(bg, "/f", "agent-1", time.Minute); err != nil {
				t.Fatal(err)
			}
			res, err := svc.Batch(bg, []Op{TryLock("/f", "agent-1", time.Minute), Get("/missing")})
			if err != nil {
				t.Fatal(err)
			}
			if res[0].Err != nil || !errors.Is(res[1].Err, ErrNotFound) {
				t.Fatalf("renewal %v, get %v", res[0].Err, res[1].Err)
			}
			if err := svc.TryLock(bg, "/f", "agent-2", time.Minute); !errors.Is(err, ErrLockHeld) {
				t.Fatalf("foreign lock after a renewal: %v, want ErrLockHeld", err)
			}
		})
	}
}

// TestConditionalBatchCommands: a Delete or a Cas that names a version acts
// only on the record at that version. A stale one fails alone with
// ErrConflict and leaves the record as it was; on an absent record a Delete
// is no error and a Cas is ErrNotFound.
func TestConditionalBatchCommands(t *testing.T) {
	acl := ACL{Owner: "alice"}
	for name, svc := range backends(t) {
		t.Run(name, func(t *testing.T) {
			v1, err := svc.PutMetadata(bg, "/f", []byte("v1"), acl)
			if err != nil {
				t.Fatal(err)
			}
			res, err := svc.Batch(bg, []Op{
				Delete("/f", v1+1),
				Cas("/f", []byte("stale"), v1+1, acl),
				Get("/f"),
				Cas("/f", []byte("v2"), v1, acl),
				Delete("/f", v1), // the Cas moved the record on
				Get("/f"),
			})
			if err != nil {
				t.Fatal(err)
			}
			if !errors.Is(res[0].Err, ErrConflict) || !errors.Is(res[1].Err, ErrConflict) || string(res[2].Record.Value) != "v1" {
				t.Fatalf("stale delete %v, stale cas %v, record after them %q", res[0].Err, res[1].Err, res[2].Record.Value)
			}
			if res[3].Err != nil || res[3].Version == v1 || !errors.Is(res[4].Err, ErrConflict) || string(res[5].Record.Value) != "v2" {
				t.Fatalf("matching cas %v (version %d after %d), delete at the old version %v, record %q", res[3].Err, res[3].Version, v1, res[4].Err, res[5].Record.Value)
			}
			v2 := res[3].Version
			res, err = svc.Batch(bg, []Op{
				Delete("/f", v2),
				Get("/f"),
				Delete("/f", v2),
				Cas("/f", []byte("v3"), v2, acl),
				Cas("/f", []byte("v3"), 0, acl),
				Cas("/f", []byte("v4"), 0, acl),
			})
			if err != nil {
				t.Fatal(err)
			}
			if res[0].Err != nil || !errors.Is(res[1].Err, ErrNotFound) || res[2].Err != nil {
				t.Fatalf("matching delete %v, get after it %v, delete of the absent record %v", res[0].Err, res[1].Err, res[2].Err)
			}
			if !errors.Is(res[3].Err, ErrNotFound) || res[4].Err != nil || !errors.Is(res[5].Err, ErrConflict) {
				t.Fatalf("cas of the absent record %v, create %v, second create %v", res[3].Err, res[4].Err, res[5].Err)
			}
		})
	}
}

// TestCasClashReturnsTheRecord: a batched Cas that clashes answers with the
// record it clashed with, as a Get would — to a reader. Someone the record's
// ACL denies gets ErrDenied and no record, as from a Get.
func TestCasClashReturnsTheRecord(t *testing.T) {
	space := depspace.NewSpace()
	alice := NewDepSpaceService(depspace.NewClient(&depspace.LocalInvoker{Space: space}, "alice", nil))
	bob := NewDepSpaceService(depspace.NewClient(&depspace.LocalInvoker{Space: space}, "bob", nil))
	acl := ACL{Owner: "alice"}
	v, err := alice.PutMetadata(bg, "/f", []byte("v1"), acl)
	if err != nil {
		t.Fatal(err)
	}
	res, err := alice.Batch(bg, []Op{Cas("/f", []byte("new"), 0, acl), Cas("/f", []byte("new"), v+1, acl), Get("/f")})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res[:2] {
		if !errors.Is(r.Err, ErrConflict) || !reflect.DeepEqual(r.Record, res[2].Record) {
			t.Errorf("clashing cas %d: %v, record %+v; want ErrConflict and what Get returns, %+v", i, r.Err, r.Record, res[2].Record)
		}
	}
	res, err = bob.Batch(bg, []Op{Cas("/f", []byte("mine"), 0, ACL{Owner: "bob"}), Get("/f")})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res[0].Err, ErrDenied) || res[0].Record.Value != nil || !errors.Is(res[1].Err, ErrDenied) {
		t.Fatalf("bob's clashing cas: %v, record %+v; want ErrDenied and no record, as his Get (%v)", res[0].Err, res[0].Record, res[1].Err)
	}
}

// TestBatchIsOneAccess: whatever it carries, a batch is one round trip to
// the access counters and to the latency model; the registry counts its
// commands by class and the batch itself once more.
func TestBatchIsOneAccess(t *testing.T) {
	clk := clock.NewSim(time.Unix(0, 0))
	inner := NewDepSpaceService(depspace.NewClient(&depspace.LocalInvoker{Space: depspace.NewSpace()}, "alice", clk))
	reg := telemetry.NewRegistry()
	svc := Instrument(WithLatency(inner, LatencyOptions{MinRTT: 80 * time.Millisecond, MaxRTT: 80 * time.Millisecond, Clock: clk}), reg)

	done := make(chan error, 1)
	go func() {
		_, err := svc.Batch(bg, []Op{TryLock("/f", "a", time.Minute), Get("/f"), Put("/f", []byte("v"), ACL{}),
			Cas("/f", []byte("w"), 1, ACL{}), Delete("/f", 0), Unlock("/f", "a")})
		done <- err
	}()
	// One sleeper for the whole batch, released by one round trip's worth
	// of simulated time.
	deadline := time.Now().Add(5 * time.Second)
	for clk.Pending() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("latency wrapper did not sleep")
		}
		time.Sleep(100 * time.Microsecond)
	}
	clk.Advance(80 * time.Millisecond)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if s := svc.Stats(); s.Batches != 1 || s.Total() != 1 {
		t.Errorf("stats after one batch = %+v, want one access", s)
	}
	counters := reg.Snapshot().Counters
	for op, want := range map[string]int64{"batch": 1, "trylock": 1, "get": 1, "put": 1, "cas": 1, "delete": 1, "unlock": 1, "list": 0} {
		if got := counters[telemetry.Name("coord_ops_total", "op", op)]; got != want {
			t.Errorf("coord_ops_total op=%s is %d, want %d", op, got, want)
		}
	}
}
