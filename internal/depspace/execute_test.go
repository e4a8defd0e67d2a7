package depspace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"scfs/internal/smr"
)

// execute runs one command on the space as the replicas would.
func execute(t testing.TB, s *Space, cmd Command) Result {
	t.Helper()
	b, err := json.Marshal(cmd)
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	if err := json.Unmarshal(s.Execute(b), &res); err != nil {
		t.Fatalf("reply to %s does not decode as a Result: %v", b, err)
	}
	return res
}

// TestNegativeFieldIndexIsMalformed: a field index below zero used to index
// e.Tuple[-1] inside Execute — a panic on every replica, from one client
// command. It is a malformed command.
func TestNegativeFieldIndexIsMalformed(t *testing.T) {
	s := NewSpace()
	execute(t, s, Command{Op: opOut, Tuple: Tuple{"meta", "/dir/a", "h"}})
	for _, cmd := range []Command{
		{Op: opRename, FieldIndex: -1, OldPrefix: "/dir", NewPrefix: "/x"},
		{Op: opRdAll, Template: Tuple{"meta", Wildcard, Wildcard}, FieldIndex: -1, Prefix: "/dir"},
	} {
		if res := execute(t, s, cmd); res.OK || res.Err != ErrBadCommand {
			t.Errorf("%s with field index -1: ok=%v err=%q, want %q", cmd.Op, res.OK, res.Err, ErrBadCommand)
		}
	}
	if res := execute(t, s, CmdRdp(Tuple{"meta", "/dir/a", Wildcard})); !res.OK {
		t.Fatalf("tuple gone after the rejected commands: %q", res.Err)
	}
}

// TestRenameDeniedRewritesNothing: rename used to stop at the first matching
// tuple the requester may not write, having already rewritten the ones before
// it. A denied rename leaves the space as it found it.
func TestRenameDeniedRewritesNothing(t *testing.T) {
	alice, space, _ := newLocalClient("alice")
	bob := NewClient(&LocalInvoker{Space: space}, "bob", nil)
	for _, p := range []string{"/dir/a", "/dir/b"} {
		if _, err := alice.Out(bg, Tuple{"meta", p, "h"}, ACL{Owner: "alice"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := bob.Out(bg, Tuple{"meta", "/dir/c", "h"}, ACL{Owner: "bob"}); err != nil {
		t.Fatal(err)
	}
	before := space.Snapshot()
	if n, err := alice.Rename(bg, 1, "/dir", "/renamed"); !errors.Is(err, ErrDenied) {
		t.Fatalf("rename over bob's tuple = %d, %v; want ErrDenied", n, err)
	}
	if after := space.Snapshot(); string(after) != string(before) {
		t.Fatalf("a denied rename changed the space:\nbefore %s\nafter  %s", before, after)
	}
}

// TestRdAllPrefix: the prefix is one more test on the matching tuples, made
// at the replica; without one the command lists as it always did.
func TestRdAllPrefix(t *testing.T) {
	s := NewSpace()
	for _, p := range []string{"/a/1", "/a/2", "/ab", "/b/1"} {
		execute(t, s, Command{Op: opOut, Tuple: Tuple{"meta", p, "h"}})
	}
	execute(t, s, Command{Op: opOut, Tuple: Tuple{"lock", "/a/1", "owner"}})
	execute(t, s, Command{Op: opOut, Tuple: Tuple{"meta", "/a/secret", "h"}, ACL: ACL{Owner: "bob"}})
	execute(t, s, Command{Op: opOut, Tuple: Tuple{"meta", "/a/gone", "h"}, Now: 1, TTLNanos: 1})
	template := Tuple{"meta", Wildcard, Wildcard}
	for _, tc := range []struct {
		index  int
		prefix string
		want   string
	}{
		{1, "/a/", "/a/1 /a/2"},
		{1, "/a", "/a/1 /a/2 /ab"},
		{1, "", "/a/1 /a/2 /ab /b/1"},
		{0, "", "/a/1 /a/2 /ab /b/1"},
		{1, "/a/1/and/then/some", ""},
		{0, "me", "/a/1 /a/2 /ab /b/1"},
		{3, "/a", ""}, // past the tuple: no field, no match
	} {
		res := execute(t, s, Command{Op: opRdAll, Requester: "alice", Now: 10, Template: template, FieldIndex: tc.index, Prefix: tc.prefix})
		var got []string
		for _, e := range res.Entries {
			got = append(got, e.Tuple[1])
		}
		if !res.OK || strings.Join(got, " ") != tc.want || res.Count != len(got) {
			t.Errorf("rdall field %d prefix %q = %v (ok=%v count=%d), want [%s]", tc.index, tc.prefix, got, res.OK, res.Count, tc.want)
		}
	}
}

// TestInpExpectedVersion: a removal that names a version removes the tuple
// only at that version; one that names none removes whatever matches.
func TestInpExpectedVersion(t *testing.T) {
	s := NewSpace()
	template := Tuple{"meta", "/f", Wildcard}
	v := execute(t, s, Command{Op: opOut, Tuple: Tuple{"meta", "/f", "a"}}).Version
	if res := execute(t, s, Command{Op: opInp, Template: template, ExpectedVersion: v + 1}); res.OK || res.Err != ErrVersionClash || res.Version != v {
		t.Fatalf("inp at a stale version: ok=%v err=%q version %d, want %q and the tuple's version %d", res.OK, res.Err, res.Version, ErrVersionClash, v)
	}
	if res := execute(t, s, Command{Op: opInp, Template: template, ExpectedVersion: v}); !res.OK {
		t.Fatalf("inp at the tuple's version: %q", res.Err)
	}
	execute(t, s, Command{Op: opOut, Tuple: Tuple{"meta", "/f", "b"}})
	if res := execute(t, s, Command{Op: opInp, Template: template}); !res.OK || res.Entry.Tuple[2] != "b" {
		t.Fatalf("inp at no version: ok=%v err=%q", res.OK, res.Err)
	}
	if s.Len() != 0 {
		t.Fatalf("%d tuples left, want 0", s.Len())
	}
}

// TestCasClashRevealsOnlyReadableTuples: a failed cas answers with the tuple
// it clashed with, which must not hand a requester a tuple rdp denies it. A
// clash on a tuple the requester may read still carries it.
func TestCasClashRevealsOnlyReadableTuples(t *testing.T) {
	alice, space, _ := newLocalClient("alice")
	bob := NewClient(&LocalInvoker{Space: space}, "bob", nil)
	if _, err := alice.Out(bg, Tuple{"meta", "/secret", "payload"}, ACL{Owner: "alice"}); err != nil {
		t.Fatal(err)
	}
	template := Tuple{"meta", "/secret", Wildcard}
	if _, err := bob.Rdp(bg, template); !errors.Is(err, ErrDenied) {
		t.Fatalf("bob's rdp: %v, want ErrDenied", err)
	}
	for _, expected := range []uint64{0, 999} {
		if _, e, err := bob.Cas(bg, template, Tuple{"meta", "/secret", "mine"}, expected, ACL{Owner: "bob"}, 0); !errors.Is(err, ErrDenied) || e != nil {
			t.Errorf("bob's cas expecting version %d: entry %v, %v; want ErrDenied and no entry", expected, e, err)
		}
	}
	if _, e, err := alice.Cas(bg, template, Tuple{"meta", "/secret", "again"}, 0, ACL{Owner: "alice"}, 0); !errors.Is(err, ErrExists) || e == nil || e.Tuple[2] != "payload" {
		t.Fatalf("alice's clashing cas: entry %v, %v; want ErrExists and her tuple", e, err)
	}
}

// TestExpiredLeasesAreReclaimed: a lease that expires instead of being
// released used to stay in the space for good, walked by every listing,
// rename and snapshot; only opClean reclaimed it, and nothing issues that.
// Taking a lease on a key now first drops that key's expired tuples, so a
// hundred leases taken in turn, each after the last expired, leave one.
func TestExpiredLeasesAreReclaimed(t *testing.T) {
	_, space, clk := newLocalClient("")
	owners := []*Client{
		NewClient(&LocalInvoker{Space: space}, "alice", clk),
		NewClient(&LocalInvoker{Space: space}, "bob", clk),
	}
	template := Tuple{"lock", "/f", Wildcard}
	for i := 0; i < 100; i++ {
		owner := owners[i%2]
		if _, _, err := owner.Cas(bg, template, Tuple{"lock", "/f", owner.requester}, 0, ACL{Owner: owner.requester}, time.Millisecond); err != nil {
			t.Fatalf("lease %d: %v", i, err)
		}
		clk.Advance(2 * time.Millisecond)
	}
	if n := space.Len(); n != 1 {
		t.Fatalf("%d tuples after 100 leases that expired in turn, want 1", n)
	}
}

// fuzzSpace is a dozen tuples: open ones, ACL'd ones, a lock, a short tuple,
// and one that expired at time 2.
func fuzzSpace(t testing.TB) *Space {
	s := NewSpace()
	for i := 0; i < 6; i++ {
		execute(t, s, Command{Op: opOut, Tuple: Tuple{"meta", fmt.Sprintf("/d%d/f%d", i%2, i), "aA=="}})
	}
	execute(t, s, Command{Op: opOut, Tuple: Tuple{"meta", "/d0", "aA=="}, ACL: ACL{Owner: "alice"}})
	execute(t, s, Command{Op: opOut, Tuple: Tuple{"meta", "/d0/mine", "aA=="}, ACL: ACL{Owner: "alice", Readers: []string{"bob"}}})
	execute(t, s, Command{Op: opOut, Tuple: Tuple{"meta", "/d1/theirs", "aA=="}, ACL: ACL{Owner: "bob", Writers: []string{"alice"}}})
	execute(t, s, Command{Op: opOut, Tuple: Tuple{"lock", "/d0/f0", "alice"}, Now: 1, TTLNanos: 1 << 40})
	execute(t, s, Command{Op: opOut, Tuple: Tuple{"lock", "/d1/f1", "bob"}, Now: 1, TTLNanos: 1})
	execute(t, s, Command{Op: opOut, Tuple: Tuple{"x"}})
	return s
}

// FuzzSpaceExecute: command bytes reach Execute from any client, ordered and
// identical on every replica, so a panic there stops the coordination
// service. Whatever arrives, Execute returns a reply that decodes as a
// Result and leaves a space that still answers.
func FuzzSpaceExecute(f *testing.F) {
	for _, cmd := range []Command{
		CmdRdp(Tuple{"meta", "/d0/f0", Wildcard}),
		CmdRdAll(Tuple{"meta", Wildcard, Wildcard}),
		{Op: opRdAll, Requester: "alice", Now: 5, Template: Tuple{"meta", Wildcard, Wildcard}, FieldIndex: 1, Prefix: "/d0/"},
		CmdInp(Tuple{"lock", "/d0/f0", "alice"}),
		CmdReplace(Tuple{"meta", "/d0/f0", Wildcard}, Tuple{"meta", "/d0/f0", "bB=="}, ACL{Owner: "alice"}),
		CmdCas(Tuple{"lock", "/n", Wildcard}, Tuple{"lock", "/n", "alice"}, 0, ACL{}, 1000),
		{Op: opCas, Template: Tuple{"x"}, ExpectedVersion: 12},
		{Op: opRename, Requester: "alice", FieldIndex: 1, OldPrefix: "/d0", NewPrefix: "/e"},
		{Op: opClean, Now: 1 << 50},
		{Op: opRename, Requester: "alice", FieldIndex: 0, OldPrefix: "lock", NewPrefix: "meta"},
		{Op: opRename, Requester: "bob", FieldIndex: 2, OldPrefix: "aA==", NewPrefix: "zz"},
		{Op: opRename, FieldIndex: 1, OldPrefix: "/d1", NewPrefix: "/d0"},
		{Op: opCas, Now: 5, Template: Tuple{"lock", "/d1/f1", Wildcard}, Replacement: Tuple{"lock", "/d1/f1", "alice"}, TTLNanos: 10},
		{Op: opReplace, Now: 5, Template: Tuple{"meta", "/d1/f1", Wildcard}, Replacement: Tuple{"lock", "/d1/f1", "x"}},
		{Op: opOut, Now: 1 << 50, Tuple: Tuple{"lock", "/d0/f0", "bob"}},
	} {
		b, err := json.Marshal(cmd)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte("not json"))
	f.Fuzz(func(t *testing.T, b []byte) {
		s := fuzzSpace(t)
		var res Result
		if err := json.Unmarshal(s.Execute(b), &res); err != nil {
			t.Fatalf("reply does not decode as a Result: %v", err)
		}
		if res := execute(t, s, Command{Op: opRdAll, Template: Tuple{Wildcard, Wildcard, Wildcard}}); !res.OK {
			t.Fatalf("the space stopped listing after %q: %s", b, res.Err)
		}
		if err := NewSpace().Restore(s.Snapshot()); err != nil {
			t.Fatalf("the space no longer snapshots after %q: %v", b, err)
		}
	})
}

// FuzzSpaceQuery: a query reaches every replica outside the order, each
// answering from whatever state it has, so it must change nothing there —
// not a tuple, not an expired lease, not the version counter — and it must
// answer only the reads. Whatever arrives, plain or in a batch envelope, the
// space's snapshot is byte-identical afterwards, each rdp and rdall is
// answered as Execute answers it, and every other command is refused as
// malformed.
func FuzzSpaceQuery(f *testing.F) {
	marshal := func(cmd Command) []byte {
		b, err := json.Marshal(cmd)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	rdp := marshal(Command{Op: opRdp, Now: 5, Template: Tuple{"lock", "/d1/f1", Wildcard}})
	rdall := marshal(Command{Op: opRdAll, Requester: "bob", Now: 5, Template: Tuple{"meta", Wildcard, Wildcard}, FieldIndex: 1, Prefix: "/d0/"})
	inp := marshal(CmdInp(Tuple{"meta", "/d0/f0", Wildcard}))
	for _, b := range [][]byte{
		rdp,
		rdall,
		inp,
		marshal(CmdCas(Tuple{"meta", "/d0/f0", Wildcard}, Tuple{"meta", "/d0/f0", "bB=="}, 1, ACL{}, 0)),
		// A lease on the key of one that expired at time 2: executed, it
		// would drop the expired tuple.
		marshal(Command{Op: opCas, Now: 5, Template: Tuple{"lock", "/d1/f1", Wildcard}, Replacement: Tuple{"lock", "/d1/f1", "alice"}, TTLNanos: 10}),
		marshal(Command{Op: opClean, Now: 1 << 50}),
		smr.EncodeBatch([][]byte{rdp, inp, rdall}),
		binary.AppendUvarint(smr.EncodeBatch(nil)[:4], 1<<40),
		[]byte("not json"),
	} {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		s := fuzzSpace(t)
		before := s.Snapshot()
		reply := smr.NewBatchApplication(s).Query(b)
		if after := s.Snapshot(); !bytes.Equal(before, after) {
			t.Fatalf("querying %q changed the space:\n%s\nto\n%s", b, before, after)
		}
		cmds, replies := [][]byte{b}, [][]byte{reply}
		if ops, isBatch := smr.DecodeBatch(b); isBatch {
			cmds = ops
			if replies, isBatch = smr.DecodeBatch(reply); !isBatch {
				t.Fatalf("an envelope's query got a plain reply %q", reply)
			}
		}
		if len(replies) != len(cmds) {
			t.Fatalf("%d replies to %d queried commands", len(replies), len(cmds))
		}
		for i, op := range cmds {
			var cmd Command
			if json.Unmarshal(op, &cmd) == nil && (cmd.Op == opRdp || cmd.Op == opRdAll) {
				if want := fuzzSpace(t).Execute(op); !bytes.Equal(replies[i], want) {
					t.Fatalf("query of %s answered %s, Execute %s", op, replies[i], want)
				}
				continue
			}
			var res Result
			if err := json.Unmarshal(replies[i], &res); err != nil || res.OK || res.Err != ErrBadCommand {
				t.Fatalf("query of %q answered %s, want a refusal", op, replies[i])
			}
		}
	})
}
