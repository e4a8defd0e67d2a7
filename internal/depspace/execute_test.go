package depspace

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"scfs/internal/codec"
	"scfs/internal/smr"
)

// execute runs one command on the space as the replicas would.
func execute(t testing.TB, s *Space, cmd Command) Result {
	t.Helper()
	res, err := decodeResult(s.Execute(appendCommand(nil, cmd)))
	if err != nil {
		t.Fatalf("reply to %+v does not decode as a Result: %v", cmd, err)
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
			t.Errorf("%s with field index -1: ok=%v err=%v, want %v", cmd.Op, res.OK, res.Failed(), ErrMalformed)
		}
	}
	if res := execute(t, s, CmdRdp(Tuple{"meta", "/dir/a", Wildcard})); !res.OK {
		t.Fatalf("tuple gone after the rejected commands: %v", res.Failed())
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
		t.Fatalf("a denied rename changed the space:\nbefore %x\nafter  %x", before, after)
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
		t.Fatalf("inp at a stale version: ok=%v err=%v version %d, want %v and the tuple's version %d", res.OK, res.Failed(), res.Version, ErrVersion, v)
	}
	if res := execute(t, s, Command{Op: opInp, Template: template, ExpectedVersion: v}); !res.OK {
		t.Fatalf("inp at the tuple's version: %v", res.Failed())
	}
	execute(t, s, Command{Op: opOut, Tuple: Tuple{"meta", "/f", "b"}})
	if res := execute(t, s, Command{Op: opInp, Template: template}); !res.OK || res.Entry.Tuple[2] != "b" {
		t.Fatalf("inp at no version: ok=%v err=%v", res.OK, res.Failed())
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

// overlong is cmd's encoding up to its template, whose field count is
// forged to exceed what the bytes could hold.
func overlong(cmd Command) []byte {
	b := codec.AppendString(codec.AppendString(nil, cmd.Op), cmd.Requester)
	b = codec.AppendStrings(codec.AppendUvarint(b, uint64(cmd.Now)), nil)
	return append(codec.AppendUvarint(b, 1<<60), 1, 'x')
}

// FuzzSpaceExecute: command bytes reach Execute from any client, ordered and
// identical on every replica, so a panic there stops the coordination
// service. The decoder accepts only the one encoding of a command: whatever
// it accepts re-encodes to the same bytes. Whatever arrives, Execute
// returns the one encoding of a Result and leaves a space that still
// answers and snapshots.
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
		f.Add(appendCommand(nil, cmd))
	}
	f.Add(overlong(CmdRdp(nil)))
	f.Add(append(appendCommand(nil, CmdRdp(Tuple{"meta", "/d0/f0", Wildcard})), 0))
	f.Add([]byte("not a command"))
	f.Fuzz(func(t *testing.T, b []byte) {
		if cmd, err := decodeCommand(b); err == nil {
			if again := appendCommand(nil, cmd); !bytes.Equal(again, b) {
				t.Fatalf("%x decoded to %+v, which re-encodes as %x", b, cmd, again)
			}
		}
		s := fuzzSpace(t)
		reply := s.Execute(b)
		res, err := decodeResult(reply)
		if err != nil {
			t.Fatalf("reply %x does not decode as a Result: %v", reply, err)
		}
		if again := encodeResult(res); !bytes.Equal(again, reply) {
			t.Fatalf("reply %x re-encodes as %x", reply, again)
		}
		if res := execute(t, s, Command{Op: opRdAll, Template: Tuple{Wildcard, Wildcard, Wildcard}}); !res.OK {
			t.Fatalf("the space stopped listing after %x: %v", b, res.Failed())
		}
		if err := NewSpace().Restore(s.Snapshot()); err != nil {
			t.Fatalf("the space no longer snapshots after %x: %v", b, err)
		}
	})
}

// FuzzDecodeResult: a reply comes from a replica, so the client decodes
// bytes it cannot trust. The decoder accepts only the one encoding of a
// Result: whatever it accepts re-encodes to the same bytes.
func FuzzDecodeResult(f *testing.F) {
	entry := Entry{Tuple: Tuple{"meta", "/f", "rec"}, ACL: ACL{Owner: "alice", Readers: []string{"bob"}}, Version: 7, ExpiresAt: -1}
	for _, r := range []Result{
		{OK: true, Entry: &entry, Version: 7},
		{OK: true, Entries: []Entry{entry, entry}, Count: 2},
		{Err: ErrVersionClash, Version: 3, Entry: &entry},
		{OK: true},
	} {
		f.Add(encodeResult(r))
	}
	f.Add(append(codec.AppendList([]byte{0}, []Entry{entry, entry}, appendEntry), 0, 0, 0)) // two entries where one may be
	f.Add(append(codec.AppendUvarint([]byte{0, 0}, 1<<60), 0, 0))                           // forged entry count
	f.Add([]byte{6, 0, 0, 0, 0})                                                            // no such error code
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := decodeResult(b)
		if err != nil {
			return
		}
		_ = r.Failed() // what the client does with it
		if again := encodeResult(r); !bytes.Equal(again, b) {
			t.Fatalf("%x decoded to %+v, which re-encodes as %x", b, r, again)
		}
	})
}

// FuzzSpaceRestore: snapshot bytes come from a peer during state transfer.
// Restore either fails and leaves the space as it was, or yields a space
// whose snapshot is those very bytes, whose version counter issues only
// versions above 0, and which still answers.
func FuzzSpaceRestore(f *testing.F) {
	f.Add(fuzzSpace(f).Snapshot())
	f.Add(NewSpace().Snapshot())
	f.Add(append(codec.AppendUvarint(codec.AppendVersion(nil), 0), 0))                                // version counter at 0
	f.Add(append(codec.AppendUvarint(codec.AppendUvarint(codec.AppendVersion(nil), 9), 1<<60), 1, 0)) // forged entry count
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, b []byte) {
		s := fuzzSpace(t)
		before := s.Snapshot()
		if err := s.Restore(b); err != nil {
			if after := s.Snapshot(); !bytes.Equal(after, before) {
				t.Fatalf("a failed restore of %x changed the space", b)
			}
			return
		}
		if after := s.Snapshot(); !bytes.Equal(after, b) {
			t.Fatalf("restored %x, snapshot %x", b, after)
		}
		if res := execute(t, s, Command{Op: opOut, Tuple: Tuple{"new"}}); !res.OK || res.Version == 0 {
			t.Fatalf("out after restoring %x: version %d, %v", b, res.Version, res.Failed())
		}
	})
}

// FuzzSpaceQuery: a query reaches every replica outside the order, each
// answering from whatever state it has, so it must change nothing there —
// not a tuple, not an expired lease, not the version counter — and it must
// answer only the reads. Whatever envelope arrives, the space's snapshot is
// byte-identical afterwards, each rdp and rdall is answered as Execute
// answers it, and every other command is refused as malformed; bytes that
// are not an envelope are answered with an empty one.
func FuzzSpaceQuery(f *testing.F) {
	rdp := appendCommand(nil, Command{Op: opRdp, Now: 5, Template: Tuple{"lock", "/d1/f1", Wildcard}})
	rdall := appendCommand(nil, Command{Op: opRdAll, Requester: "bob", Now: 5, Template: Tuple{"meta", Wildcard, Wildcard}, FieldIndex: 1, Prefix: "/d0/"})
	inp := appendCommand(nil, CmdInp(Tuple{"meta", "/d0/f0", Wildcard}))
	for _, ops := range [][][]byte{
		{rdp},
		{rdall},
		{inp},
		{appendCommand(nil, CmdCas(Tuple{"meta", "/d0/f0", Wildcard}, Tuple{"meta", "/d0/f0", "bB=="}, 1, ACL{}, 0))},
		// A lease on the key of one that expired at time 2: executed, it
		// would drop the expired tuple.
		{appendCommand(nil, Command{Op: opCas, Now: 5, Template: Tuple{"lock", "/d1/f1", Wildcard}, Replacement: Tuple{"lock", "/d1/f1", "alice"}, TTLNanos: 10})},
		{appendCommand(nil, Command{Op: opClean, Now: 1 << 50})},
		{rdp, inp, rdall},
		{overlong(CmdRdp(nil))},
	} {
		f.Add(smr.EncodeBatch(ops))
	}
	f.Add(codec.AppendUvarint(codec.AppendVersion(nil), 1<<60))
	f.Add(rdp) // a command outside an envelope
	f.Fuzz(func(t *testing.T, b []byte) {
		s := fuzzSpace(t)
		before := s.Snapshot()
		reply := smr.NewBatchApplication(s).Query(b)
		if after := s.Snapshot(); !bytes.Equal(before, after) {
			t.Fatalf("querying %x changed the space:\n%x\nto\n%x", b, before, after)
		}
		cmds, err := smr.DecodeBatch(b)
		if err != nil {
			if !bytes.Equal(reply, smr.EncodeBatch(nil)) {
				t.Fatalf("bytes %x that are no envelope got the reply %x", b, reply)
			}
			return
		}
		if again := smr.EncodeBatch(cmds); !bytes.Equal(again, b) {
			t.Fatalf("envelope %x re-encodes as %x", b, again)
		}
		replies, err := smr.DecodeBatchReply(reply, len(cmds))
		if err != nil {
			t.Fatal(err)
		}
		for i, op := range cmds {
			cmd, err := decodeCommand(op)
			if err == nil && !bytes.Equal(appendCommand(nil, cmd), op) {
				t.Fatalf("command %x re-encodes as %x", op, appendCommand(nil, cmd))
			}
			if err == nil && (cmd.Op == opRdp || cmd.Op == opRdAll) {
				if want := fuzzSpace(t).Execute(op); !bytes.Equal(replies[i], want) {
					t.Fatalf("query of %+v answered %x, Execute %x", cmd, replies[i], want)
				}
				continue
			}
			if res, err := decodeResult(replies[i]); err != nil || res.OK || res.Err != ErrBadCommand {
				t.Fatalf("query of %x answered %x, want a refusal", op, replies[i])
			}
		}
	})
}
