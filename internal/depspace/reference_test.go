package depspace

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// refSpace is the tuple space without its key index: one slice in insertion
// order, and every command a scan of it. Its only addition to that linear
// design is the rule the indexed space follows when it stores a tuple: the
// tuples at the new one's (tag, key) that expired by the command's Now go
// first.
type refSpace struct {
	entries []*Entry
	nextVer uint64
}

func newRefSpace() *refSpace { return &refSpace{entries: []*Entry{}, nextVer: 1} }

func (r *refSpace) execute(cmd Command) Result {
	switch cmd.Op {
	case opOut:
		if len(cmd.Tuple) == 0 {
			return Result{Err: ErrBadCommand}
		}
		return r.put(cmd.Tuple, cmd)
	case opRdp:
		_, e := r.findMatch(cmd.Template, cmd.Now)
		if e == nil {
			return Result{Err: ErrNoMatch}
		}
		if !e.ACL.canRead(cmd.Requester) {
			return Result{Err: ErrAccessDenied}
		}
		return Result{OK: true, Entry: cloneEntry(e), Version: e.Version}
	case opRdAll:
		if cmd.FieldIndex < 0 {
			return Result{Err: ErrBadCommand}
		}
		var out []Entry
		for _, e := range r.entries {
			if cmd.Prefix != "" && (cmd.FieldIndex >= len(e.Tuple) || !strings.HasPrefix(e.Tuple[cmd.FieldIndex], cmd.Prefix)) {
				continue
			}
			if e.expired(cmd.Now) || !e.Tuple.Matches(cmd.Template) || !e.ACL.canRead(cmd.Requester) {
				continue
			}
			out = append(out, *cloneEntry(e))
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Tuple.Less(out[j].Tuple) })
		return Result{OK: true, Entries: out, Count: len(out)}
	case opInp:
		i, e := r.findMatch(cmd.Template, cmd.Now)
		if e == nil {
			return Result{Err: ErrNoMatch}
		}
		if !e.ACL.canWrite(cmd.Requester) {
			return Result{Err: ErrAccessDenied}
		}
		if cmd.ExpectedVersion != 0 && e.Version != cmd.ExpectedVersion {
			return Result{Err: ErrVersionClash, Version: e.Version}
		}
		r.entries = append(r.entries[:i], r.entries[i+1:]...)
		return Result{OK: true, Entry: cloneEntry(e), Version: e.Version}
	case opReplace:
		if len(cmd.Replacement) == 0 {
			return Result{Err: ErrBadCommand}
		}
		if i, e := r.findMatch(cmd.Template, cmd.Now); e != nil {
			if !e.ACL.canWrite(cmd.Requester) {
				return Result{Err: ErrAccessDenied}
			}
			r.entries = append(r.entries[:i], r.entries[i+1:]...)
		}
		return r.put(cmd.Replacement, cmd)
	case opCas:
		i, e := r.findMatch(cmd.Template, cmd.Now)
		if e != nil && e.Version != cmd.ExpectedVersion && !e.ACL.canRead(cmd.Requester) {
			return Result{Err: ErrAccessDenied}
		}
		if cmd.ExpectedVersion == 0 {
			if e != nil {
				return Result{Err: ErrAlreadyExists, Version: e.Version, Entry: cloneEntry(e)}
			}
		} else {
			if e == nil {
				return Result{Err: ErrNoMatch}
			}
			if e.Version != cmd.ExpectedVersion {
				return Result{Err: ErrVersionClash, Version: e.Version, Entry: cloneEntry(e)}
			}
			if !e.ACL.canWrite(cmd.Requester) {
				return Result{Err: ErrAccessDenied}
			}
			r.entries = append(r.entries[:i], r.entries[i+1:]...)
		}
		return r.put(cmd.Replacement, cmd)
	case opRename:
		if cmd.OldPrefix == "" || cmd.FieldIndex < 0 {
			return Result{Err: ErrBadCommand}
		}
		var matches []*Entry
		for _, e := range r.entries {
			if e.expired(cmd.Now) || cmd.FieldIndex >= len(e.Tuple) {
				continue
			}
			field := e.Tuple[cmd.FieldIndex]
			if field != cmd.OldPrefix && !strings.HasPrefix(field, cmd.OldPrefix+"/") {
				continue
			}
			if !e.ACL.canWrite(cmd.Requester) {
				return Result{Err: ErrAccessDenied}
			}
			matches = append(matches, e)
		}
		for _, e := range matches {
			e.Tuple[cmd.FieldIndex] = cmd.NewPrefix + strings.TrimPrefix(e.Tuple[cmd.FieldIndex], cmd.OldPrefix)
			e.Version = r.nextVer
			r.nextVer++
		}
		return Result{OK: true, Count: len(matches)}
	case opClean:
		kept := r.entries[:0]
		for _, e := range r.entries {
			if !e.expired(cmd.Now) {
				kept = append(kept, e)
			}
		}
		removed := len(r.entries) - len(kept)
		r.entries = kept
		return Result{OK: true, Count: removed}
	}
	return Result{Err: ErrBadCommand}
}

// findMatch is the linear search: the first live tuple in insertion order
// that matches the template.
func (r *refSpace) findMatch(template Tuple, now int64) (int, *Entry) {
	for i, e := range r.entries {
		if !e.expired(now) && e.Tuple.Matches(template) {
			return i, e
		}
	}
	return -1, nil
}

func (r *refSpace) put(t Tuple, cmd Command) Result {
	kept := r.entries[:0]
	for _, e := range r.entries {
		if len(t) >= 2 && len(e.Tuple) >= 2 && e.Tuple[0] == t[0] && e.Tuple[1] == t[1] && e.expired(cmd.Now) {
			continue
		}
		kept = append(kept, e)
	}
	r.entries = kept
	e := &Entry{Tuple: t.Clone(), ACL: cmd.ACL, Version: r.nextVer}
	r.nextVer++
	if cmd.TTLNanos > 0 {
		e.ExpiresAt = cmd.Now + cmd.TTLNanos
	}
	r.entries = append(r.entries, e)
	return Result{OK: true, Version: e.Version, Entry: cloneEntry(e)}
}

// snapshot is what a Space holding the same entries in the same order takes.
func (r *refSpace) snapshot() []byte {
	entries := make([]Entry, len(r.entries))
	for i, e := range r.entries {
		entries[i] = *e
	}
	s := NewSpace()
	s.reset(entries)
	s.nextVer = r.nextVer
	return s.Snapshot()
}

// commandGen draws commands over a handful of tags, paths and owners, so
// that keys collide, tuples share a key, renames move tuples between keys
// and leases expire while the sequence runs.
type commandGen struct {
	rng      *rand.Rand
	now      int64
	versions []uint64 // versions seen in replies, for ExpectedVersion
}

var (
	genTags   = []string{"meta", "lock", "meta/x"}
	genPaths  = []string{"/a", "/a/b", "/a/b/c", "/ab", "/b", "/b/a"}
	genThird  = []string{"h1", "h2", "alice", "bob"}
	genPeople = []string{"alice", "bob", ""}
	genACLs   = []ACL{{}, {Owner: "alice"}, {Owner: "bob", Readers: []string{"alice"}}, {Owner: "bob", Writers: []string{"alice"}}}
)

func (g *commandGen) pick(from []string) string { return from[g.rng.Intn(len(from))] }

// tuple returns a tuple of one to three fields, mostly three.
func (g *commandGen) tuple() Tuple {
	t := Tuple{g.pick(genTags), g.pick(genPaths), g.pick(genThird)}
	switch g.rng.Intn(10) {
	case 0:
		return t[:1]
	case 1:
		return t[:2]
	}
	return t
}

// template is a tuple with some fields made wildcards, the first two
// included.
func (g *commandGen) template() Tuple {
	t := g.tuple()
	for i := range t {
		if g.rng.Intn(4) == 0 {
			t[i] = Wildcard
		}
	}
	return t
}

func (g *commandGen) version() uint64 {
	if len(g.versions) == 0 || g.rng.Intn(5) == 0 {
		return uint64(g.rng.Intn(3))
	}
	return g.versions[g.rng.Intn(len(g.versions))]
}

func (g *commandGen) next() Command {
	// Time mostly moves forward, sometimes not at all, and sometimes a
	// command carries a clock behind the last one, as a client's may.
	g.now += int64(g.rng.Intn(3))
	cmd := Command{Requester: g.pick(genPeople), Now: g.now - int64(g.rng.Intn(2)), ACL: genACLs[g.rng.Intn(len(genACLs))]}
	if g.rng.Intn(3) == 0 {
		cmd.TTLNanos = int64(1 + g.rng.Intn(4))
	}
	switch n := g.rng.Intn(20); {
	case n < 4:
		cmd.Op, cmd.Tuple = opOut, g.tuple()
	case n < 7:
		cmd.Op, cmd.Template = opRdp, g.template()
	case n < 9:
		cmd.Op, cmd.Template = opInp, g.template()
		if g.rng.Intn(2) == 0 {
			cmd.ExpectedVersion = g.version()
		}
	case n < 12:
		cmd.Op, cmd.Template, cmd.Replacement = opReplace, g.template(), g.tuple()
	case n < 15:
		cmd.Op, cmd.Template, cmd.Replacement, cmd.ExpectedVersion = opCas, g.template(), g.tuple(), g.version()
	case n < 18:
		cmd.Op, cmd.FieldIndex = opRename, g.rng.Intn(3)
		from := [][]string{genTags, genPaths, genThird}[cmd.FieldIndex]
		cmd.OldPrefix, cmd.NewPrefix = g.pick(from), g.pick(from)
	case n < 19:
		cmd.Op, cmd.Template = opRdAll, g.template()
		if g.rng.Intn(2) == 0 {
			cmd.FieldIndex, cmd.Prefix = 1, g.pick(genPaths)
		}
	default:
		cmd.Op = opClean
	}
	return cmd
}

// TestIndexMatchesReference: the key index changes how a command finds its
// tuple, never which one. Random command sequences run through Space and
// through the linear refSpace; after every command the two replies and the
// two snapshots are byte-identical. Now and then the space is replaced by
// one restored from its snapshot, whose index is rebuilt from scratch.
func TestIndexMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 120; seed++ {
		g := &commandGen{rng: rand.New(rand.NewSource(seed))}
		s, ref := NewSpace(), newRefSpace()
		for step := 0; step < 300; step++ {
			cmd := g.next()
			b := appendCommand(nil, cmd)
			got := s.Execute(b)
			wantRes := ref.execute(cmd)
			want := encodeResult(wantRes)
			if string(got) != string(want) {
				t.Fatalf("seed %d step %d: %+v\n got %x\nwant %x", seed, step, cmd, got, want)
			}
			if wantRes.Version != 0 {
				g.versions = append(g.versions, wantRes.Version)
			}
			if got, want := s.Snapshot(), ref.snapshot(); string(got) != string(want) {
				t.Fatalf("seed %d step %d: after %+v the spaces differ:\n got %x\nwant %x", seed, step, cmd, got, want)
			}
			if g.rng.Intn(50) == 0 {
				restored := NewSpace()
				if err := restored.Restore(s.Snapshot()); err != nil {
					t.Fatal(err)
				}
				s = restored
			}
		}
	}
}

// TestIndexCompaction: removals leave holes that compaction closes, and a
// search after it still finds the first live match of each key in order.
func TestIndexCompaction(t *testing.T) {
	s := NewSpace()
	for i := 0; i < 200; i++ {
		execute(t, s, Command{Op: opOut, Tuple: Tuple{"meta", fmt.Sprintf("/f%d", i%50), fmt.Sprint(i)}})
	}
	for i := 0; i < 150; i++ {
		if res := execute(t, s, Command{Op: opInp, Template: Tuple{"meta", fmt.Sprintf("/f%d", i%50), Wildcard}}); !res.OK {
			t.Fatalf("inp %d: %v", i, res.Failed())
		}
	}
	if len(s.entries) >= 200 || s.Len() != 50 {
		t.Fatalf("%d slots for %d tuples: removals were not compacted", len(s.entries), s.Len())
	}
	for i := 0; i < 50; i++ {
		res := execute(t, s, Command{Op: opRdp, Template: Tuple{"meta", fmt.Sprintf("/f%d", i), Wildcard}})
		if want := fmt.Sprint(150 + i); !res.OK || res.Entry.Tuple[2] != want {
			t.Fatalf("rdp /f%d = %v, %v; want the copy written %s-th", i, res.Entry, res.Failed(), want)
		}
	}
}
