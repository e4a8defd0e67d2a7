// Package depspace implements a DepSpace-like Byzantine fault-tolerant tuple
// space, the coordination service used by SCFS to store file-system metadata
// and to implement locking. It runs as a deterministic application on top of
// the replication engine in internal/smr (the paper's BFT-SMaRt), so it can
// be deployed with 3f+1 replicas tolerating f arbitrary faults or 2f+1
// replicas tolerating crashes.
//
// The tuple space supports the classic operations (out, rdp, inp), a
// conditional replace used for metadata updates, ephemeral (timed) tuples
// used for locks, and the trigger-like rename extension mentioned in §3.2 of
// the paper (renaming a prefix atomically rewrites matching tuples).
//
// Determinism: expiry of timed tuples is evaluated against the timestamp
// carried inside each command (set by the client when it issues the
// operation), never against the replica's local clock, so all replicas make
// identical decisions.
package depspace

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"scfs/internal/codec"
)

// Wildcard matches any field value in a template.
const Wildcard = "*"

// Tuple is an ordered list of string fields.
type Tuple []string

// Matches reports whether the tuple matches a template of the same length
// where Wildcard fields match anything.
func (t Tuple) Matches(template Tuple) bool {
	if len(t) != len(template) {
		return false
	}
	for i, f := range template {
		if f != Wildcard && f != t[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple { return append(Tuple(nil), t...) }

// String renders the tuple for debugging.
func (t Tuple) String() string { return "<" + strings.Join(t, ", ") + ">" }

// Less orders tuples field-wise lexicographically. It exists so sorts over
// large match sets (directory listings) do not allocate: a comparator built
// on String() materializes two joined strings per comparison, which turns an
// rdAll over a big directory into a multi-thousand-allocation sort — hot
// enough to dominate replica execution under metadata-heavy load.
func (t Tuple) Less(o Tuple) bool {
	for i := 0; i < len(t) && i < len(o); i++ {
		if t[i] != o[i] {
			return t[i] < o[i]
		}
	}
	return len(t) < len(o)
}

// ACL restricts who can read or overwrite a stored tuple. An empty ACL means
// the tuple is accessible to every client (used for bootstrap data).
type ACL struct {
	// Owner may always read, overwrite and remove the tuple, and is the only
	// principal allowed to change the ACL.
	Owner string
	// Readers and Writers extend access to other principals.
	Readers []string
	Writers []string
}

func (a ACL) canRead(who string) bool {
	if a.Owner == "" || who == a.Owner {
		return true
	}
	for _, r := range a.Readers {
		if r == who {
			return true
		}
	}
	return a.canWrite(who) // writers may read
}

func (a ACL) canWrite(who string) bool {
	if a.Owner == "" || who == a.Owner {
		return true
	}
	for _, w := range a.Writers {
		if w == who {
			return true
		}
	}
	return false
}

// Entry is a stored tuple with its metadata.
type Entry struct {
	Tuple   Tuple
	ACL     ACL
	Version uint64
	// ExpiresAt is a unix-nano deadline for ephemeral tuples; 0 means the
	// tuple is permanent.
	ExpiresAt int64
}

// opcode values for commands.
const (
	opOut     = "out"
	opRdp     = "rdp"
	opRdAll   = "rdall"
	opInp     = "inp"
	opReplace = "replace"
	opCas     = "cas"
	opRename  = "rename"
	opClean   = "clean"
)

// Command is the operation executed by the state machine. On the wire it is
// every field in declaration order, in internal/codec (see appendCommand).
type Command struct {
	Op string
	// Requester is the principal performing the operation (enforced against
	// tuple ACLs by the replicas, not by the client).
	Requester string
	// Now is the client's timestamp (unix nanos) used for expiry decisions.
	Now int64

	Tuple    Tuple
	Template Tuple
	// Replacement is used by replace/cas.
	Replacement Tuple
	// ExpectedVersion is used by cas, where 0 means "must not exist", and
	// by inp, where 0 means "any version".
	ExpectedVersion uint64
	// ACL to attach on out/replace/cas.
	ACL ACL
	// TTLNanos makes the tuple ephemeral (expires TTL after Now).
	TTLNanos int64
	// Rename support: prefix rewrite of the field at index FieldIndex.
	FieldIndex int
	OldPrefix  string
	NewPrefix  string
	// Prefix narrows rdall to tuples whose field at index FieldIndex starts
	// with it; empty matches by template alone.
	Prefix string
}

// Result is the reply produced by the state machine (on the wire, see
// encodeResult).
type Result struct {
	OK      bool
	Err     Code
	Entry   *Entry
	Entries []Entry
	Version uint64
	Count   int
}

// The layouts of a command, a reply and a snapshot in the one codec: every
// field in declaration order, none left out, so each value has one encoding.
// Go evaluates a composite literal's reads in order, the order of the fields.

func appendCommand(b []byte, c Command) []byte {
	b = codec.AppendUvarint(codec.AppendString(codec.AppendString(b, c.Op), c.Requester), uint64(c.Now))
	b = codec.AppendStrings(codec.AppendStrings(codec.AppendStrings(b, c.Tuple), c.Template), c.Replacement)
	b = appendACL(codec.AppendUvarint(b, c.ExpectedVersion), c.ACL)
	b = codec.AppendUvarint(codec.AppendUvarint(b, uint64(c.TTLNanos)), uint64(c.FieldIndex))
	return codec.AppendString(codec.AppendString(codec.AppendString(b, c.OldPrefix), c.NewPrefix), c.Prefix)
}

func decodeCommand(b []byte) (Command, error) {
	d := codec.NewDecoder(b, false)
	c := Command{Op: d.Str(), Requester: d.Str(), Now: int64(d.Uvarint()),
		Tuple: d.Strings(), Template: d.Strings(), Replacement: d.Strings(),
		ExpectedVersion: d.Uvarint(), ACL: decodeACL(&d), TTLNanos: int64(d.Uvarint()),
		FieldIndex: int(d.Uvarint()), OldPrefix: d.Str(), NewPrefix: d.Str(), Prefix: d.Str()}
	return c, d.Finish()
}

func appendACL(b []byte, a ACL) []byte {
	return codec.AppendStrings(codec.AppendStrings(codec.AppendString(b, a.Owner), a.Readers), a.Writers)
}

func decodeACL(d *codec.Decoder) ACL {
	return ACL{Owner: d.Str(), Readers: d.Strings(), Writers: d.Strings()}
}

func appendEntry(b []byte, e Entry) []byte {
	b = appendACL(codec.AppendStrings(b, e.Tuple), e.ACL)
	return codec.AppendUvarint(codec.AppendUvarint(b, e.Version), uint64(e.ExpiresAt))
}

func decodeEntry(d *codec.Decoder) Entry {
	return Entry{Tuple: d.Strings(), ACL: decodeACL(d), Version: d.Uvarint(), ExpiresAt: int64(d.Uvarint())}
}

// A reply carries Err alone, OK being Err == 0, and its Entry as a list of
// at most one.
func encodeResult(r Result) []byte {
	var entry []Entry
	if r.Entry != nil {
		entry = []Entry{*r.Entry}
	}
	b := codec.AppendList(codec.AppendUvarint(nil, uint64(r.Err)), entry, appendEntry)
	return codec.AppendUvarint(codec.AppendUvarint(codec.AppendList(b, r.Entries, appendEntry), r.Version), uint64(r.Count))
}

func decodeResult(b []byte) (Result, error) {
	d := codec.NewDecoder(b, false)
	code := d.Uvarint()
	d.Want(code < uint64(len(codeErrors)))
	r := Result{Err: Code(code)}
	if entry := codec.List(&d, decodeEntry); len(entry) > 0 {
		d.Want(len(entry) == 1)
		r.Entry = &entry[0]
	}
	r.OK, r.Entries, r.Version, r.Count = r.Err == 0, codec.List(&d, decodeEntry), d.Uvarint(), int(d.Uvarint())
	return r, d.Finish()
}

// Code is how a command failed, one byte in its reply; 0 is success.
type Code byte

// The codes a command fails with; Result.Failed maps each to its error.
const (
	ErrNoMatch Code = iota + 1
	ErrAccessDenied
	ErrVersionClash
	ErrAlreadyExists
	ErrBadCommand
)

// The errors of the codes, indexed by Code.
var (
	ErrNotFound  = errors.New("depspace: no matching tuple")
	ErrDenied    = errors.New("depspace: access denied")
	ErrVersion   = errors.New("depspace: version mismatch")
	ErrExists    = errors.New("depspace: tuple already exists")
	ErrMalformed = errors.New("depspace: malformed command")
	codeErrors   = [...]error{nil, ErrNotFound, ErrDenied, ErrVersion, ErrExists, ErrMalformed}
)

// Failed returns the command's error reply as one of the package's sentinel
// errors, nil when the command succeeded.
func (r Result) Failed() error { return codeErrors[r.Err] }

// Space is the deterministic tuple-space state machine. It implements
// smr.Application.
//
// Every command searches the tuples in the order they were stored and acts on
// the first live match. entries keeps that order; a removed tuple leaves a nil
// hole there until the holes outnumber the tuples. byKey indexes the tuples by
// their first two fields, the (tag, key) of <"meta", path, ...> and <"lock",
// path, ...>, each key's list in entries order: a template that names both
// fields is answered from its key's few tuples, whatever the space holds.
// Any other template scans entries.
type Space struct {
	mu      sync.Mutex
	entries []*stored
	live    int
	byKey   map[tupleKey][]*stored
	nextVer uint64
}

// stored is a tuple as the space keeps it: its entry and its place in entries.
type stored struct {
	Entry
	at int
}

type tupleKey struct{ tag, key string }

// indexKey returns the key a tuple is indexed under; a tuple of fewer than two
// fields has none, and no template naming two fields can match it.
func indexKey(t Tuple) (tupleKey, bool) {
	if len(t) < 2 {
		return tupleKey{}, false
	}
	return tupleKey{t[0], t[1]}, true
}

// NewSpace returns an empty tuple space.
func NewSpace() *Space {
	return &Space{nextVer: 1, byKey: make(map[tupleKey][]*stored)}
}

// Execute implements smr.Application.
func (s *Space) Execute(cmd []byte) []byte { return s.apply(cmd, false) }

// Query implements smr.Application: it answers rdp and rdall from the
// current state, exactly as Execute would, and refuses every other command
// as malformed, so a query changes nothing. Expired tuples are skipped by
// the command's Now, as in Execute, and stay where they are.
func (s *Space) Query(cmd []byte) []byte { return s.apply(cmd, true) }

func (s *Space) apply(cmdBytes []byte, query bool) []byte {
	cmd, err := decodeCommand(cmdBytes)
	if err != nil || query && cmd.Op != opRdp && cmd.Op != opRdAll {
		return encodeResult(Result{OK: false, Err: ErrBadCommand})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var res Result
	switch cmd.Op {
	case opOut:
		res = s.out(cmd)
	case opRdp:
		res = s.rdp(cmd)
	case opRdAll:
		res = s.rdAll(cmd)
	case opInp:
		res = s.inp(cmd)
	case opReplace:
		res = s.replace(cmd)
	case opCas:
		res = s.cas(cmd)
	case opRename:
		res = s.rename(cmd)
	case opClean:
		res = Result{OK: true, Count: s.cleanExpired(cmd.Now)}
	default:
		res = Result{OK: false, Err: ErrBadCommand}
	}
	return encodeResult(res)
}

// expired evaluates expiry lazily, during matching; expired tuples are
// reclaimed when a tuple is stored at their key (put) or by opClean.
func (e *Entry) expired(now int64) bool {
	return e.ExpiresAt != 0 && now > e.ExpiresAt
}

func (s *Space) cleanExpired(now int64) int {
	var kept []Entry
	for _, st := range s.entries {
		if st != nil && !st.expired(now) {
			kept = append(kept, st.Entry)
		}
	}
	removed := s.live - len(kept)
	s.reset(kept)
	return removed
}

// reset makes entries, in their order, the whole content of the space.
func (s *Space) reset(entries []Entry) {
	s.entries = make([]*stored, 0, len(entries))
	s.byKey = make(map[tupleKey][]*stored)
	s.live = 0
	for _, e := range entries {
		s.add(e)
	}
}

// add appends e to the space and to its key's list.
func (s *Space) add(e Entry) {
	st := &stored{Entry: e, at: len(s.entries)}
	s.entries = append(s.entries, st)
	s.live++
	s.link(st)
}

// link puts st into its key's list at its place in entries order.
func (s *Space) link(st *stored) {
	k, ok := indexKey(st.Tuple)
	if !ok {
		return
	}
	list := s.byKey[k]
	i := len(list)
	for i > 0 && list[i-1].at > st.at {
		i--
	}
	s.byKey[k] = slices.Insert(list, i, st)
}

// unlink takes st out of its key's list.
func (s *Space) unlink(st *stored) {
	k, ok := indexKey(st.Tuple)
	if !ok {
		return
	}
	list := s.byKey[k]
	if i := slices.Index(list, st); i >= 0 {
		list = slices.Delete(list, i, i+1)
	}
	if len(list) == 0 {
		delete(s.byKey, k)
	} else {
		s.byKey[k] = list
	}
}

// remove takes st out of the space. Once the holes outnumber the tuples,
// entries is compacted, so a removal costs O(1) amortized.
func (s *Space) remove(st *stored) {
	s.unlink(st)
	s.entries[st.at] = nil
	s.live--
	if holes := len(s.entries) - s.live; holes > 32 && holes > s.live {
		n := 0
		for _, x := range s.entries {
			if x != nil {
				x.at = n
				s.entries[n] = x
				n++
			}
		}
		clear(s.entries[n:])
		s.entries = s.entries[:n]
	}
}

// put stores t as a new version with the command's ACL and TTL. It first
// drops the tuples at t's key that expired by the command's Now, so a lease
// that expires instead of being released is reclaimed by the next one taken
// on its key, identically at every replica.
func (s *Space) put(t Tuple, cmd Command) Result {
	if k, ok := indexKey(t); ok {
		for i := 0; i < len(s.byKey[k]); {
			if old := s.byKey[k][i]; old.expired(cmd.Now) {
				s.remove(old)
			} else {
				i++
			}
		}
	}
	e := Entry{
		Tuple:   t.Clone(),
		ACL:     cmd.ACL,
		Version: s.nextVer,
	}
	s.nextVer++
	if cmd.TTLNanos > 0 {
		e.ExpiresAt = cmd.Now + cmd.TTLNanos
	}
	s.add(e)
	return Result{OK: true, Version: e.Version, Entry: cloneEntry(&e)}
}

// findMatch returns the first live tuple, in entries order, that matches
// template: from its key's list when the template names both indexed fields,
// by a scan otherwise.
func (s *Space) findMatch(template Tuple, now int64) *stored {
	candidates := s.entries
	if k, ok := indexKey(template); ok && k.tag != Wildcard && k.key != Wildcard {
		candidates = s.byKey[k]
	}
	for _, st := range candidates {
		if st != nil && !st.expired(now) && st.Tuple.Matches(template) {
			return st
		}
	}
	return nil
}

func (s *Space) out(cmd Command) Result {
	if len(cmd.Tuple) == 0 {
		return Result{OK: false, Err: ErrBadCommand}
	}
	return s.put(cmd.Tuple, cmd)
}

func (s *Space) rdp(cmd Command) Result {
	e := s.findMatch(cmd.Template, cmd.Now)
	if e == nil {
		return Result{OK: false, Err: ErrNoMatch}
	}
	if !e.ACL.canRead(cmd.Requester) {
		return Result{OK: false, Err: ErrAccessDenied}
	}
	return Result{OK: true, Entry: cloneEntry(&e.Entry), Version: e.Version}
}

// rdAll reads every live tuple that matches Template, starts with Prefix in
// field FieldIndex and is readable by the requester. The prefix is tested
// before anything is copied, so a listing costs the replicas and the reply
// what the directory holds, not what the space holds.
func (s *Space) rdAll(cmd Command) Result {
	if cmd.FieldIndex < 0 {
		return Result{OK: false, Err: ErrBadCommand}
	}
	var out []Entry
	for _, e := range s.entries {
		if e == nil {
			continue
		}
		if cmd.Prefix != "" && (cmd.FieldIndex >= len(e.Tuple) || !strings.HasPrefix(e.Tuple[cmd.FieldIndex], cmd.Prefix)) {
			continue
		}
		if e.expired(cmd.Now) || !e.Tuple.Matches(cmd.Template) {
			continue
		}
		if !e.ACL.canRead(cmd.Requester) {
			continue
		}
		out = append(out, *cloneEntry(&e.Entry))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tuple.Less(out[j].Tuple) })
	return Result{OK: true, Entries: out, Count: len(out)}
}

// inp removes and returns one tuple matching Template. A nonzero
// ExpectedVersion makes the removal conditional: a matching tuple at another
// version stays and the command fails with ErrVersionClash, so a client
// removes only the tuple it read, never one written since. Zero — what every
// command logged before the field was honoured here carries — removes
// whatever matches.
func (s *Space) inp(cmd Command) Result {
	e := s.findMatch(cmd.Template, cmd.Now)
	if e == nil {
		return Result{OK: false, Err: ErrNoMatch}
	}
	if !e.ACL.canWrite(cmd.Requester) {
		return Result{OK: false, Err: ErrAccessDenied}
	}
	if cmd.ExpectedVersion != 0 && e.Version != cmd.ExpectedVersion {
		return Result{OK: false, Err: ErrVersionClash, Version: e.Version}
	}
	s.remove(e)
	return Result{OK: true, Entry: cloneEntry(&e.Entry), Version: e.Version}
}

// replace atomically removes the tuple matching Template (if any) and inserts
// Replacement. It is the workhorse of metadata updates: SCFS uses it to
// overwrite a file's metadata tuple on close.
func (s *Space) replace(cmd Command) Result {
	if len(cmd.Replacement) == 0 {
		return Result{OK: false, Err: ErrBadCommand}
	}
	if e := s.findMatch(cmd.Template, cmd.Now); e != nil {
		if !e.ACL.canWrite(cmd.Requester) {
			return Result{OK: false, Err: ErrAccessDenied}
		}
		s.remove(e)
	}
	return s.put(cmd.Replacement, cmd)
}

// cas performs a compare-and-swap keyed by version: it succeeds only if the
// matching tuple has ExpectedVersion (or, when ExpectedVersion is zero, if no
// tuple matches the template). Used for lock acquisition and for creating and
// moving metadata records. A clash returns the tuple it clashed with — what
// rdp would — so only to a requester who may read it; anyone else is denied
// and learns nothing of it.
func (s *Space) cas(cmd Command) Result {
	e := s.findMatch(cmd.Template, cmd.Now)
	if e != nil && e.Version != cmd.ExpectedVersion && !e.ACL.canRead(cmd.Requester) {
		return Result{OK: false, Err: ErrAccessDenied}
	}
	if cmd.ExpectedVersion == 0 {
		if e != nil {
			return Result{OK: false, Err: ErrAlreadyExists, Version: e.Version, Entry: cloneEntry(&e.Entry)}
		}
	} else {
		if e == nil {
			return Result{OK: false, Err: ErrNoMatch}
		}
		if e.Version != cmd.ExpectedVersion {
			return Result{OK: false, Err: ErrVersionClash, Version: e.Version, Entry: cloneEntry(&e.Entry)}
		}
		if !e.ACL.canWrite(cmd.Requester) {
			return Result{OK: false, Err: ErrAccessDenied}
		}
		s.remove(e)
	}
	return s.put(cmd.Replacement, cmd)
}

// rename rewrites the prefix OldPrefix into NewPrefix in field FieldIndex of
// every matching tuple, mirroring the trigger extension added to DepSpace
// for efficient directory renames. All or nothing: one matching tuple the
// requester may not write denies the command before any tuple is rewritten.
// A tuple keeps its place in entries; one whose indexed field changes moves
// to its new key's list.
func (s *Space) rename(cmd Command) Result {
	if cmd.OldPrefix == "" || cmd.FieldIndex < 0 {
		return Result{OK: false, Err: ErrBadCommand}
	}
	var matches []*stored
	for _, e := range s.entries {
		if e == nil || e.expired(cmd.Now) || cmd.FieldIndex >= len(e.Tuple) {
			continue
		}
		field := e.Tuple[cmd.FieldIndex]
		if field != cmd.OldPrefix && !strings.HasPrefix(field, cmd.OldPrefix+"/") {
			continue
		}
		if !e.ACL.canWrite(cmd.Requester) {
			return Result{OK: false, Err: ErrAccessDenied}
		}
		matches = append(matches, e)
	}
	rekey := cmd.FieldIndex < 2
	for _, e := range matches {
		if rekey {
			s.unlink(e)
		}
		e.Tuple[cmd.FieldIndex] = cmd.NewPrefix + strings.TrimPrefix(e.Tuple[cmd.FieldIndex], cmd.OldPrefix)
		e.Version = s.nextVer
		s.nextVer++
		if rekey {
			s.link(e)
		}
	}
	return Result{OK: true, Count: len(matches)}
}

func cloneEntry(e *Entry) *Entry {
	c := *e
	c.Tuple = e.Tuple.Clone()
	return &c
}

// Snapshot implements smr.Application.
func (s *Space) Snapshot() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries := make([]Entry, 0, s.live)
	for _, e := range s.entries {
		if e != nil {
			entries = append(entries, e.Entry)
		}
	}
	// The version counter, then the entries in their order in the space.
	return codec.AppendList(codec.AppendUvarint(codec.AppendVersion(nil), s.nextVer), entries, appendEntry)
}

// errSnapshotAtZero refuses a well-formed snapshot whose version counter
// could never issue a version.
var errSnapshotAtZero = errors.New("depspace: restoring a snapshot at version 0")

// Restore implements smr.Application. Snapshot bytes come from a peer: the
// space changes only if they are a whole snapshot whose version counter can
// issue a version (versions start at 1).
func (s *Space) Restore(snapshot []byte) error {
	d := codec.NewDecoder(snapshot, true)
	nextVer, entries := d.Uvarint(), codec.List(&d, decodeEntry)
	if err := d.Finish(); err != nil {
		return fmt.Errorf("depspace: restoring a malformed snapshot: %w", err)
	}
	if nextVer == 0 {
		return errSnapshotAtZero
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reset(entries)
	s.nextVer = nextVer
	return nil
}

// Len returns the number of stored (possibly expired) tuples; used by tests
// and by the PNS sizing experiment.
func (s *Space) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live
}
