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
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
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
	Owner string `json:"owner,omitempty"`
	// Readers and Writers extend access to other principals.
	Readers []string `json:"readers,omitempty"`
	Writers []string `json:"writers,omitempty"`
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
	Tuple   Tuple  `json:"tuple"`
	ACL     ACL    `json:"acl"`
	Version uint64 `json:"version"`
	// ExpiresAt is a unix-nano deadline for ephemeral tuples; 0 means the
	// tuple is permanent.
	ExpiresAt int64 `json:"expires_at,omitempty"`
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

// Command is the serialized operation executed by the state machine.
type Command struct {
	Op string `json:"op"`
	// Requester is the principal performing the operation (enforced against
	// tuple ACLs by the replicas, not by the client).
	Requester string `json:"requester"`
	// Now is the client's timestamp (unix nanos) used for expiry decisions.
	Now int64 `json:"now"`

	Tuple    Tuple `json:"tuple,omitempty"`
	Template Tuple `json:"template,omitempty"`
	// Replacement is used by replace/cas.
	Replacement Tuple `json:"replacement,omitempty"`
	// ExpectedVersion is used by cas, where 0 means "must not exist", and
	// by inp, where 0 means "any version".
	ExpectedVersion uint64 `json:"expected_version,omitempty"`
	// ACL to attach on out/replace/cas.
	ACL ACL `json:"acl,omitempty"`
	// TTLNanos makes the tuple ephemeral (expires TTL after Now).
	TTLNanos int64 `json:"ttl_nanos,omitempty"`
	// Rename support: prefix rewrite of the field at index FieldIndex.
	FieldIndex int    `json:"field_index,omitempty"`
	OldPrefix  string `json:"old_prefix,omitempty"`
	NewPrefix  string `json:"new_prefix,omitempty"`
	// Prefix narrows rdall to tuples whose field at index FieldIndex starts
	// with it; empty (as in every command logged before it existed) matches
	// by template alone.
	Prefix string `json:"prefix,omitempty"`
}

// Result is the reply produced by the state machine.
type Result struct {
	OK      bool    `json:"ok"`
	Err     string  `json:"err,omitempty"`
	Entry   *Entry  `json:"entry,omitempty"`
	Entries []Entry `json:"entries,omitempty"`
	Version uint64  `json:"version,omitempty"`
	Count   int     `json:"count,omitempty"`
}

// Well-known error strings carried inside Result.Err.
const (
	ErrNoMatch       = "depspace: no matching tuple"
	ErrAccessDenied  = "depspace: access denied"
	ErrVersionClash  = "depspace: version mismatch"
	ErrAlreadyExists = "depspace: tuple already exists"
	ErrBadCommand    = "depspace: malformed command"
)

// Space is the deterministic tuple-space state machine. It implements
// smr.Application.
type Space struct {
	mu      sync.Mutex
	entries []*Entry
	nextVer uint64
}

// NewSpace returns an empty tuple space.
func NewSpace() *Space { return &Space{nextVer: 1} }

// Execute implements smr.Application.
func (s *Space) Execute(cmdBytes []byte) []byte {
	var cmd Command
	if err := json.Unmarshal(cmdBytes, &cmd); err != nil {
		return marshalResult(Result{OK: false, Err: ErrBadCommand})
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
	return marshalResult(res)
}

func marshalResult(r Result) []byte {
	b, err := json.Marshal(r)
	if err != nil {
		// A Result is always marshalable; this is unreachable in practice.
		return []byte(`{"ok":false,"err":"depspace: internal marshal error"}`)
	}
	return b
}

// isExpired evaluates expiry lazily, during matching; expired tuples are
// reclaimed by opClean.
func (s *Space) isExpired(e *Entry, now int64) bool {
	return e.ExpiresAt != 0 && now > e.ExpiresAt
}

func (s *Space) cleanExpired(now int64) int {
	kept := s.entries[:0]
	removed := 0
	for _, e := range s.entries {
		if s.isExpired(e, now) {
			removed++
			continue
		}
		kept = append(kept, e)
	}
	s.entries = kept
	return removed
}

func (s *Space) findMatch(template Tuple, now int64) (int, *Entry) {
	for i, e := range s.entries {
		if s.isExpired(e, now) {
			continue
		}
		if e.Tuple.Matches(template) {
			return i, e
		}
	}
	return -1, nil
}

func (s *Space) out(cmd Command) Result {
	if len(cmd.Tuple) == 0 {
		return Result{OK: false, Err: ErrBadCommand}
	}
	e := &Entry{
		Tuple:   cmd.Tuple.Clone(),
		ACL:     cmd.ACL,
		Version: s.nextVer,
	}
	s.nextVer++
	if cmd.TTLNanos > 0 {
		e.ExpiresAt = cmd.Now + cmd.TTLNanos
	}
	s.entries = append(s.entries, e)
	return Result{OK: true, Version: e.Version, Entry: cloneEntry(e)}
}

func (s *Space) rdp(cmd Command) Result {
	_, e := s.findMatch(cmd.Template, cmd.Now)
	if e == nil {
		return Result{OK: false, Err: ErrNoMatch}
	}
	if !e.ACL.canRead(cmd.Requester) {
		return Result{OK: false, Err: ErrAccessDenied}
	}
	return Result{OK: true, Entry: cloneEntry(e), Version: e.Version}
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
		if cmd.Prefix != "" && (cmd.FieldIndex >= len(e.Tuple) || !strings.HasPrefix(e.Tuple[cmd.FieldIndex], cmd.Prefix)) {
			continue
		}
		if s.isExpired(e, cmd.Now) || !e.Tuple.Matches(cmd.Template) {
			continue
		}
		if !e.ACL.canRead(cmd.Requester) {
			continue
		}
		out = append(out, *cloneEntry(e))
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
	i, e := s.findMatch(cmd.Template, cmd.Now)
	if e == nil {
		return Result{OK: false, Err: ErrNoMatch}
	}
	if !e.ACL.canWrite(cmd.Requester) {
		return Result{OK: false, Err: ErrAccessDenied}
	}
	if cmd.ExpectedVersion != 0 && e.Version != cmd.ExpectedVersion {
		return Result{OK: false, Err: ErrVersionClash, Version: e.Version}
	}
	s.entries = append(s.entries[:i], s.entries[i+1:]...)
	return Result{OK: true, Entry: cloneEntry(e), Version: e.Version}
}

// replace atomically removes the tuple matching Template (if any) and inserts
// Replacement. It is the workhorse of metadata updates: SCFS uses it to
// overwrite a file's metadata tuple on close.
func (s *Space) replace(cmd Command) Result {
	if len(cmd.Replacement) == 0 {
		return Result{OK: false, Err: ErrBadCommand}
	}
	i, e := s.findMatch(cmd.Template, cmd.Now)
	if e != nil {
		if !e.ACL.canWrite(cmd.Requester) {
			return Result{OK: false, Err: ErrAccessDenied}
		}
		s.entries = append(s.entries[:i], s.entries[i+1:]...)
	}
	newEntry := &Entry{
		Tuple:   cmd.Replacement.Clone(),
		ACL:     cmd.ACL,
		Version: s.nextVer,
	}
	s.nextVer++
	if cmd.TTLNanos > 0 {
		newEntry.ExpiresAt = cmd.Now + cmd.TTLNanos
	}
	s.entries = append(s.entries, newEntry)
	return Result{OK: true, Version: newEntry.Version, Entry: cloneEntry(newEntry)}
}

// cas performs a compare-and-swap keyed by version: it succeeds only if the
// matching tuple has ExpectedVersion (or, when ExpectedVersion is zero, if no
// tuple matches the template). Used for lock acquisition and for creating and
// moving metadata records. A clash returns the tuple it clashed with — what
// rdp would — so only to a requester who may read it; anyone else is denied
// and learns nothing of it.
func (s *Space) cas(cmd Command) Result {
	i, e := s.findMatch(cmd.Template, cmd.Now)
	if e != nil && e.Version != cmd.ExpectedVersion && !e.ACL.canRead(cmd.Requester) {
		return Result{OK: false, Err: ErrAccessDenied}
	}
	if cmd.ExpectedVersion == 0 {
		if e != nil {
			return Result{OK: false, Err: ErrAlreadyExists, Version: e.Version, Entry: cloneEntry(e)}
		}
	} else {
		if e == nil {
			return Result{OK: false, Err: ErrNoMatch}
		}
		if e.Version != cmd.ExpectedVersion {
			return Result{OK: false, Err: ErrVersionClash, Version: e.Version, Entry: cloneEntry(e)}
		}
		if !e.ACL.canWrite(cmd.Requester) {
			return Result{OK: false, Err: ErrAccessDenied}
		}
		s.entries = append(s.entries[:i], s.entries[i+1:]...)
	}
	newEntry := &Entry{
		Tuple:   cmd.Replacement.Clone(),
		ACL:     cmd.ACL,
		Version: s.nextVer,
	}
	s.nextVer++
	if cmd.TTLNanos > 0 {
		newEntry.ExpiresAt = cmd.Now + cmd.TTLNanos
	}
	s.entries = append(s.entries, newEntry)
	return Result{OK: true, Version: newEntry.Version, Entry: cloneEntry(newEntry)}
}

// rename rewrites the prefix OldPrefix into NewPrefix in field FieldIndex of
// every matching tuple, mirroring the trigger extension added to DepSpace
// for efficient directory renames. All or nothing: one matching tuple the
// requester may not write denies the command before any tuple is rewritten.
func (s *Space) rename(cmd Command) Result {
	if cmd.OldPrefix == "" || cmd.FieldIndex < 0 {
		return Result{OK: false, Err: ErrBadCommand}
	}
	var matches []*Entry
	for _, e := range s.entries {
		if s.isExpired(e, cmd.Now) || cmd.FieldIndex >= len(e.Tuple) {
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
	for _, e := range matches {
		e.Tuple[cmd.FieldIndex] = cmd.NewPrefix + strings.TrimPrefix(e.Tuple[cmd.FieldIndex], cmd.OldPrefix)
		e.Version = s.nextVer
		s.nextVer++
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
	state := struct {
		Entries []*Entry `json:"entries"`
		NextVer uint64   `json:"next_ver"`
	}{Entries: s.entries, NextVer: s.nextVer}
	b, _ := json.Marshal(state)
	return b
}

// Restore implements smr.Application.
func (s *Space) Restore(snapshot []byte) error {
	var state struct {
		Entries []*Entry `json:"entries"`
		NextVer uint64   `json:"next_ver"`
	}
	if err := json.Unmarshal(snapshot, &state); err != nil {
		return fmt.Errorf("depspace: restoring snapshot: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = state.Entries
	s.nextVer = state.NextVer
	if s.nextVer == 0 {
		s.nextVer = 1
	}
	return nil
}

// Len returns the number of stored (possibly expired) tuples; used by tests
// and by the PNS sizing experiment.
func (s *Space) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}
