package fsmeta

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// PNS is a Private Name Space (§2.7): the serialized metadata of every
// non-shared file of one user, stored as a single object in the cloud storage
// instead of as individual tuples in the coordination service. Only a PNS
// tuple (user name + a reference to the cloud object) stays in the
// coordination service.
type PNS struct {
	mu sync.RWMutex
	// user owns this name space.
	user string
	// entries maps path -> metadata for the user's private objects.
	entries map[string]*Metadata
}

// NewPNS creates an empty private name space for a user.
func NewPNS(user string) *PNS {
	return &PNS{user: user, entries: make(map[string]*Metadata)}
}

// User returns the owning user.
func (p *PNS) User() string { return p.user }

// Get returns the metadata stored under path, or nil.
func (p *PNS) Get(path string) *Metadata {
	p.mu.RLock()
	defer p.mu.RUnlock()
	m, ok := p.entries[Clean(path)]
	if !ok {
		return nil
	}
	return m.Clone()
}

// Put inserts or replaces the metadata of a private object.
func (p *PNS) Put(m *Metadata) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.entries[Clean(m.Path)] = m.Clone()
}

// Remove deletes the metadata stored under path and reports whether it was
// present.
func (p *PNS) Remove(path string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	key := Clean(path)
	_, ok := p.entries[key]
	delete(p.entries, key)
	return ok
}

// Len returns the number of entries.
func (p *PNS) Len() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.entries)
}

// List returns the metadata of entries directly inside dir, sorted by path.
func (p *PNS) List(dir string) []*Metadata {
	dir = Clean(dir)
	p.mu.RLock()
	defer p.mu.RUnlock()
	var out []*Metadata
	for path, m := range p.entries {
		if parentOf(path) == dir {
			out = append(out, m.Clone())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// ListPrefix returns every entry under prefix (inclusive), sorted by path.
func (p *PNS) ListPrefix(prefix string) []*Metadata {
	prefix = Clean(prefix)
	p.mu.RLock()
	defer p.mu.RUnlock()
	var out []*Metadata
	for path, m := range p.entries {
		if path == prefix || IsChildOf(path, prefix) {
			out = append(out, m.Clone())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// RenamePrefix rewrites every path under oldPrefix to live under newPrefix
// and returns how many entries moved.
func (p *PNS) RenamePrefix(oldPrefix, newPrefix string) int {
	oldPrefix, newPrefix = Clean(oldPrefix), Clean(newPrefix)
	p.mu.Lock()
	defer p.mu.Unlock()
	moved := 0
	for path, m := range p.entries {
		if path != oldPrefix && !IsChildOf(path, oldPrefix) {
			continue
		}
		newPath := newPrefix + strings.TrimPrefix(path, oldPrefix)
		m.Path = newPath
		delete(p.entries, path)
		p.entries[newPath] = m
		moved++
	}
	return moved
}

func parentOf(p string) string {
	c := Clean(p)
	idx := strings.LastIndex(c, "/")
	if idx <= 0 {
		return "/"
	}
	return c[:idx]
}

// pnsWire is the serialized representation stored in the cloud.
type pnsWire struct {
	User    string      `json:"user"`
	Entries []*Metadata `json:"entries"`
}

// Encode serializes the PNS for upload to the cloud storage.
func (p *PNS) Encode() ([]byte, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	wire := pnsWire{User: p.user}
	keys := make([]string, 0, len(p.entries))
	for k := range p.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		wire.Entries = append(wire.Entries, p.entries[k])
	}
	b, err := json.Marshal(wire)
	if err != nil {
		return nil, fmt.Errorf("fsmeta: encoding PNS of %q: %w", p.user, err)
	}
	return b, nil
}

// DecodePNS parses a serialized private name space. The bytes come from the
// clouds, so an entry that is null is an error, not a crash.
func DecodePNS(b []byte) (*PNS, error) {
	var wire pnsWire
	if err := json.Unmarshal(b, &wire); err != nil {
		return nil, fmt.Errorf("fsmeta: decoding PNS: %w", err)
	}
	p := NewPNS(wire.User)
	for i, m := range wire.Entries {
		if m == nil {
			return nil, fmt.Errorf("fsmeta: decoding PNS of %q: entry %d is null", wire.User, i)
		}
		p.entries[Clean(m.Path)] = m
	}
	return p, nil
}
