package fsmeta

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"

	"scfs/internal/codec"
)

// PNS is a Private Name Space (§2.7): the serialized metadata of every
// non-shared file of one user, stored as a single object in the cloud storage
// instead of as individual tuples in the coordination service. Only a PNS
// tuple (user name + a reference to the cloud object) stays in the
// coordination service.
type PNS struct {
	mu sync.RWMutex
	// entries maps path -> metadata for the user's private objects.
	entries map[string]*Metadata
}

// NewPNS creates an empty private name space.
func NewPNS() *PNS {
	return &PNS{entries: make(map[string]*Metadata)}
}

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

// Encode serializes the PNS for upload to the cloud storage: the version,
// then each entry's clean path and record (Metadata.Encode's fields), in
// ascending path order. The object is stored under its user's name, so the
// user is not in it.
func (p *PNS) Encode() []byte {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return codec.AppendList(codec.AppendVersion(nil), slices.Sorted(maps.Keys(p.entries)), func(b []byte, path string) []byte {
		return appendRecord(codec.AppendString(b, path), p.entries[path])
	})
}

// DecodePNS parses the serialized private name space of user. The bytes come
// from the clouds; they are accepted only as the one encoding of a name
// space, in which no two entries name one path.
func DecodePNS(user string, b []byte) (*PNS, error) {
	d := codec.NewDecoder(b, true)
	entries := codec.List(&d, func(d *codec.Decoder) *Metadata {
		path := d.Str()
		m := decodeRecord(d)
		m.Path = path
		return m
	})
	p := NewPNS()
	for i, m := range entries {
		d.Want(m.Path == Clean(m.Path) && (i == 0 || entries[i-1].Path < m.Path))
		p.entries[m.Path] = m
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("fsmeta: decoding the private name space of %q: %w", user, err)
	}
	return p, nil
}
