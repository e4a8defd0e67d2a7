// Package cache implements the three caches of the SCFS agent (§2.5.1):
//
//   - a main-memory LRU cache holding the contents of open files (hundreds of
//     MBs in the paper),
//   - a local-disk LRU cache acting as a large, long-term cache of whole
//     files (GBs), validated against the coordination service before use, and
//   - a short-lived metadata cache (hundreds of milliseconds) that absorbs
//     the bursts of metadata calls applications issue around a single
//     high-level action.
package cache

import (
	"container/list"
	"encoding/base64"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"scfs/internal/clock"
)

// --- memory LRU ---

// Memory is a byte-budgeted LRU cache from string keys to byte slices. The
// zero value is not usable; use NewMemory.
type Memory struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	order    *list.List // front = most recently used
	items    map[string]*list.Element
	// OnEvict, if set, is called (without the lock held) with each evicted
	// entry; the SCFS agent uses it to push evicted open files to the disk
	// cache.
	OnEvict func(key string, value []byte)

	hits, misses int64
}

type memEntry struct {
	key   string
	value []byte
}

// NewMemory creates a memory cache bounded to capacity bytes.
func NewMemory(capacity int64) *Memory {
	if capacity <= 0 {
		capacity = 1
	}
	return &Memory{capacity: capacity, order: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the cached value and whether it was present.
func (m *Memory) Get(key string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.items[key]
	if !ok {
		m.misses++
		return nil, false
	}
	m.hits++
	m.order.MoveToFront(el)
	val := el.Value.(*memEntry).value
	out := make([]byte, len(val))
	copy(out, val)
	return out, true
}

// Put inserts or replaces the value under key, evicting least recently used
// entries as needed to stay within the byte budget. Values larger than the
// whole budget are not cached.
func (m *Memory) Put(key string, value []byte) {
	var evicted []memEntry
	m.mu.Lock()
	if el, ok := m.items[key]; ok {
		old := el.Value.(*memEntry)
		m.used -= int64(len(old.value))
		m.order.Remove(el)
		delete(m.items, key)
		_ = old
	}
	if int64(len(value)) <= m.capacity {
		val := make([]byte, len(value))
		copy(val, value)
		el := m.order.PushFront(&memEntry{key: key, value: val})
		m.items[key] = el
		m.used += int64(len(val))
	}
	for m.used > m.capacity {
		back := m.order.Back()
		if back == nil {
			break
		}
		entry := back.Value.(*memEntry)
		m.order.Remove(back)
		delete(m.items, entry.key)
		m.used -= int64(len(entry.value))
		evicted = append(evicted, *entry)
	}
	onEvict := m.OnEvict
	m.mu.Unlock()
	if onEvict != nil {
		for _, e := range evicted {
			onEvict(e.key, e.value)
		}
	}
}

// Remove drops the entry under key if present.
func (m *Memory) Remove(key string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.items[key]; ok {
		entry := el.Value.(*memEntry)
		m.used -= int64(len(entry.value))
		m.order.Remove(el)
		delete(m.items, key)
	}
}

// Clear drops every entry without invoking the eviction callback (an
// explicit drop, not a capacity eviction).
func (m *Memory) Clear() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.items = make(map[string]*list.Element)
	m.order.Init()
	m.used = 0
}

// Len returns the number of cached entries.
func (m *Memory) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.items)
}

// Used returns the number of cached bytes.
func (m *Memory) Used() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.used
}

// Stats returns hit/miss counters.
func (m *Memory) Stats() (hits, misses int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses
}

// --- disk LRU ---

// Disk is a byte-budgeted LRU cache of whole files stored under a local
// directory. Keys are encoded reversibly (url-safe base64) into file names;
// entries survive process restarts (a fresh Disk rescans the directory and
// recovers the original keys from the file names).
type Disk struct {
	mu       sync.Mutex
	dir      string
	capacity int64
	used     int64
	// lastUse orders keys for eviction.
	lastUse map[string]time.Time
	sizes   map[string]int64
	// pins counts outstanding Pin calls per key; pinned entries are never
	// evicted by the byte budget (the background uploader pins the dirty
	// versions it streams out of the cache until they reach the cloud).
	pins map[string]int
	seq  int64

	hits, misses int64
}

// NewDisk creates (and if necessary scans) a disk cache rooted at dir bounded
// to capacity bytes.
func NewDisk(dir string, capacity int64) (*Disk, error) {
	if capacity <= 0 {
		capacity = 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: creating disk cache dir: %w", err)
	}
	d := &Disk{dir: dir, capacity: capacity, lastUse: make(map[string]time.Time), sizes: make(map[string]int64), pins: make(map[string]int)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("cache: scanning disk cache dir: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		key, ok := decodeKey(e.Name())
		if !ok {
			// Not a valid encoding: a legacy entry from the old lossy
			// sanitizer or a stray file. It can never be served (its original
			// key is unrecoverable), so delete it rather than letting it
			// occupy the budget untracked and unevictable forever.
			_ = os.Remove(filepath.Join(dir, e.Name()))
			continue
		}
		d.lastUse[key] = info.ModTime()
		d.sizes[key] = info.Size()
		d.used += info.Size()
	}
	return d, nil
}

// encodeKey turns an arbitrary cache key into a safe file name. The encoding
// must be injective and reversible: entries rehydrated by NewDisk after a
// restart have to map back to the exact original key, so lossy sanitizing
// (collapsing '/' and ':' into '_') is not an option — colliding keys would
// silently serve each other's contents.
func encodeKey(key string) string {
	return base64.RawURLEncoding.EncodeToString([]byte(key))
}

// decodeKey reverses encodeKey; ok is false for file names that are not a
// valid encoding.
func decodeKey(name string) (key string, ok bool) {
	b, err := base64.RawURLEncoding.DecodeString(name)
	if err != nil {
		return "", false
	}
	return string(b), true
}

func (d *Disk) path(key string) string { return filepath.Join(d.dir, encodeKey(key)) }

// Get reads a cached file. The lastUse/sizes maps are keyed by the original
// (decoded) key, matching what NewDisk rehydrates.
func (d *Disk) Get(key string) ([]byte, bool) {
	d.mu.Lock()
	_, ok := d.lastUse[key]
	if ok {
		d.hits++
		d.lastUse[key] = time.Now().Add(time.Duration(d.seq))
		d.seq++
	} else {
		d.misses++
	}
	d.mu.Unlock()
	if !ok {
		return nil, false
	}
	data, err := os.ReadFile(d.path(key))
	if err != nil {
		return nil, false
	}
	return data, true
}

// Put writes a file to the cache, evicting the least recently used entries to
// respect the byte budget. The file is written to a temporary name and
// renamed into place: a same-key rewrite replaces the entry atomically, so
// a concurrent streaming reader of the old entry (the background uploader
// holds Open()'d pinned entries while it drains its queue) keeps reading
// the complete old bytes from its inode instead of observing an in-place
// truncation.
func (d *Disk) Put(key string, value []byte) error {
	if int64(len(value)) > d.capacity {
		return nil // larger than the whole cache: skip silently
	}
	tmp, err := os.CreateTemp(d.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("cache: writing disk cache entry: %w", err)
	}
	if _, err := tmp.Write(value); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: writing disk cache entry: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: writing disk cache entry: %w", err)
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: writing disk cache entry: %w", err)
	}
	if err := os.Rename(tmp.Name(), d.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: writing disk cache entry: %w", err)
	}
	d.mu.Lock()
	if old, ok := d.sizes[key]; ok {
		d.used -= old
	}
	d.sizes[key] = int64(len(value))
	d.lastUse[key] = time.Now().Add(time.Duration(d.seq))
	d.seq++
	d.used += int64(len(value))
	var evict []string
	for d.used > d.capacity {
		oldestKey := ""
		var oldest time.Time
		for k, t := range d.lastUse {
			if k == key || d.pins[k] > 0 {
				continue
			}
			if oldestKey == "" || t.Before(oldest) {
				oldestKey, oldest = k, t
			}
		}
		if oldestKey == "" {
			break
		}
		d.used -= d.sizes[oldestKey]
		delete(d.sizes, oldestKey)
		delete(d.lastUse, oldestKey)
		evict = append(evict, oldestKey)
	}
	d.mu.Unlock()
	for _, k := range evict {
		_ = os.Remove(d.path(k))
	}
	return nil
}

// Remove deletes a cached file. A key the cache does not hold costs a map
// lookup and no system call, so callers need not track what they stored.
func (d *Disk) Remove(key string) {
	d.mu.Lock()
	sz, ok := d.sizes[key]
	if ok {
		d.used -= sz
		delete(d.sizes, key)
		delete(d.lastUse, key)
		delete(d.pins, key)
	}
	d.mu.Unlock()
	if ok {
		_ = os.Remove(d.path(key))
	}
}

// Pin marks a cached entry as non-evictable and reports whether the entry
// is present (an absent key is not pinned). Pins nest: each Pin needs a
// matching Unpin. The background uploader pins the dirty version it is
// about to stream to the cloud so the byte budget cannot evict it while it
// waits in the upload queue.
func (d *Disk) Pin(key string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.sizes[key]; !ok {
		return false
	}
	d.pins[key]++
	return true
}

// Unpin releases one Pin on key.
func (d *Disk) Unpin(key string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n, ok := d.pins[key]; ok {
		if n <= 1 {
			delete(d.pins, key)
		} else {
			d.pins[key] = n - 1
		}
	}
}

// Open returns a streaming reader over a cached entry together with its
// size, without loading the contents into memory — the background uploader
// streams queued dirty files straight from the cache to the cloud. The
// caller must close the returned file; a concurrent eviction (the entry
// should be pinned to prevent one) surfaces as a read error, never partial
// silence, because the file is opened before the entry is re-checked.
func (d *Disk) Open(key string) (io.ReadSeekCloser, int64, bool) {
	d.mu.Lock()
	size, ok := d.sizes[key]
	if ok {
		d.hits++
		d.lastUse[key] = time.Now().Add(time.Duration(d.seq))
		d.seq++
	} else {
		d.misses++
	}
	d.mu.Unlock()
	if !ok {
		return nil, 0, false
	}
	f, err := os.Open(d.path(key))
	if err != nil {
		return nil, 0, false
	}
	return f, size, true
}

// Clear drops every cached file.
func (d *Disk) Clear() {
	d.mu.Lock()
	keys := make([]string, 0, len(d.sizes))
	for k := range d.sizes {
		keys = append(keys, k)
	}
	d.sizes = make(map[string]int64)
	d.lastUse = make(map[string]time.Time)
	d.pins = make(map[string]int)
	d.used = 0
	d.mu.Unlock()
	for _, k := range keys {
		_ = os.Remove(d.path(k))
	}
}

// Len returns the number of cached files.
func (d *Disk) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.sizes)
}

// Used returns the cached byte total.
func (d *Disk) Used() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.used
}

// Stats returns hit/miss counters.
func (d *Disk) Stats() (hits, misses int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.hits, d.misses
}

// --- short-lived metadata cache ---

// Metadata is the short-term metadata cache: entries expire after a
// configurable duration (500 ms by default in the paper's experiments) so
// that bursts of stat calls triggered by a single application action reuse
// the value fetched from the coordination service without compromising
// strong consistency for longer.
type Metadata struct {
	mu      sync.Mutex
	ttl     time.Duration
	clk     clock.Clock
	entries map[string]metaEntry

	hits, misses int64
}

type metaEntry struct {
	value   []byte
	expires time.Time
}

// NewMetadata creates a metadata cache with the given expiration time. A TTL
// of zero disables caching entirely (every Get misses).
func NewMetadata(ttl time.Duration, clk clock.Clock) *Metadata {
	if clk == nil {
		clk = clock.Real()
	}
	return &Metadata{ttl: ttl, clk: clk, entries: make(map[string]metaEntry)}
}

// TTL returns the configured expiration time.
func (c *Metadata) TTL() time.Duration { return c.ttl }

// Get returns the cached value if present and not expired.
func (c *Metadata) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ttl <= 0 {
		c.misses++
		return nil, false
	}
	e, ok := c.entries[key]
	if !ok || c.clk.Now().After(e.expires) {
		if ok {
			delete(c.entries, key)
		}
		c.misses++
		return nil, false
	}
	c.hits++
	out := make([]byte, len(e.value))
	copy(out, e.value)
	return out, true
}

// Put caches a value until the TTL elapses.
func (c *Metadata) Put(key string, value []byte) {
	if c.ttl <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	val := make([]byte, len(value))
	copy(val, value)
	c.entries[key] = metaEntry{value: val, expires: c.clk.Now().Add(c.ttl)}
}

// Invalidate drops a cached entry (used after local updates so subsequent
// reads observe the new metadata immediately).
func (c *Metadata) Invalidate(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.entries, key)
}

// InvalidateAll clears the cache.
func (c *Metadata) InvalidateAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[string]metaEntry)
}

// Stats returns hit/miss counters.
func (c *Metadata) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
