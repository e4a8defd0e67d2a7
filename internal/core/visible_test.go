package core

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"scfs/internal/clock"
	"scfs/internal/cloud"
	"scfs/internal/fsapi"
	"scfs/internal/seccrypto"
	"scfs/internal/storage"
)

// hidingStore is the backend of the loop tests. It answers the first misses
// requests for a version — whole reads and ranged opens alike — with err
// (storage.ErrVersionNotFound plays a version the clouds do not show yet),
// and lets the real backend answer after that.
type hidingStore struct {
	*storage.CloudOfClouds

	mu           sync.Mutex
	misses       int
	err          error
	reads, opens int // requests seen, by face
}

// hidden counts one request and reports the error to answer it with, if any.
func (h *hidingStore) hidden(ranged bool) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if ranged {
		h.opens++
	} else {
		h.reads++
	}
	if h.misses > 0 {
		h.misses--
		return h.err
	}
	return nil
}

func (h *hidingStore) ReadVersion(ctx context.Context, fileID, hash string) ([]byte, error) {
	if err := h.hidden(false); err != nil {
		return nil, err
	}
	return h.CloudOfClouds.ReadVersion(ctx, fileID, hash)
}

func (h *hidingStore) OpenVersionAt(ctx context.Context, fileID, hash string) (storage.ReaderAtCloser, error) {
	if err := h.hidden(true); err != nil {
		return nil, err
	}
	return h.CloudOfClouds.OpenVersionAt(ctx, fileID, hash)
}

// stepClock is a clock.Sim on which a pause costs no wall time: After notes
// the pause and moves simulated time past it at once — or, when onPause is
// set, leaves the sleeper parked and calls that instead.
type stepClock struct {
	*clock.Sim

	mu      sync.Mutex
	pauses  []time.Duration
	onPause func()
}

func (c *stepClock) After(d time.Duration) <-chan time.Time {
	ch := c.Sim.After(d)
	c.mu.Lock()
	c.pauses = append(c.pauses, d)
	onPause := c.onPause
	c.mu.Unlock()
	if onPause != nil {
		onPause()
	} else {
		c.Sim.Advance(d)
	}
	return ch
}

// loopMount is a mount over a hidingStore on a stepClock.
type loopMount struct {
	agent *Agent
	store *hidingStore
	clk   *stepClock
}

func newLoopMount(t *testing.T, chunk int) *loopMount {
	t.Helper()
	m := &loopMount{clk: &stepClock{Sim: clock.NewSim(time.Unix(1700000000, 0))}}
	m.agent, _ = testAgentWith(t, chunk,
		func(c cloud.ObjectStore) cloud.ObjectStore { return c },
		func(s *storage.CloudOfClouds) storage.VersionedStore {
			m.store = &hidingStore{CloudOfClouds: s}
			return m.store
		},
		func(o *Options) { o.Clock = m.clk })
	return m
}

// hide makes the store answer its next misses requests with err.
func (m *loopMount) hide(misses int, err error) {
	m.store.mu.Lock()
	m.store.misses, m.store.err = misses, err
	m.store.mu.Unlock()
}

// writeThenRead closes data into /f, empties the caches, lets arm set the
// store and the clock up, and reads /f back through a fresh open.
func (m *loopMount) writeThenRead(t *testing.T, data []byte, arm func(cancel context.CancelFunc)) ([]byte, error) {
	t.Helper()
	if err := fsapi.WriteFile(bg, m.agent, "/f", data); err != nil {
		t.Fatal(err)
	}
	m.agent.memCache.Clear()
	m.agent.diskCache.Clear()
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	arm(cancel)
	return fsapi.ReadFile(ctx, m.agent, "/f")
}

// TestAwaitVisible drives the consistency-anchor read loop through a mount,
// on both paths that run it: a file within residencyBound (whole fetch) and
// one above it (ranged open).
func TestAwaitVisible(t *testing.T) {
	const chunk = residencyBound / 4
	const never = 1 << 20 // misses no loop outlasts
	outage := errors.New("every cloud is down")
	sizes := map[string]int{"small": 1000, "large": 5*chunk + 7}

	// requests is what the store saw on the path a file of that size takes,
	// and on the other one.
	requests := func(m *loopMount, size string) (own, other int) {
		m.store.mu.Lock()
		defer m.store.mu.Unlock()
		if size == "large" {
			return m.store.opens, m.store.reads
		}
		return m.store.reads, m.store.opens
	}

	for size, bytesLen := range sizes {
		t.Run(size+"/visible after 3 misses", func(t *testing.T) {
			m, want := newLoopMount(t, chunk), randData(t, bytesLen)
			got, err := m.writeThenRead(t, want, func(context.CancelFunc) { m.hide(3, storage.ErrVersionNotFound) })
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("read: mismatch or %v", err)
			}
			if len(m.clk.pauses) != 3 {
				t.Fatalf("%d pauses, want 3", len(m.clk.pauses))
			}
			for _, d := range m.clk.pauses {
				if d != visibilityPause {
					t.Fatalf("paused %v, want %v", d, visibilityPause)
				}
			}
			if own, other := requests(m, size); own != 4 || other != 0 {
				t.Fatalf("%d requests on the file's path and %d on the other, want 4 and 0", own, other)
			}
			st := m.agent.Stats()
			if st.CloudReads != 1 {
				t.Fatalf("CloudReads = %d, want 1", st.CloudReads)
			}
			// Only the whole fetch leaves the file in the caches.
			cached := map[string]int{"small": 1, "large": 0}[size]
			if m.agent.memCache.Len() != cached || m.agent.diskCache.Len() != cached {
				t.Fatalf("caches hold %d and %d entries, want %d each", m.agent.memCache.Len(), m.agent.diskCache.Len(), cached)
			}
			if wantDown := int64(cached * len(want)); st.CloudBytesDown != wantDown {
				t.Fatalf("CloudBytesDown = %d, want %d", st.CloudBytesDown, wantDown)
			}
		})

		t.Run(size+"/never visible", func(t *testing.T) {
			m := newLoopMount(t, chunk)
			_, err := m.writeThenRead(t, randData(t, bytesLen), func(context.CancelFunc) { m.hide(never, storage.ErrVersionNotFound) })
			if !errors.Is(err, storage.ErrVersionNotFound) {
				t.Fatalf("err = %v, want it to wrap storage.ErrVersionNotFound", err)
			}
			// Waited for once: the ranged open does not hand a version that
			// never appeared to the whole fetch for a second wait.
			if own, other := requests(m, size); own != visibilityAttempts || other != 0 {
				t.Fatalf("%d requests on the file's path and %d on the other, want %d and 0", own, other, visibilityAttempts)
			}
			if len(m.clk.pauses) != visibilityAttempts {
				t.Fatalf("%d pauses, want %d", len(m.clk.pauses), visibilityAttempts)
			}
		})

		for name, hard := range map[string]error{"integrity": storage.ErrIntegrity, "outage": outage} {
			t.Run(size+"/"+name+" fails at once", func(t *testing.T) {
				m := newLoopMount(t, chunk)
				_, err := m.writeThenRead(t, randData(t, bytesLen), func(context.CancelFunc) { m.hide(never, hard) })
				if !errors.Is(err, hard) {
					t.Fatalf("err = %v, want it to wrap %v", err, hard)
				}
				if len(m.clk.pauses) != 0 {
					t.Fatalf("paused %d times before giving up on an error no wait cures", len(m.clk.pauses))
				}
			})
		}

		t.Run(size+"/cancelled during a pause", func(t *testing.T) {
			m := newLoopMount(t, chunk)
			_, err := m.writeThenRead(t, randData(t, bytesLen), func(cancel context.CancelFunc) {
				m.hide(never, storage.ErrVersionNotFound)
				m.clk.onPause = cancel
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if own, other := requests(m, size); own != 1 || other != 0 || len(m.clk.pauses) != 1 {
				t.Fatalf("%d+%d requests and %d pauses after the cancellation, want 1+0 and 1", own, other, len(m.clk.pauses))
			}
		})

		// Consistency-on-close: the hash a close anchors is the hash of what
		// it wrote, and a reader gets that version — not the older one the
		// clouds already show — however late it appears.
		t.Run(size+"/overwrites read back the version just anchored", func(t *testing.T) {
			m := newLoopMount(t, chunk)
			for i := 0; i < 5; i++ {
				want := randData(t, bytesLen+i)
				got, err := m.writeThenRead(t, want, func(context.CancelFunc) { m.hide(2, storage.ErrVersionNotFound) })
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("overwrite %d: read mismatch or %v", i, err)
				}
				if md, err := m.agent.getMetadata(bg, "/f", false); err != nil || md.Hash() != seccrypto.Hash(want) {
					t.Fatalf("overwrite %d: anchored hash is not the contents' (%v)", i, err)
				}
			}
		})
	}

}

// TestFsyncLeavesNoEntryBehind: what Fsync flushes to the disk cache is gone
// once the file is closed, whether or not the close stored a version.
func TestFsyncLeavesNoEntryBehind(t *testing.T) {
	a, _ := testAgent(t, 4096)
	h, err := a.Open(bg, "/f", fsapi.ReadWrite|fsapi.Create)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i := 0; i < 3; i++ {
		part := randData(t, 700)
		if _, err := h.WriteAt(bg, part, int64(len(want))); err != nil {
			t.Fatal(err)
		}
		want = append(want, part...)
		if err := h.Fsync(bg); err != nil {
			t.Fatal(err)
		}
	}
	if n := a.diskCache.Len(); n != 1 {
		t.Fatalf("disk cache holds %d entries while the fsync'd file is open, want 1", n)
	}
	if err := h.Close(bg); err != nil {
		t.Fatal(err)
	}
	md, err := a.getMetadata(bg, "/f", false)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := a.diskCache.Get(cacheKey(md.FileID, md.Hash())); !ok || !bytes.Equal(got, want) || a.diskCache.Len() != 1 {
		t.Fatalf("after three fsyncs and a close the disk cache holds %d entries (the version's: %v), want exactly that one", a.diskCache.Len(), ok)
	}

	// Fsync'd, then closed with nothing to store.
	a.diskCache.Clear()
	h, err = a.Open(bg, "/f", fsapi.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Fsync(bg); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(bg); err != nil {
		t.Fatal(err)
	}
	if n := a.diskCache.Len(); n != 0 {
		t.Fatalf("a clean close of an fsync'd file left %d disk cache entries", n)
	}
}
