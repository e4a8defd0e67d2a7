package bench

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"sync"

	"scfs/internal/fsapi"
)

// Every file's contents are a seeded random body of its size class behind a
// 12-byte header naming the file and its version, so a reader can tell from
// the bytes alone whether it got the version the script last wrote.

const headerLen = 12

// sizeClass indexes the three payload sizes.
type sizeClass uint8

const (
	small sizeClass = iota
	large
	share
	numSizes
)

var classBytes = [numSizes]int{SmallSize, LargeSize, ShareSize}

// payloads holds one private working buffer per size class.
type payloads [numSizes][]byte

// newPayloads derives the bodies from the seed. Each caller gets its own
// copy, because content stamps the header in place.
func newPayloads(seed int64) *payloads {
	var p payloads
	for c := range p {
		p[c] = make([]byte, classBytes[c])
		rand.New(rand.NewSource(seed ^ int64(c+1)<<32)).Read(p[c])
	}
	return &p
}

// clone returns a private copy of the working buffers.
func (p *payloads) clone() *payloads {
	var q payloads
	for c := range p {
		q[c] = append([]byte(nil), p[c]...)
	}
	return &q
}

func fileKey(path string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(path))
	return h.Sum32()
}

// content returns the bytes of the given version of path. The slice is the
// working buffer: it is valid until the next call for the same size class.
func (p *payloads) content(c sizeClass, path string, version uint32) []byte {
	buf := p[c]
	binary.BigEndian.PutUint32(buf[0:], fileKey(path))
	binary.BigEndian.PutUint64(buf[4:], uint64(version))
	return buf
}

// verify reports whether data is exactly the given version of path.
func (p *payloads) verify(c sizeClass, path string, version uint32, data []byte) bool {
	if len(data) != classBytes[c] {
		return false
	}
	if binary.BigEndian.Uint32(data[0:]) != fileKey(path) || binary.BigEndian.Uint64(data[4:]) != uint64(version) {
		return false
	}
	return bytes.Equal(data[headerLen:], p[c][headerLen:])
}

// preload creates the namespace of a layout through the loader mount:
// directories, the empty files stat and readdir walk, and version 0 of every
// file the clients read or overwrite.
func preload(ctx context.Context, m mount, l Layout, seed int64) error {
	type task struct {
		path  string
		class sizeClass
		empty bool
	}
	dirs := []string{"/ns"}
	for d := 0; d < l.Dirs; d++ {
		dirs = append(dirs, nsDir(d))
	}
	var tasks []task
	for i := 0; i < l.Dirs*l.EntriesPerDir; i++ {
		tasks = append(tasks, task{path: nsPath(i, l), empty: true})
	}
	for c := 0; c < Clients; c++ {
		dirs = append(dirs, clientDir(c), scratchDir(c))
		add := func(n int, path func(c, i int) string, class sizeClass) {
			for i := 0; i < n; i++ {
				tasks = append(tasks, task{path: path(c, i), class: class})
			}
		}
		add(l.ColdLarge, coldLargePath, large)
		add(l.LargeTargets, largePath, large)
		add(l.ShareSlots, sharePath, share)
		add(l.SmallTargets, smallPath, small)
		add(l.ColdSmall, coldSmallPath, small)
		add(l.Hot, hotPath, small)
	}
	for _, d := range dirs {
		if err := m.Mkdir(ctx, d); err != nil {
			return err
		}
	}

	// Enough workers for the coalescer of the BFT regime to batch their
	// coordination calls; the processor-bound regimes gain nothing past two.
	const workers = 16
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
		next  int
	)
	bodies := newPayloads(seed)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := bodies.clone()
			for {
				mu.Lock()
				i := next
				next++
				failed := first != nil
				mu.Unlock()
				if failed || i >= len(tasks) {
					return
				}
				t := tasks[i]
				var err error
				if t.empty {
					err = createEmpty(ctx, m, t.path)
				} else {
					err = m.WriteFile(ctx, t.path, p.content(t.class, t.path, 0))
				}
				if err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// createEmpty is the create operation the scripts time: open with
// Create|Exclusive, then close, with no data.
func createEmpty(ctx context.Context, m mount, path string) error {
	h, err := m.Open(ctx, path, fsapi.ReadWrite|fsapi.Create|fsapi.Exclusive)
	if err != nil {
		return err
	}
	return h.Close(ctx)
}
