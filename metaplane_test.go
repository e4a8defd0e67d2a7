package scfs_test

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"scfs"
)

// TestCoordShardsMount: a cross-directory rename of a populated directory
// loses no record on the way to the deeper target. (The name dates from when
// a mount could partition its namespace across coordination shards, where
// this rename moved records between them.)
func TestCoordShardsMount(t *testing.T) {
	m := mount(t)
	for _, dir := range []string{"/a", "/b"} {
		if err := m.Mkdir(bg, dir); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := scfs.WriteFile(bg, m, fmt.Sprintf("/a/f%d.txt", i), []byte(fmt.Sprintf("file %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	infos, err := m.ReadDir(bg, "/a")
	if err != nil || len(infos) != 10 {
		t.Fatalf("ReadDir /a = %d entries, %v", len(infos), err)
	}
	if err := m.Rename(bg, "/a", "/b/sub"); err != nil {
		t.Fatal(err)
	}
	if infos, err := m.ReadDir(bg, "/b/sub"); err != nil || len(infos) != 10 {
		t.Fatalf("ReadDir /b/sub = %d entries, %v; want 10", len(infos), err)
	}
	for i := 0; i < 10; i++ {
		got, err := scfs.ReadFile(bg, m, fmt.Sprintf("/b/sub/f%d.txt", i))
		if err != nil || string(got) != fmt.Sprintf("file %d", i) {
			t.Fatalf("post-rename read f%d = %q, %v", i, got, err)
		}
	}
	if _, err := m.Stat(bg, "/a"); !errors.Is(err, scfs.ErrNotExist) {
		t.Fatalf("Stat /a after the rename: %v, want ErrNotExist", err)
	}
	if s := m.Stats(); s.CoordAccesses == 0 {
		t.Fatal("mount reported zero coordination accesses")
	}
}

// TestDirectoryRenameMovesItsFiles: a directory rename rewrites the keys of
// its subtree's records, not the paths inside their values. The files must be
// listed, found, written and collected under the new path all the same: the
// key is the path.
func TestDirectoryRenameMovesItsFiles(t *testing.T) {
	t.Run("one service", func(t *testing.T) {
		m := mount(t)
		if err := m.Mkdir(bg, "/a"); err != nil {
			t.Fatal(err)
		}
		if err := scfs.WriteFile(bg, m, "/a/f", []byte("v1")); err != nil {
			t.Fatal(err)
		}
		if err := m.Rename(bg, "/a", "/b"); err != nil {
			t.Fatal(err)
		}
		if infos, err := m.ReadDir(bg, "/b"); err != nil || len(infos) != 1 || infos[0].Path != "/b/f" {
			t.Fatalf("ReadDir /b = %+v, %v; want /b/f", infos, err)
		}
		if fi, err := m.Stat(bg, "/b/f"); err != nil || fi.Path != "/b/f" {
			t.Fatalf("Stat /b/f = %+v, %v", fi, err)
		}
		if err := scfs.WriteFile(bg, m, "/b/f", []byte("v2")); err != nil {
			t.Fatal(err)
		}
		if got, err := scfs.ReadFile(bg, m, "/b/f"); err != nil || string(got) != "v2" {
			t.Fatalf("read /b/f = %q, %v; want v2", got, err)
		}
		if _, err := m.Stat(bg, "/a/f"); !errors.Is(err, scfs.ErrNotExist) {
			t.Fatalf("Stat /a/f after the rename: %v, want ErrNotExist", err)
		}
		report, err := m.Collect(bg)
		if err != nil || report.VersionsDeleted != 1 {
			t.Fatalf("Collect deleted %d versions (%v), want v1's", report.VersionsDeleted, err)
		}
		if got, err := scfs.ReadFile(bg, m, "/b/f"); err != nil || string(got) != "v2" {
			t.Fatalf("read /b/f after the collection = %q, %v; want v2", got, err)
		}
	})
}

// TestPipelinedReplicatedMount: the default coordination service is one
// BFT-replicated four-replica group behind a pipelined client; concurrent
// sessions must not interfere, and unmounting must not leak the group's
// goroutines.
func TestPipelinedReplicatedMount(t *testing.T) {
	t.Run("default", func(t *testing.T) {
		before := runtime.NumGoroutine()
		m, err := scfs.New(bg, scfs.WithDiskCache(t.TempDir(), 0))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Mkdir(bg, "/p"); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 24)
		for i := 0; i < 24; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				path := fmt.Sprintf("/p/s%02d.txt", i)
				if err := scfs.WriteFile(bg, m, path, []byte(fmt.Sprintf("session %d", i))); err != nil {
					errs <- fmt.Errorf("write %s: %w", path, err)
					return
				}
				got, err := scfs.ReadFile(bg, m, path)
				if err != nil || string(got) != fmt.Sprintf("session %d", i) {
					errs <- fmt.Errorf("read %s = %q, %v", path, got, err)
				}
			}(i)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if err := m.Close(bg); err != nil {
			t.Fatal(err)
		}
		// The replica group and pipelined client must be gone after unmount.
		deadline := time.After(5 * time.Second)
		for {
			if runtime.NumGoroutine() <= before+3 {
				break
			}
			select {
			case <-deadline:
				t.Fatalf("goroutines: %d before mount, %d after unmount", before, runtime.NumGoroutine())
			case <-time.After(10 * time.Millisecond):
			}
		}
	})
}

// TestCoordTelemetryCounters: with metrics on, every coordination command is
// exported as coord_ops_total{op} — a batch once more as op="batch" —
// and surfaces in Stats().Telemetry, while CoordAccesses counts round trips.
func TestCoordTelemetryCounters(t *testing.T) {
	m := mount(t, scfs.WithMetrics())
	if err := m.Mkdir(bg, "/tele"); err != nil { // cas: the create is its own lookup
		t.Fatal(err)
	}
	// [trylock, cas, get /tele] (open and create), [put, unlock] (close).
	if err := scfs.WriteFile(bg, m, "/tele/x.txt", []byte("counted")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadDir(bg, "/tele"); err != nil { // [get, list]
		t.Fatal(err)
	}
	s := m.Stats()
	got := make(map[string]int64)
	for name, v := range s.Telemetry.Counters {
		if op, ok := strings.CutPrefix(name, `coord_ops_total{op="`); ok {
			got[strings.TrimSuffix(op, `"}`)] = v
		} else if strings.HasPrefix(name, "coord_ops_total{") {
			t.Errorf("counter %q carries a label besides op", name)
		}
	}
	want := map[string]int64{"get": 2, "cas": 2, "put": 1, "list": 1, "trylock": 1, "unlock": 1, "batch": 3}
	for op, n := range want {
		if got[op] != n {
			t.Errorf("coord_ops_total op=%q is %d, want %d; counters: %v", op, got[op], n, got)
		}
	}
	// Eight commands, seven of them carried by the three batches: four round
	// trips, the quantity the paper's §4 prices.
	if s.CoordAccesses != 4 {
		t.Fatalf("CoordAccesses %d, want 4", s.CoordAccesses)
	}
}
