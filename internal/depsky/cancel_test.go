package depsky

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"scfs/internal/cloud"
	"scfs/internal/cloudsim"
	"scfs/internal/seccrypto"
)

// newSkewedManager builds a 4-cloud manager where cloud `slow` has the given
// RTT and the rest are instant.
func newSkewedManager(t testing.TB, slow int, rtt time.Duration, chunkSize int) ([]*cloudsim.Provider, *Manager) {
	t.Helper()
	providers := make([]*cloudsim.Provider, 4)
	clients := make([]cloud.ObjectStore, 4)
	for i := range providers {
		opts := cloudsim.Options{Name: fmt.Sprintf("c%d", i)}
		if i == slow {
			opts.Latency = cloudsim.LatencyProfile{RTT: rtt}
		}
		providers[i] = cloudsim.NewProvider(opts)
		clients[i] = providers[i].MustClient(providers[i].CreateAccount("alice"))
	}
	m, err := New(Options{Clouds: clients, F: 1, ChunkSize: chunkSize})
	if err != nil {
		t.Fatal(err)
	}
	return providers, m
}

// waitGoroutines polls until the goroutine count drops to at most want, or
// the timeout expires; it returns the last observed count. This is the
// hand-rolled leak check: cancelled per-cloud RPCs must unwind promptly, so
// the count returns to its pre-operation level long before a multi-second
// straggler would have finished on its own.
func waitGoroutines(want int, timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	for {
		runtime.GC() // nudge finalizers; cancelled goroutines need no GC but this keeps counts stable
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestQuorumOpsLeaveNoStragglerGoroutines is the per-cloud goroutine-leak
// check: with one cloud a 5-second straggler, a *completed* WriteFrom and a
// completed ranged Open/read must leave no cloud RPCs running — the quorum
// verdict cancels the losers instead of letting them sleep out their
// simulated round trips.
func TestQuorumOpsLeaveNoStragglerGoroutines(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second straggler latencies")
	}
	const straggler = 5 * time.Second
	baseline := runtime.NumGoroutine()

	_, m := newSkewedManager(t, 3, straggler, 4096)
	data := bytes.Repeat([]byte("leakcheck "), 2000) // ~5 chunks

	start := time.Now()
	info, err := m.WriteFrom(context.Background(), "u", seccrypto.Hash(data), bytes.NewReader(data))
	if err != nil {
		t.Fatalf("WriteFrom: %v", err)
	}
	if elapsed := time.Since(start); elapsed > straggler/2 {
		t.Fatalf("WriteFrom waited on the straggler: %v", elapsed)
	}

	start = time.Now()
	r, _, err := m.OpenMatching(context.Background(), "u", info.DataHash)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	if !bytes.Equal(got, data) {
		t.Fatal("read mismatch")
	}
	if elapsed := time.Since(start); elapsed > straggler/2 {
		t.Fatalf("read waited on the straggler: %v", elapsed)
	}

	// All straggler RPCs were cancelled by the quorum verdicts; the
	// goroutine count must return to baseline well within the straggler's
	// 5s RTT (allow a small slack for the runtime's own goroutines).
	const slack = 2
	if n := waitGoroutines(baseline+slack, 2*time.Second); n > baseline+slack {
		t.Fatalf("%d goroutines still running (baseline %d): straggler RPCs leaked", n, baseline)
	}
}

// TestCancellationIsPrompt pins the acceptance criterion: with a 5-second
// straggler profile on *every* cloud, cancelling the context returns
// ctx.Err() in well under 100ms.
func TestCancellationIsPrompt(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second straggler latencies")
	}
	providers := make([]*cloudsim.Provider, 4)
	clients := make([]cloud.ObjectStore, 4)
	for i := range providers {
		providers[i] = cloudsim.NewProvider(cloudsim.Options{
			Name:    fmt.Sprintf("c%d", i),
			Latency: cloudsim.LatencyProfile{RTT: 5 * time.Second},
		})
		clients[i] = providers[i].MustClient(providers[i].CreateAccount("alice"))
	}
	m, err := New(Options{Clouds: clients, F: 1})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := m.Read(ctx, "u")
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the fan-out park in its sleeps
	cancelled := time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if lag := time.Since(cancelled); lag > 100*time.Millisecond {
			t.Fatalf("cancellation took %v, want < 100ms", lag)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Read did not return after cancellation")
	}
}

// gateStore blocks every Put until the caller's context is cancelled,
// signalling each attempt. It makes "cancelled mid-quorum-upload"
// deterministic instead of timing-dependent.
type gateStore struct {
	cloud.ObjectStore
	started chan struct{}
}

func (g *gateStore) Put(ctx context.Context, name string, data []byte) error {
	select {
	case g.started <- struct{}{}:
	default:
	}
	<-ctx.Done()
	return ctx.Err()
}

// TestCancelledWriteLeavesNoPartialVersion: a ctx cancelled while the chunk
// uploads are in flight must abort the write with ctx.Err() and leave no
// partially visible version: no descriptor names shards that were not fully
// uploaded.
func TestCancelledWriteLeavesNoPartialVersion(t *testing.T) {
	providers, inner := testClouds(t, 4)
	gated := make([]cloud.ObjectStore, 4)
	started := make(chan struct{}, 16)
	for i, c := range inner {
		gated[i] = &gateStore{ObjectStore: c, started: started}
	}
	m, err := New(Options{Clouds: gated, F: 1, ChunkSize: 1024})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		data := bytes.Repeat([]byte{7}, 5000)
		_, err := m.WriteFrom(ctx, "u", seccrypto.Hash(data), bytes.NewReader(data))
		done <- err
	}()
	<-started // at least one chunk upload is in flight
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("WriteFrom err = %v, want context.Canceled", err)
	}

	// No version may be visible, and no object may have reached any cloud.
	versions, err := m.ListVersions(context.Background(), "u")
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != 0 {
		t.Fatalf("cancelled write left %d visible versions: %+v", len(versions), versions)
	}
	for i, p := range providers {
		if n := p.ObjectCount(); n != 0 {
			t.Fatalf("cloud %d stores %d objects after a cancelled write", i, n)
		}
	}
}

// TestDeadlineLongerThanQuorumSucceeds: a deadline shorter than the slowest
// cloud but longer than the quorum must not fail the operation — the quorum
// answers before the deadline and the straggler is cancelled, not waited
// for.
func TestDeadlineLongerThanQuorumSucceeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second straggler latencies")
	}
	_, m := newSkewedManager(t, 2, 5*time.Second, 4096)
	data := bytes.Repeat([]byte("deadline "), 1500)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := m.WriteFrom(ctx, "u", seccrypto.Hash(data), bytes.NewReader(data)); err != nil {
		t.Fatalf("WriteFrom under quorum-sized deadline: %v", err)
	}
	got, _, err := m.ReadMatching(ctx, "u", seccrypto.Hash(data))
	if err != nil {
		t.Fatalf("Read under quorum-sized deadline: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read mismatch")
	}
	if ctx.Err() != nil {
		t.Fatal("operations overran the deadline")
	}
}

// TestOpenReadRetriesAfterCancelledFirstRead: a cancelled first read
// through an opened reader must not poison the reader — a later read of the
// same chunk with a live context retries the fetch and succeeds.
func TestOpenReadRetriesAfterCancelledFirstRead(t *testing.T) {
	const cs = 2048
	_, m := newChunkedManager(t, ProtocolCA, cs)
	data := bytes.Repeat([]byte("retry "), 500)
	info := writeFrom(t, m, "u", data)
	r, _, err := m.OpenMatching(bg, "u", info.DataHash) // two chunks: both reads fetch chunk 1
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	dead, cancel := context.WithCancel(bg)
	cancel()
	buf := make([]byte, len(data)-cs)
	if _, err := r.ReadAtContext(dead, buf, cs); !errors.Is(err, context.Canceled) {
		t.Fatalf("read under dead ctx: %v, want context.Canceled", err)
	}
	n, err := r.ReadAtContext(bg, buf, cs)
	if err != nil && err != io.EOF {
		t.Fatalf("read after cancelled read: %v (transient error was latched)", err)
	}
	if n != len(buf) || !bytes.Equal(buf, data[cs:]) {
		t.Fatal("read after cancelled read returned wrong data")
	}
}
