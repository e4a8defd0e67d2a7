package depsky

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"scfs/internal/cloud"
	"scfs/internal/cloudsim"
	"scfs/internal/iopolicy"
)

// hedgeManager builds a 4-cloud manager where the clouds' RTTs are given
// per index (0 = instant), returning the providers for request accounting.
func hedgeManager(t testing.TB, rtts []time.Duration, opts Options) (*Manager, []*cloudsim.Provider, []string) {
	t.Helper()
	providers := make([]*cloudsim.Provider, len(rtts))
	clients := make([]cloud.ObjectStore, len(rtts))
	accounts := make([]string, len(rtts))
	for i, rtt := range rtts {
		providers[i] = cloudsim.NewProvider(cloudsim.Options{
			Name:    fmt.Sprintf("c%d", i),
			Latency: cloudsim.LatencyProfile{RTT: rtt},
		})
		accounts[i] = providers[i].CreateAccount("test")
		clients[i] = providers[i].MustClient(accounts[i])
	}
	opts.Clouds = clients
	if opts.F == 0 {
		opts.F = 1
	}
	m, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return m, providers, accounts
}

// warmTracker seeds every cloud's latency series — both operation classes,
// every size bucket — so ranking and hedge delays are deterministic in
// tests regardless of which series a fan-out consults.
func warmTracker(m *Manager, rtts []time.Duration) {
	ops := []iopolicy.Op{
		iopolicy.GetOp(0), iopolicy.GetOp(1 << 20), iopolicy.GetOp(4 << 20),
		iopolicy.PutOp(0), iopolicy.PutOp(1 << 20), iopolicy.PutOp(4 << 20),
	}
	for i, rtt := range rtts {
		for k := 0; k < 20; k++ {
			for _, op := range ops {
				m.Scoreboard().Record(i, op, rtt+time.Microsecond, nil)
			}
		}
	}
}

func hedgeCtx(pol iopolicy.Policy) context.Context {
	return iopolicy.With(context.Background(), pol)
}

// TestHedgedReadSkipsStraggler is the headline behaviour: after the tracker
// has seen the straggler, a hedged read never contacts it — neither for the
// head (the three fast clouds are a quorum of responses) nor for the
// descriptor and the blocks (two fast clouds certify the one and decode a CA
// value with f=1) — and it returns at fast-cloud latency.
func TestHedgedReadSkipsStraggler(t *testing.T) {
	rtts := []time.Duration{0, 0, 0, 300 * time.Millisecond}
	m, providers, _ := hedgeManager(t, rtts, Options{})
	data := bytes.Repeat([]byte{0xA7}, 64<<10)
	if _, err := m.Write(bg, "u", data); err != nil {
		t.Fatal(err)
	}
	// Let the write's straggler uploads drain, then seed the tracker
	// deterministically.
	time.Sleep(350 * time.Millisecond)
	warmTracker(m, rtts)

	before := providers[3].TotalRequests()
	ctx := hedgeCtx(iopolicy.Policy{Hedge: iopolicy.Hedge{Percentile: 0.9}})
	start := time.Now()
	got, _, err := m.Read(ctx, "u")
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("hedged read returned wrong data")
	}
	if elapsed > 150*time.Millisecond {
		t.Fatalf("hedged read took %v; the straggler's RTT leaked into the read path", elapsed)
	}
	// Give any stray hedge a moment to surface, then check the straggler
	// was never contacted.
	time.Sleep(50 * time.Millisecond)
	if extra := providers[3].TotalRequests() - before; extra != 0 {
		t.Fatalf("straggler served %d requests during a hedged read, want 0", extra)
	}
}

// TestHedgeFiresOnlyAfterDelay pins the hedge timing: with an explicit
// preference putting a slow cloud in the preferred set and a capped hedge
// delay, the read must not succeed before the delay elapses (the decode
// needs the hedged cloud) and must not wait for the slow cloud's full RTT.
func TestHedgeFiresOnlyAfterDelay(t *testing.T) {
	const slowRTT = 400 * time.Millisecond
	const maxDelay = 60 * time.Millisecond
	rtts := []time.Duration{0, 0, 0, slowRTT}
	m, providers, _ := hedgeManager(t, rtts, Options{})
	data := bytes.Repeat([]byte{0x5E}, 32<<10)
	if _, err := m.Write(bg, "u", data); err != nil {
		t.Fatal(err)
	}
	time.Sleep(450 * time.Millisecond)
	warmTracker(m, rtts)

	// Preferred set for the descriptor and block reads (need f+1 = 2): the
	// slow cloud and one fast cloud. The head quorum (need 3) also includes
	// cloud 1. Every fan-out stalls on cloud 3 until its hedge fires at
	// maxDelay (the tracked p90 of the slow cloud, clamped down to maxDelay).
	pol := iopolicy.Policy{
		Hedge:      iopolicy.Hedge{Percentile: 0.9, MaxDelay: maxDelay},
		Preference: iopolicy.Preference{Order: []int{3, 0, 1}},
	}
	before2 := providers[2].TotalRequests()
	start := time.Now()
	got, _, err := m.Read(hedgeCtx(pol), "u")
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("wrong data")
	}
	if elapsed < maxDelay {
		t.Fatalf("read finished in %v, before the %v hedge delay — the hedge fired early", elapsed, maxDelay)
	}
	if elapsed > slowRTT {
		t.Fatalf("read took %v, the full straggler RTT: the hedge never fired", elapsed)
	}
	// The hedge actually contacted the spare cloud.
	if extra := providers[2].TotalRequests() - before2; extra == 0 {
		t.Fatal("hedge fired but the spare cloud was never contacted")
	}
}

// TestHedgeKicksImmediatelyOnFailure: a failed preferred cloud must release
// a hedge at once instead of waiting out the delay.
func TestHedgeKicksImmediatelyOnFailure(t *testing.T) {
	rtts := []time.Duration{0, 0, 0, 0}
	m, providers, _ := hedgeManager(t, rtts, Options{})
	data := bytes.Repeat([]byte{0x11}, 16<<10)
	if _, err := m.Write(bg, "u", data); err != nil {
		t.Fatal(err)
	}
	warmTracker(m, rtts)
	providers[0].SetFault(cloudsim.FaultUnavailable)

	// A huge MinDelay makes "waited for the timer" observable as a test
	// timeout; the read can only finish quickly via the failure kick.
	pol := iopolicy.Policy{
		Hedge:      iopolicy.Hedge{Percentile: 0.9, MinDelay: 10 * time.Second},
		Preference: iopolicy.Preference{Order: []int{0, 1, 2, 3}},
	}
	start := time.Now()
	got, _, err := m.Read(hedgeCtx(pol), "u")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("wrong data")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("read took %v despite failure kicks", elapsed)
	}
}

// TestHedgedChunkedRangedRead exercises the hedge gate on the streaming
// (chunked) read path, including degraded operation with a faulty preferred
// cloud.
func TestHedgedChunkedRangedRead(t *testing.T) {
	rtts := []time.Duration{0, 0, 0, 0}
	m, providers, _ := hedgeManager(t, rtts, Options{ChunkSize: 4096})
	data := bytes.Repeat([]byte{0xC3}, 10*4096+17)
	info := writeFrom(t, m, "u", data)
	warmTracker(m, rtts)
	providers[1].SetFault(cloudsim.FaultCorrupt)

	pol := iopolicy.Policy{
		Hedge:      iopolicy.Hedge{Percentile: 0.9, MinDelay: 5 * time.Millisecond},
		Preference: iopolicy.Preference{Order: []int{1, 2}},
	}
	got, err := readRange(hedgeCtx(pol), m, "u", info.DataHash, 4096+100, 2*4096)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[4096+100:4096+100+2*4096]) {
		t.Fatal("ranged hedged read returned wrong bytes")
	}
}

// TestHedgedReadsLeakNoGoroutines runs many hedged reads whose gated
// goroutines are released by the quorum verdict, and checks the goroutine
// count settles back — no timer or gate waiter outlives its fan-out.
func TestHedgedReadsLeakNoGoroutines(t *testing.T) {
	rtts := []time.Duration{0, 0, 0, 50 * time.Millisecond}
	m, _, _ := hedgeManager(t, rtts, Options{})
	data := bytes.Repeat([]byte{0x77}, 8<<10)
	if _, err := m.Write(bg, "u", data); err != nil {
		t.Fatal(err)
	}
	time.Sleep(80 * time.Millisecond)
	warmTracker(m, rtts)

	before := runtime.NumGoroutine()
	ctx := hedgeCtx(iopolicy.Policy{Hedge: iopolicy.Hedge{Percentile: 0.95}})
	for i := 0; i < 50; i++ {
		if _, _, err := m.Read(ctx, "u"); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+3 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after hedged reads", before, runtime.NumGoroutine())
}

// TestDefaultPolicyUnchangedFanOut guards the compatibility contract: with
// no policy on the context and a zero Options.Policy, every cloud is
// contacted immediately (the pre-policy dispatch).
func TestDefaultPolicyUnchangedFanOut(t *testing.T) {
	rtts := []time.Duration{0, 0, 0, 0}
	m, providers, _ := hedgeManager(t, rtts, Options{DisableQuorumCancel: true})
	data := []byte("plain old read")
	if _, err := m.Write(bg, "u", data); err != nil {
		t.Fatal(err)
	}
	// The un-cancelled write returns at its quorum verdict while the
	// redundant uploads are still landing; let them settle before sampling
	// the baseline.
	time.Sleep(50 * time.Millisecond)
	var before int64
	for _, p := range providers {
		before += p.TotalRequests()
	}
	if _, _, err := m.Read(bg, "u"); err != nil {
		t.Fatal(err)
	}
	// With cancellation disabled the read returns at the decode verdict
	// while the redundant RPCs are still landing; let them settle before
	// counting.
	time.Sleep(50 * time.Millisecond)
	var after int64
	for _, p := range providers {
		after += p.TotalRequests()
	}
	// The head and the descriptor object (which holds the block), each from
	// all 4 clouds.
	if got := after - before; got != 8 {
		t.Fatalf("default read issued %d requests, want 8 (full fan-out)", got)
	}
}
