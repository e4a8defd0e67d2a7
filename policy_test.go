package scfs_test

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"scfs"
	"scfs/internal/cloudsim"
	"scfs/internal/iopolicy"
)

// skewedMount mounts over four explicit simulated clouds, one of which is a
// straggler, and returns the providers for request accounting.
func skewedMount(t *testing.T, stragglerRTT time.Duration, opts ...scfs.Option) (*scfs.FS, []*cloudsim.Provider) {
	t.Helper()
	providers := make([]*cloudsim.Provider, 4)
	stores := make([]scfs.ObjectStore, 4)
	for i := range providers {
		o := cloudsim.Options{Name: fmt.Sprintf("c%d", i)}
		if i == 3 {
			o.Latency = cloudsim.LatencyProfile{RTT: stragglerRTT}
		}
		providers[i] = cloudsim.NewProvider(o)
		stores[i] = providers[i].MustClient(providers[i].CreateAccount("user"))
	}
	m := mount(t, append([]scfs.Option{scfs.WithClouds(stores...)}, opts...)...)
	return m, providers
}

// TestCallOptionsRoundTrip: call options must not change results — only
// how they are obtained. A hedged, readahead-tuned read returns the same
// bytes as a plain one.
func TestCallOptionsRoundTrip(t *testing.T) {
	m := mount(t)
	data := bytes.Repeat([]byte("policy!"), (1<<20+20<<10)/7)
	if err := scfs.WriteFile(bg, m, "/f.bin", data); err != nil {
		t.Fatal(err)
	}
	ctx := scfs.WithPolicy(bg,
		scfs.WithHedge(0.95),
		scfs.WithReadahead(2),
		scfs.WithReadPreference(scfs.PreferClouds(2, 0, 1)),
	)
	got, err := scfs.ReadFile(ctx, m, "/f.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("hedged read returned different bytes")
	}
	got, err = scfs.ReadFile(bg, m, "/f.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("plain read returned different bytes")
	}
}

// TestHedgedReadAvoidsStragglerThroughFacade drives the full stack: after a
// plain write, hedged ReadFiles complete without waiting for the slow cloud,
// and contact it at most once, to time it. The caches are smaller than the
// file, so every read leaves them and fans out.
func TestHedgedReadAvoidsStragglerThroughFacade(t *testing.T) {
	const straggler = 250 * time.Millisecond
	m, providers, attempts := timedStragglerMount(t, straggler)
	data := bytes.Repeat([]byte{0xBD}, 64<<10)
	if err := scfs.WriteFile(bg, m, "/hot.bin", data); err != nil {
		t.Fatal(err)
	}
	// Wait out the write's in-flight stragglers.
	time.Sleep(straggler + 100*time.Millisecond)

	hedgedReadsSpareTheStraggler(t, providers[3], attempts, straggler, func() error {
		got, err := scfs.ReadFile(scfs.WithPolicy(bg, scfs.WithHedge(0.95), scfs.WithReadahead(2)), m, "/hot.bin")
		if err == nil && !bytes.Equal(got, data) {
			err = fmt.Errorf("read %d wrong bytes", len(got))
		}
		return err
	})
}

// hedgedReads is how many hedged reads hedgedReadsSpareTheStraggler runs.
const hedgedReads = 4

// hedgedReadsSpareTheStraggler runs read, a hedged read, hedgedReads times.
// None may wait for the straggler, and together they may send it one RPC:
// the fan-out that explores it while the scoreboard has no estimate of it,
// or only one cut as short as the quorum's own answers. That request is
// cancelled when a hedge has answered in its place, a millisecond or more
// in, and from then on the straggler ranks last.
func hedgedReadsSpareTheStraggler(t *testing.T, straggler *cloudsim.Provider, attempts func() int64, rtt time.Duration, read func() error) {
	t.Helper()
	before, beforeAttempts := straggler.TotalRequests(), attempts()
	for i := 0; i < hedgedReads; i++ {
		start := time.Now()
		if err := read(); err != nil {
			t.Fatalf("hedged read %d: %v", i, err)
		}
		if elapsed := time.Since(start); elapsed > rtt/2 {
			t.Fatalf("hedged read %d took %v; the straggler's RTT leaked in", i, elapsed)
		}
	}
	time.Sleep(50 * time.Millisecond)
	if extra := straggler.TotalRequests() - before; extra != 0 {
		t.Fatalf("the straggler served %d requests during %d hedged reads, want 0", extra, hedgedReads)
	}
	if extra := attempts() - beforeAttempts; extra > 1 {
		t.Fatalf("%d hedged reads sent %d RPCs to the straggler, want at most the one that times it", hedgedReads, extra)
	}
}

// timedStragglerMount is skewedMount with metrics on and caches too small to
// hold the test's files, so reads reach the clouds. Nothing times the
// straggler c3 in advance: the first write's quorum cancels its uploads, and
// each cancelled upload tells the scoreboard c3 takes at least that long.
// attempts counts c3's RPC attempts, the cancelled ones too: an unhedged
// fan-out's request to c3 is cancelled at the verdict, before the provider
// counts it served.
func timedStragglerMount(t *testing.T, straggler time.Duration, opts ...scfs.Option) (m *scfs.FS, providers []*cloudsim.Provider, attempts func() int64) {
	t.Helper()
	m, providers = skewedMount(t, straggler, append([]scfs.Option{scfs.WithMetrics(),
		scfs.WithMemoryCache(4 << 10), scfs.WithDiskCache(t.TempDir(), 4<<10)}, opts...)...)
	return m, providers, func() int64 { return rpcAttempts(m, "c3") }
}

// rpcAttempts counts the RPC attempts a mount with metrics sent to the named
// cloud, whatever their outcome.
func rpcAttempts(m *scfs.FS, cloud string) (n int64) {
	for name, v := range m.Stats().Telemetry.Counters {
		if strings.HasPrefix(name, `rpc_total{cloud="`+cloud+`"`) {
			n += v
		}
	}
	return n
}

// TestDefaultIOPolicyMountOption: a mount has no default I/O policy; the
// way to give a whole workload one is a root context built once with
// WithPolicy and passed to every call. Here it makes every read of the
// workload hedged.
func TestDefaultIOPolicyMountOption(t *testing.T) {
	const straggler = 250 * time.Millisecond
	m, providers, attempts := timedStragglerMount(t, straggler)
	root := scfs.WithPolicy(bg, scfs.WithHedge(0.95))
	data := bytes.Repeat([]byte{0x2F}, 32<<10)
	if err := scfs.WriteFile(root, m, "/d.bin", data); err != nil {
		t.Fatal(err)
	}
	time.Sleep(straggler + 100*time.Millisecond)

	hedgedReadsSpareTheStraggler(t, providers[3], attempts, straggler, func() error {
		got, err := scfs.ReadFile(root, m, "/d.bin")
		if err == nil && !bytes.Equal(got, data) {
			err = fmt.Errorf("read %d wrong bytes", len(got))
		}
		return err
	})
}

// TestHandleReadAtAppliesItsContextPolicy: the policy of a handle's ReadAt
// comes from that call's context, not from the open's. A file larger than
// one chunk is opened with a plain context, so its chunks are read lazily
// from the clouds; ReadAts of its tail chunk under a hedged context then
// spare the straggler.
func TestHandleReadAtAppliesItsContextPolicy(t *testing.T) {
	const straggler = 250 * time.Millisecond
	m, providers, attempts := timedStragglerMount(t, straggler)
	data := bytes.Repeat([]byte{0x71}, 1<<20+4<<10)
	if err := scfs.WriteFile(bg, m, "/lazy.bin", data); err != nil {
		t.Fatal(err)
	}
	h, err := m.Open(bg, "/lazy.bin", scfs.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close(bg)
	// Let the open's cancelled request to the straggler be counted.
	time.Sleep(50 * time.Millisecond)

	hedgedReadsSpareTheStraggler(t, providers[3], attempts, straggler, func() error {
		got := make([]byte, 4<<10)
		n, err := h.ReadAt(scfs.WithPolicy(bg, scfs.WithHedge(0.95)), got, 1<<20)
		if err == nil && (n != len(got) || !bytes.Equal(got, data[1<<20:])) {
			err = fmt.Errorf("ReadAt returned %d/%d correct bytes", n, len(got))
		}
		return err
	})
}

// TestPolicyMerge: a nested WithPolicy applies its options over the policy
// its parent context carries, and an option sets only its own fields.
func TestPolicyMerge(t *testing.T) {
	if pol := iopolicy.FromContext(bg); pol.Hedge.Enabled() || pol.Readahead != 0 {
		t.Fatalf("a plain context must give the zero policy, got %+v", pol)
	}
	outer := scfs.WithPolicy(bg,
		scfs.WithHedge(0.9),
		scfs.WithReadahead(2),
		scfs.WithWriteHedgeDelayBounds(time.Millisecond, time.Second),
	)
	pol := iopolicy.FromContext(scfs.WithPolicy(outer, scfs.WithReadahead(8)))
	if pol.Readahead != 8 {
		t.Fatalf("inner readahead lost: %+v", pol)
	}
	if pol.Hedge.Percentile != 0.9 || pol.WriteHedge.MaxDelay != time.Second {
		t.Fatalf("outer fields lost: %+v", pol)
	}
	pol = iopolicy.FromContext(scfs.WithPolicy(outer, scfs.WithHedge(0.5)))
	if pol.Hedge.Percentile != 0.5 || pol.Readahead != 2 {
		t.Fatalf("inner hedge must replace only the percentile: %+v", pol)
	}
	// The percentile alone turns on an inherited pair of delay bounds.
	pol = iopolicy.FromContext(scfs.WithPolicy(outer, scfs.WithWriteHedge(0.95)))
	want := iopolicy.Hedge{Percentile: 0.95, MinDelay: time.Millisecond, MaxDelay: time.Second}
	if pol.WriteHedge != want {
		t.Fatalf("write hedge must layer field by field: %+v", pol.WriteHedge)
	}
	if pol := iopolicy.FromContext(outer); pol.Readahead != 2 || pol.Hedge.Percentile != 0.9 || pol.WriteHedge.Enabled() {
		t.Fatalf("a nested WithPolicy changed its parent's policy: %+v", pol)
	}
}

// TestPlacementMerge covers the two options that decide where a fan-out's
// requests go: the write hedge (which clouds a write parks as spares) and
// the pinned preference order.
func TestPlacementMerge(t *testing.T) {
	outer := scfs.WithPolicy(bg,
		scfs.WithWriteHedge(0.9),
		scfs.WithWriteHedgeDelayBounds(0, time.Second),
		scfs.WithReadPreference(scfs.PreferClouds(3)),
	)
	pol := iopolicy.FromContext(scfs.WithPolicy(outer, scfs.WithReadahead(4)))
	if !slices.Equal(pol.Preference.Order, []int{3}) || pol.Readahead != 4 {
		t.Fatalf("a pinned preference must survive an inner WithReadahead: %+v", pol)
	}
	pol = iopolicy.FromContext(scfs.WithPolicy(outer, scfs.WithReadPreference(scfs.PreferClouds(2, 0))))
	if !slices.Equal(pol.Preference.Order, []int{2, 0}) {
		t.Fatalf("inner preference lost: %+v", pol)
	}
	if pol.WriteHedge.Percentile != 0.9 || pol.WriteHedge.MaxDelay != time.Second {
		t.Fatalf("write hedge lost: %+v", pol)
	}
	pol = iopolicy.FromContext(scfs.WithPolicy(outer, scfs.WithWriteHedgeDelayBounds(5*time.Millisecond, 0)))
	if pol.WriteHedge.Percentile != 0.9 || pol.WriteHedge.MinDelay != 5*time.Millisecond {
		t.Fatalf("inner delay bounds must keep the inherited percentile: %+v", pol)
	}
}

// TestRetryAndBreakerMerge: a nested WithRetry replaces the whole budget,
// and an inner WithBreaker(BreakerDemote) clears an outer BreakerFailFast.
func TestRetryAndBreakerMerge(t *testing.T) {
	if pol := iopolicy.FromContext(bg); pol.Breaker != scfs.BreakerDemote || pol.Retry.Enabled() {
		t.Fatalf("the zero policy must demote and not retry: %+v", pol)
	}
	outer := scfs.WithPolicy(bg, scfs.WithRetry(3, time.Millisecond), scfs.WithBreaker(scfs.BreakerFailFast))
	pol := iopolicy.FromContext(scfs.WithPolicy(outer))
	if pol.Retry != (scfs.RetryPolicy{MaxAttempts: 3, BackoffBase: time.Millisecond}) || pol.Breaker != scfs.BreakerFailFast {
		t.Fatalf("an empty WithPolicy changed the inherited policy: %+v", pol)
	}
	pol = iopolicy.FromContext(scfs.WithPolicy(outer, scfs.WithRetry(5, 2*time.Millisecond)))
	if pol.Retry != (scfs.RetryPolicy{MaxAttempts: 5, BackoffBase: 2 * time.Millisecond}) {
		t.Fatalf("inner retry did not replace the budget: %+v", pol.Retry)
	}
	if pol.Breaker != scfs.BreakerFailFast {
		t.Fatal("inner retry lost the inherited breaker mode")
	}
	pol = iopolicy.FromContext(scfs.WithPolicy(outer, scfs.WithBreaker(scfs.BreakerDemote)))
	if pol.Breaker != scfs.BreakerDemote {
		t.Fatalf("inner demote over outer fail-fast = %v, want BreakerDemote", pol.Breaker)
	}
	if !pol.Retry.Enabled() {
		t.Fatal("inner breaker mode lost the inherited retry budget")
	}
}

// TestIOFSWithPolicyContext: the io/fs adapter applies the policy carried
// by the context it was built with.
func TestIOFSWithPolicyContext(t *testing.T) {
	m := mount(t)
	data := bytes.Repeat([]byte{0x9C}, 1<<20+40<<10)
	if err := scfs.WriteFile(bg, m, "/served.bin", data); err != nil {
		t.Fatal(err)
	}
	fsys := m.IOFS(scfs.WithPolicy(bg, scfs.WithHedge(0.9), scfs.WithReadahead(2)))
	f, err := fsys.Open("served.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got := make([]byte, len(data))
	n := 0
	for n < len(got) {
		k, err := f.Read(got[n:])
		n += k
		if err != nil {
			break
		}
	}
	if n != len(data) || !bytes.Equal(got[:n], data) {
		t.Fatalf("io/fs read under policy context returned %d/%d correct bytes", n, len(data))
	}
}

// TestWithRetryMasksTransientFaultsThroughFacade: two clouds flake on their
// first Put each — one more simultaneous fault than the write quorum
// tolerates — and WithRetry rides the write through where a budget-less
// write fails. The full option path is exercised: facade → context policy →
// quorum engine → per-cloud retry loop.
func TestWithRetryMasksTransientFaultsThroughFacade(t *testing.T) {
	m, providers := skewedMount(t, 0)
	data := bytes.Repeat([]byte{0x5A}, 16<<10)

	flake := func() {
		providers[0].SetFaults(cloudsim.FaultSpec{Mode: cloudsim.FaultThrottle, Ops: cloudsim.MaskPut, FirstN: 1})
		providers[1].SetFaults(cloudsim.FaultSpec{Mode: cloudsim.FaultUnavailable, Ops: cloudsim.MaskPut, FirstN: 1})
	}
	flake()
	if err := scfs.WriteFile(bg, m, "/no-retry.bin", data); err == nil {
		t.Fatal("write facing 2 transient faults without a retry budget should fail (sanity check)")
	}
	providers[0].ClearFaults()
	providers[1].ClearFaults()

	flake()
	ctx := scfs.WithPolicy(bg, scfs.WithRetry(3, time.Millisecond), scfs.WithBreaker(scfs.BreakerDemote))
	if err := scfs.WriteFile(ctx, m, "/retried.bin", data); err != nil {
		t.Fatalf("retried write failed: %v", err)
	}
	got, err := scfs.ReadFile(scfs.WithPolicy(bg, scfs.WithRetry(3, 0)), m, "/retried.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("retried write round-trip returned different bytes")
	}
}
