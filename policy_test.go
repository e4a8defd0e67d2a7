package scfs_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"scfs"
	"scfs/internal/cloudsim"
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

// TestCallOptionsRoundTrip: per-call options must not change results — only
// how they are obtained. A hedged, readahead-tuned read returns the same
// bytes as a plain one.
func TestCallOptionsRoundTrip(t *testing.T) {
	m := mount(t, scfs.WithStreamThreshold(8<<10))
	data := bytes.Repeat([]byte("policy!"), 20<<10/7)
	if err := scfs.WriteFile(bg, m, "/f.bin", data); err != nil {
		t.Fatal(err)
	}
	got, err := scfs.ReadFile(bg, m, "/f.bin",
		scfs.WithHedge(0.95),
		scfs.WithReadahead(2),
		scfs.WithReadPreference(scfs.PreferClouds(2, 0, 1)),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("hedged read returned different bytes")
	}
	// Context-carried policy is equivalent to variadic options.
	ctx := scfs.WithPolicy(bg, scfs.WithHedge(0.9), scfs.WithReadahead(3))
	got, err = scfs.ReadFile(ctx, m, "/f.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("WithPolicy read returned different bytes")
	}
}

// TestHedgedReadAvoidsStragglerThroughFacade drives the full stack: after a
// warm-up read taught the tracker who the straggler is, a hedged ReadFile
// completes without waiting for — or even contacting — the slow cloud. A
// cold large file is used so the read leaves the local caches and actually
// fans out.
func TestHedgedReadAvoidsStragglerThroughFacade(t *testing.T) {
	const straggler = 250 * time.Millisecond
	m, providers := skewedMount(t, straggler, scfs.WithStreamThreshold(8<<10))
	data := bytes.Repeat([]byte{0xBD}, 64<<10)
	if err := scfs.WriteFile(bg, m, "/hot.bin", data); err != nil {
		t.Fatal(err)
	}
	// The write observed all four clouds, teaching the tracker the
	// straggler's RTT; wait out its in-flight stragglers.
	time.Sleep(straggler + 100*time.Millisecond)

	before := providers[3].TotalRequests()
	start := time.Now()
	got, err := scfs.ReadFile(bg, m, "/hot.bin", scfs.WithHedge(0.95), scfs.WithReadahead(2))
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("wrong data")
	}
	if elapsed > straggler/2 {
		t.Fatalf("hedged facade read took %v; straggler RTT leaked in", elapsed)
	}
	time.Sleep(50 * time.Millisecond)
	if extra := providers[3].TotalRequests() - before; extra != 0 {
		t.Fatalf("straggler served %d requests during hedged read, want 0", extra)
	}
}

// TestDefaultIOPolicyMountOption: WithDefaultIOPolicy makes hedging the
// mount default, and per-call options overlay it.
func TestDefaultIOPolicyMountOption(t *testing.T) {
	const straggler = 250 * time.Millisecond
	m, providers := skewedMount(t, straggler,
		scfs.WithStreamThreshold(8<<10),
		scfs.WithDefaultIOPolicy(scfs.WithHedge(0.95)),
	)
	data := bytes.Repeat([]byte{0x2F}, 32<<10)
	if err := scfs.WriteFile(bg, m, "/d.bin", data); err != nil {
		t.Fatal(err)
	}
	time.Sleep(straggler + 100*time.Millisecond)

	before := providers[3].TotalRequests()
	start := time.Now()
	// No per-call options: the mount default applies.
	got, err := scfs.ReadFile(bg, m, "/d.bin")
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("wrong data")
	}
	if elapsed > straggler/2 {
		t.Fatalf("default-hedged read took %v", elapsed)
	}
	time.Sleep(50 * time.Millisecond)
	if extra := providers[3].TotalRequests() - before; extra != 0 {
		t.Fatalf("straggler served %d requests under the mount-default hedge policy", extra)
	}
}

// TestIOFSWithPolicyContext: the io/fs adapter applies the policy carried
// by the context it was built with.
func TestIOFSWithPolicyContext(t *testing.T) {
	m := mount(t, scfs.WithStreamThreshold(4<<10))
	data := bytes.Repeat([]byte{0x9C}, 40<<10)
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
	err := scfs.WriteFile(bg, m, "/retried.bin", data,
		scfs.WithRetry(3, time.Millisecond),
		scfs.WithBreaker(scfs.BreakerDemote),
	)
	if err != nil {
		t.Fatalf("retried write failed: %v", err)
	}
	got, err := scfs.ReadFile(bg, m, "/retried.bin", scfs.WithRetry(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("retried write round-trip returned different bytes")
	}
}
