package depsky

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"scfs/internal/cloudsim"
	"scfs/internal/iopolicy"
	"scfs/internal/seccrypto"
)

// writeHedgeCtx builds a context whose policy hedges writes behind a huge
// delay: with a healthy preferred quorum the spare clouds are never
// contacted, making "the spares got nothing" deterministic.
func writeHedgeCtx(order ...int) context.Context {
	return hedgeCtx(iopolicy.Policy{
		WriteHedge: iopolicy.Hedge{Percentile: 0.9, MinDelay: 10 * time.Second},
		Preference: iopolicy.Preference{Order: order},
	})
}

// TestHedgedWriteSkipsSpares is the headline saving: a hedged write ships
// its shards, its descriptor and its head to the preferred n-f quorum only —
// the spare cloud receives no upload bytes and no PUT requests at all.
func TestHedgedWriteSkipsSpares(t *testing.T) {
	rtts := []time.Duration{0, 0, 0, 0}
	m, providers, accounts := hedgeManager(t, rtts, Options{})
	warmTracker(m, rtts)

	data := bytes.Repeat([]byte{0xB4}, 64<<10)
	if _, err := m.Write(writeHedgeCtx(0, 1, 2), "u", data); err != nil {
		t.Fatal(err)
	}
	// Give any stray spare upload a moment to surface.
	time.Sleep(50 * time.Millisecond)
	spare := providers[3].Usage(accounts[3])
	if spare.PutRequests != 0 || spare.BytesIn != 0 {
		t.Fatalf("spare cloud was uploaded to: %d PUTs, %d bytes in", spare.PutRequests, spare.BytesIn)
	}
	for i := 0; i < 3; i++ {
		if u := providers[i].Usage(accounts[i]); u.PutRequests == 0 {
			t.Fatalf("preferred cloud %d received no upload", i)
		}
	}
	// The quorum-only version reads back through the default full fan-out.
	got, _, err := m.Read(bg, "u")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("quorum-only version read back wrong data")
	}
}

// TestHedgedWriteQuorumVersionIsCertified pins the certification math: a
// chunked version whose descriptor reached only the preferred n-f clouds must
// still be certified — f+1 identical copies — so the ranged read path, which
// refuses anything less, serves it.
func TestHedgedWriteQuorumVersionIsCertified(t *testing.T) {
	rtts := []time.Duration{0, 0, 0, 0}
	m, _, _ := hedgeManager(t, rtts, Options{ChunkSize: 4096})
	warmTracker(m, rtts)

	data := bytes.Repeat([]byte{0x9C}, 6*4096+33)
	info, err := m.WriteFrom(writeHedgeCtx(0, 1, 2), "u", seccrypto.Hash(data), bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := m.OpenMatching(bg, "u", info.DataHash)
	if err != nil {
		t.Fatalf("quorum-only version is not certified-readable: %v", err)
	}
	defer r.Close()
	buf := make([]byte, 2*4096)
	if _, err := r.ReadAt(buf, 4096); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data[4096:3*4096]) {
		t.Fatal("ranged read of quorum-only version returned wrong bytes")
	}
}

// TestHedgedWriteSurvivesFaultWithoutSpares: even when the spares were
// never released, a version on the preferred n-f clouds tolerates f faults
// among them — n-2f = f+1 intact shards remain, which is exactly a decode
// quorum, and the surviving f+1 descriptor copies keep it certified.
func TestHedgedWriteSurvivesFaultWithoutSpares(t *testing.T) {
	rtts := []time.Duration{0, 0, 0, 0}
	m, providers, _ := hedgeManager(t, rtts, Options{})
	warmTracker(m, rtts)

	data := bytes.Repeat([]byte{0x3D}, 32<<10)
	if _, err := m.Write(writeHedgeCtx(0, 1, 2), "u", data); err != nil {
		t.Fatal(err)
	}
	providers[0].SetFault(cloudsim.FaultUnavailable)
	got, _, err := m.Read(bg, "u")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("wrong data after f faults among the preferred set")
	}
}

// TestHedgedWriteSurvivesFaultAfterSpareRelease drives the full spare
// lifecycle: a slow preferred cloud stalls the quorum past the (clamped)
// hedge delay, the spare is released and completes the quorum, and the
// version then survives f faults among the original preferred set.
func TestHedgedWriteSurvivesFaultAfterSpareRelease(t *testing.T) {
	const slowRTT = 400 * time.Millisecond
	rtts := []time.Duration{0, 0, slowRTT, 0}
	m, providers, accounts := hedgeManager(t, rtts, Options{})
	warmTracker(m, rtts)

	pol := iopolicy.Policy{
		WriteHedge: iopolicy.Hedge{Percentile: 0.9, MaxDelay: 30 * time.Millisecond},
		Preference: iopolicy.Preference{Order: []int{0, 1, 2}},
	}
	data := bytes.Repeat([]byte{0x6E}, 32<<10)
	start := time.Now()
	if _, err := m.Write(hedgeCtx(pol), "u", data); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed >= slowRTT {
		t.Fatalf("write took %v — the spare was never released, the slow preferred cloud gated the quorum", elapsed)
	}
	if u := providers[3].Usage(accounts[3]); u.PutRequests == 0 {
		t.Fatal("spare cloud completed the quorum but received no upload")
	}
	// f faults among the original preferred set: the spare's copy plus the
	// surviving preferred ones must still decode.
	providers[0].SetFault(cloudsim.FaultUnavailable)
	got, _, err := m.Read(bg, "u")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("wrong data after spare release and a preferred fault")
	}
}

// TestHedgedWriteKicksOnPreferredFailure: a failed preferred upload must
// release a spare immediately instead of waiting out the (here enormous)
// hedge delay.
func TestHedgedWriteKicksOnPreferredFailure(t *testing.T) {
	rtts := []time.Duration{0, 0, 0, 0}
	m, providers, _ := hedgeManager(t, rtts, Options{})
	warmTracker(m, rtts)
	providers[1].SetFault(cloudsim.FaultUnavailable)

	data := bytes.Repeat([]byte{0x55}, 16<<10)
	start := time.Now()
	if _, err := m.Write(writeHedgeCtx(0, 1, 2), "u", data); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("write took %v despite the failure kick", elapsed)
	}
	got, _, err := m.Read(bg, "u")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("wrong data after a preferred upload failure")
	}
}

// TestCancelledHedgedWriteLeavesNothingVisible: cancelling a hedged write
// mid-upload must not anchor a version — the unit stays absent (or at its
// previous version) because the head is only written after every chunk and
// the descriptor reached their quorum.
func TestCancelledHedgedWriteLeavesNothingVisible(t *testing.T) {
	// Every cloud is slow, so the cancel lands while the preferred uploads
	// are still in flight.
	rtts := []time.Duration{200 * time.Millisecond, 200 * time.Millisecond, 200 * time.Millisecond, 200 * time.Millisecond}
	m, _, _ := hedgeManager(t, rtts, Options{})

	ctx, cancel := context.WithCancel(writeHedgeCtx(0, 1, 2))
	done := make(chan error, 1)
	go func() {
		_, err := m.Write(ctx, "u", bytes.Repeat([]byte{0xEE}, 32<<10))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled hedged write returned %v, want context.Canceled", err)
	}
	// No version may be visible.
	if _, _, err := m.Read(bg, "u"); !errors.Is(err, ErrUnitNotFound) {
		t.Fatalf("read after cancelled write: %v, want ErrUnitNotFound", err)
	}
	if versions, _ := m.ListVersions(bg, "u"); len(versions) != 0 {
		t.Fatalf("cancelled write left %d visible versions", len(versions))
	}
}

// TestDefaultHedgedWriteParksTrackedSlowest: with no pinned order, a hedged
// write follows the default ranking and sends its shards to the
// tracked-fastest n-f clouds — the slowest cloud is the spare and receives
// nothing.
func TestDefaultHedgedWriteParksTrackedSlowest(t *testing.T) {
	rtts := []time.Duration{0, 0, 0, 40 * time.Millisecond}
	m, providers, accounts := hedgeManager(t, rtts, Options{})
	warmTracker(m, rtts)

	ctx := iopolicy.With(bg, iopolicy.Policy{
		WriteHedge: iopolicy.Hedge{Percentile: 0.9, MinDelay: 10 * time.Second},
	})
	data := bytes.Repeat([]byte{0x29}, 64<<10)
	if _, err := m.Write(ctx, "u", data); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if u := providers[3].Usage(accounts[3]); u.PutRequests != 0 {
		t.Fatalf("slow cloud got %d PUTs — the default ranking did not park it", u.PutRequests)
	}
	if u := providers[0].Usage(accounts[0]); u.PutRequests == 0 {
		t.Fatal("fast cloud got nothing")
	}
}

// TestHedgedWriteZeroPolicyFullFanOut guards the compatibility contract:
// with no write-hedge policy every cloud is uploaded to immediately.
func TestHedgedWriteZeroPolicyFullFanOut(t *testing.T) {
	rtts := []time.Duration{0, 0, 0, 0}
	m, providers, accounts := hedgeManager(t, rtts, Options{DisableQuorumCancel: true})
	if _, err := m.Write(bg, "u", []byte("fan out everywhere")); err != nil {
		t.Fatal(err)
	}
	// Let the un-cancelled stragglers land.
	time.Sleep(50 * time.Millisecond)
	for i, p := range providers {
		// One descriptor object (holding the block) and one head PUT per
		// cloud.
		if u := p.Usage(accounts[i]); u.PutRequests != 2 {
			t.Fatalf("cloud %d served %d PUTs, want 2 (full fan-out)", i, u.PutRequests)
		}
	}
}

// TestHedgedWriteSpareReleaseOnMidUploadOutage: a preferred cloud accepts
// the first frames of a chunked hedged upload and then goes dark between
// frames. The failure kick must release the parked spare mid-write (not
// after the enormous hedge delay), the write must commit exactly one
// complete version, and the fan-out goroutines must all drain — an outage
// must not strand workers parked on hedge gates.
func TestHedgedWriteSpareReleaseOnMidUploadOutage(t *testing.T) {
	const cs = 4096
	rtts := []time.Duration{0, 0, 0, 0}
	m, providers, accounts := hedgeManager(t, rtts, Options{ChunkSize: cs})
	warmTracker(m, rtts)

	// c1 accepts two uploads, then every further PUT fails: an outage
	// landing between frame N and N+1 of the same logical write.
	providers[1].SetFaults(cloudsim.FaultSpec{
		Mode: cloudsim.FaultUnavailable, Ops: cloudsim.MaskPut, AfterN: 2,
	})

	baseline := runtime.NumGoroutine()
	data := bytes.Repeat([]byte{0xC7}, 6*cs+19)
	start := time.Now()
	info, err := m.WriteFrom(writeHedgeCtx(0, 1, 2), "u", seccrypto.Hash(data), bytes.NewReader(data))
	if err != nil {
		t.Fatalf("hedged write across a mid-upload outage: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("write took %v — the spare was not kicked loose when the preferred upload died", elapsed)
	}
	// The spare completed the quorum for the frames c1 dropped.
	if u := providers[3].Usage(accounts[3]); u.PutRequests == 0 {
		t.Fatal("spare cloud received no uploads despite the mid-write outage")
	}

	// Exactly one complete version, readable while c1 is still dark.
	versions, err := m.ListVersions(bg, "u")
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != 1 {
		t.Fatalf("outage left %d visible versions, want exactly 1", len(versions))
	}
	got, rinfo, err := m.ReadMatching(bg, "u", info.DataHash)
	if err != nil {
		t.Fatal(err)
	}
	if rinfo.DataHash != info.DataHash || !bytes.Equal(got, data) {
		t.Fatal("read returned a different or partial version")
	}

	// All fan-out goroutines (including spares parked behind the 10s hedge
	// delay on healthy chunks) must have been cancelled and drained.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after mid-upload outage: %d, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
