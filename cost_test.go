package scfs_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"scfs"
	"scfs/internal/cloudsim"
)

// TestCostReportAndDollarGC drives the full cost surface through the
// facade: writes accumulate a priced footprint, CostReport sees it, and a
// garbage collection reclaims measured dollars.
func TestCostReportAndDollarGC(t *testing.T) {
	// Explicit zero-latency providers: instant and read-after-write
	// consistent, so the GC sweep deterministically resolves every doomed
	// version (the default simulated deployment has eventual-consistency
	// windows that can hide the newest metadata from a sweep).
	stores := make([]scfs.ObjectStore, 4)
	for i := range stores {
		p := cloudsim.NewProvider(cloudsim.Options{Name: fmt.Sprintf("c%d", i)})
		stores[i] = p.MustClient(p.CreateAccount("user"))
	}
	m := mount(t, scfs.WithClouds(stores...), scfs.WithGC(scfs.GCPolicy{KeepVersions: 1}))
	if err := m.Mkdir(bg, "/pay"); err != nil {
		t.Fatal(err)
	}

	data := bytes.Repeat([]byte{0xCD}, 64<<10)
	for i := 0; i < 3; i++ { // three distinct versions of one file
		version := append(bytes.Repeat([]byte{byte(i)}, 64<<10-1), byte(i))
		if err := scfs.WriteFile(bg, m, "/pay/me.bin", version); err != nil {
			t.Fatal(err)
		}
	}
	if err := scfs.WriteFile(bg, m, "/pay/too.bin", data); err != nil {
		t.Fatal(err)
	}

	before, err := m.CostReport(bg)
	if err != nil {
		t.Fatal(err)
	}
	if before.Files != 2 || before.Versions != 4 {
		t.Fatalf("report saw %d files / %d versions, want 2 / 4", before.Files, before.Versions)
	}
	if before.LogicalBytes != 4*64<<10 {
		t.Fatalf("logical bytes = %d", before.LogicalBytes)
	}
	// DepSky-CA with f=1 stores ~1.5x the plaintext across the quorum.
	if before.CloudBytes <= before.LogicalBytes || before.CloudBytes >= 2*before.LogicalBytes {
		t.Fatalf("cloud bytes = %d for %d logical (want ~1.5x)", before.CloudBytes, before.LogicalBytes)
	}
	if before.StorageDollarsPerMonth <= 0 || before.ReadOnceDollars <= 0 {
		t.Fatalf("dollars missing from report: %+v", before)
	}

	report, err := m.Collect(bg)
	if err != nil {
		t.Fatal(err)
	}
	if report.VersionsDeleted != 2 {
		t.Fatalf("GC deleted %d versions, want the 2 old ones", report.VersionsDeleted)
	}
	if report.ReclaimedDollars <= 0 {
		t.Fatalf("GC attributed no dollars: %+v", report)
	}
	after, err := m.CostReport(bg)
	if err != nil {
		t.Fatal(err)
	}
	wantAfter := before.StorageDollarsPerMonth - report.ReclaimedDollars
	if diff := after.StorageDollarsPerMonth - wantAfter; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("post-GC storage spend %.12f, want %.12f (before %.12f minus reclaimed %.12f)",
			after.StorageDollarsPerMonth, wantAfter, before.StorageDollarsPerMonth, report.ReclaimedDollars)
	}
}

// TestWriteHedgeThroughFacade: WithWriteHedge on a facade write keeps the
// spare cloud untouched by uploads, and the file reads back intact.
func TestWriteHedgeThroughFacade(t *testing.T) {
	providers := make([]*cloudsim.Provider, 4)
	stores := make([]scfs.ObjectStore, 4)
	accounts := make([]string, 4)
	for i := range providers {
		providers[i] = cloudsim.NewProvider(cloudsim.Options{Name: fmt.Sprintf("c%d", i)})
		accounts[i] = providers[i].CreateAccount("user")
		stores[i] = providers[i].MustClient(accounts[i])
	}
	m := mount(t, scfs.WithClouds(stores...))

	data := bytes.Repeat([]byte{0x4F}, 32<<10)
	err := scfs.WriteFile(bg, m, "/hedged.bin", data,
		scfs.WithWriteHedge(0.95),
		scfs.WithWriteHedgeDelayBounds(10*time.Second, 0),
		scfs.WithReadPreference(scfs.PreferClouds(0, 1, 2)),
	)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if u := providers[3].Usage(accounts[3]); u.PutRequests != 0 {
		t.Fatalf("spare cloud served %d PUTs through a hedged facade write", u.PutRequests)
	}
	got, err := scfs.ReadFile(bg, m, "/hedged.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("hedged facade write read back wrong data")
	}
}
