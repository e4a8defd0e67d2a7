package pricing

import (
	"math"
	"testing"

	"scfs/internal/cloud"
	"scfs/internal/cloudsim"
)

func approx(got, want, tol float64) bool { return math.Abs(got-want) <= tol }

func TestRatesArithmetic(t *testing.T) {
	r := Rates{
		StorageGBMonth: 0.02,
		PutRequest:     5e-6,
		GetRequest:     4e-7,
		EgressPerGB:    0.10,
	}
	// A usage of 1000 PUTs, 1000 GETs, 1 GB out, 730 GB-hours resident.
	u := cloud.Usage{PutRequests: 1000, GetRequests: 1000, BytesOut: 1 << 30, ByteHours: 730 * float64(1<<30)}
	want := 1000*5e-6 + 1000*4e-7 + 0.10 + 0.02
	if got := r.UsageCost(u); !approx(got, want, 1e-9) {
		t.Fatalf("UsageCost = %v, want %v", got, want)
	}
}

func TestTableLookupAndFallback(t *testing.T) {
	var zero Table
	if got := zero.For("whatever"); got != DefaultRates {
		t.Fatalf("zero table must price with DefaultRates, got %+v", got)
	}
	tbl := Table{
		ByProvider: map[string]Rates{"a": {StorageGBMonth: 1}},
		Default:    Rates{StorageGBMonth: 2},
	}
	if got := tbl.For("a").StorageGBMonth; got != 1 {
		t.Fatalf("per-provider rate lost: %v", got)
	}
	if got := tbl.For("b").StorageGBMonth; got != 2 {
		t.Fatalf("table default lost: %v", got)
	}
}

// TestDefaultTableCoversSimProfiles keeps the bundled price table in sync
// with the simulated providers: every cloudsim profile name must have an
// explicit rate card (free for the zero-latency test profile, priced for
// the paper's four clouds).
func TestDefaultTableCoversSimProfiles(t *testing.T) {
	tbl := DefaultTable()
	for kind := range cloudsim.DefaultProfiles() {
		if _, ok := tbl.ByProvider[string(kind)]; !ok {
			t.Errorf("no bundled rates for simulated provider %q", kind)
		}
	}
	for _, kind := range cloudsim.CoCKinds() {
		r := tbl.For(string(kind))
		if r.StorageGBMonth <= 0 || r.EgressPerGB <= 0 {
			t.Errorf("%q must have nonzero storage and egress prices: %+v", kind, r)
		}
	}
	if r := tbl.For(string(cloudsim.LocalNull)); !r.IsZero() {
		t.Errorf("the local test profile should be free, got %+v", r)
	}
	// The ratios between providers: Rackspace bills no request fees but
	// the most expensive storage.
	rs := tbl.For("rackspace-files")
	if rs.PutRequest != 0 || rs.GetRequest != 0 {
		t.Errorf("rackspace-files should bill no request fees: %+v", rs)
	}
	for _, other := range []string{"amazon-s3", "azure-blob", "google-storage"} {
		if tbl.For(other).StorageGBMonth >= rs.StorageGBMonth {
			t.Errorf("%s storage should undercut rackspace-files", other)
		}
	}
}

func TestEstimateAdd(t *testing.T) {
	var e Estimate
	e.Add(Estimate{StoragePerMonth: 1, UploadOnce: 2, ReadOnce: 3, DeleteOnce: 4})
	e.Add(Estimate{StoragePerMonth: 1, UploadOnce: 2, ReadOnce: 3, DeleteOnce: 4})
	if e.StoragePerMonth != 2 || e.UploadOnce != 4 || e.ReadOnce != 6 || e.DeleteOnce != 8 {
		t.Fatalf("Add: %+v", e)
	}
}
