package depsky

import (
	"testing"
	"time"

	"scfs/internal/pricing"
)

// costManager builds a 4-cloud manager with instant clouds, a small chunk
// size and the bundled price table.
func costManager(t *testing.T, chunkSize int) *Manager {
	t.Helper()
	m, _, _ := hedgeManager(t, []time.Duration{0, 0, 0, 0}, Options{
		ChunkSize: chunkSize,
		Pricing:   pricing.Table{Default: pricing.DefaultRates},
	})
	return m
}

func TestEstimateCostAxes(t *testing.T) {
	const size = 16 * 4096
	whole := costManager(t, size).EstimateCost(size)
	chunked := costManager(t, 4096).EstimateCost(size)
	if whole.StoragePerMonth <= 0 || whole.UploadOnce <= 0 || whole.ReadOnce <= 0 {
		t.Fatalf("one-chunk estimate has zero axes: %+v", whole)
	}
	// Same bytes, same recurring storage (modulo per-chunk shard padding).
	if chunked.StoragePerMonth < whole.StoragePerMonth {
		t.Fatalf("chunked storage %.3e below one-chunk %.3e", chunked.StoragePerMonth, whole.StoragePerMonth)
	}
	// The fee axes must discriminate: a 16-chunk version pays ~16x the
	// request fees of one chunk on upload and per read. This is what lets
	// the GC rank fee-heavy versions above big cheap blobs of equal size.
	if chunked.UploadOnce < 4*whole.UploadOnce {
		t.Fatalf("chunked upload fees %.3e do not reflect per-object PUTs (one chunk %.3e)", chunked.UploadOnce, whole.UploadOnce)
	}
	// (Egress scales with bytes and is equal on both; the per-object GET
	// fees on top still separate them clearly.)
	if chunked.ReadOnce < 2*whole.ReadOnce {
		t.Fatalf("chunked read fees %.3e do not reflect per-object GETs (one chunk %.3e)", chunked.ReadOnce, whole.ReadOnce)
	}
	// The GC's per-byte ranking value (storage + one read) must therefore
	// be strictly higher for the chunk-heavy version.
	bytesOf := func(e pricing.Estimate) float64 { return e.StoragePerMonth + e.ReadOnce }
	if bytesOf(chunked) <= bytesOf(whole) {
		t.Fatalf("chunk-heavy version must out-value an equal-size blob: %.3e vs %.3e", bytesOf(chunked), bytesOf(whole))
	}
}

// A zero-value pricing table still yields sane (DefaultRates-priced)
// numbers rather than zeros.
func TestZeroPricingTableUsesDefaultRates(t *testing.T) {
	m, _, _ := hedgeManager(t, []time.Duration{0, 0, 0, 0}, Options{})
	if est := m.EstimateCost(1 << 20); est.StoragePerMonth <= 0 {
		t.Fatalf("zero table must price with DefaultRates: %+v", est)
	}
}
