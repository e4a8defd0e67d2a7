package depsky

import (
	"testing"
	"time"
)

// TestFootprintWeighsChunksAgainstBytes is the point of the cost model: for
// the same payload, cutting it into more chunks stores roughly the same
// bytes but multiplies objects and request fees by the chunk count —
// exactly the axis a byte count alone cannot see.
func TestFootprintWeighsChunksAgainstBytes(t *testing.T) {
	const chunk = 4096
	const size = 16 * chunk
	m, _, _ := hedgeManager(t, make([]time.Duration, 4), Options{ChunkSize: chunk})
	one, _, _ := hedgeManager(t, make([]time.Duration, 4), Options{ChunkSize: size})

	whole := one.EstimateFootprint(size)
	chunked := m.EstimateFootprint(size)

	// The descriptor object, which holds the one chunk, on each of the
	// n-f = 3 preferred clouds.
	if whole.Objects != 1*3 {
		t.Fatalf("one-chunk Objects = %d, want 3", whole.Objects)
	}
	if chunked.Objects != 17*3 {
		t.Fatalf("chunked Objects = %d, want 51", chunked.Objects)
	}
	// f+1 = 2 descriptor copies, then f+1 = 2 decoding clouds per chunk.
	if chunked.GetRequestsPerRead != 17*2 {
		t.Fatalf("chunked GetRequestsPerRead = %d, want 34", chunked.GetRequestsPerRead)
	}
	if whole.GetRequestsPerRead != 1*2 {
		t.Fatalf("one-chunk GetRequestsPerRead = %d, want 2", whole.GetRequestsPerRead)
	}
	if chunked.DeleteRequests != 17*4 { // deletes are best-effort on all n clouds
		t.Fatalf("chunked DeleteRequests = %d, want 68", chunked.DeleteRequests)
	}
	// Bytes stay within ~2x of each other (per-chunk shard padding only).
	if chunked.Bytes < whole.Bytes || chunked.Bytes > 2*whole.Bytes {
		t.Fatalf("chunked Bytes = %d vs one-chunk %d: expected same order", chunked.Bytes, whole.Bytes)
	}
}

// TestFootprintBytesByProtocol is the byte axis of the cost model (§4.5):
// DepSky-CA with f=1 stores ~1.5x the data, replication 4x.
func TestFootprintBytesByProtocol(t *testing.T) {
	_, mCA := newManager(t, ProtocolCA)
	_, mA := newManager(t, ProtocolA)
	const size = 1 << 20
	ca := mCA.EstimateFootprint(size).Bytes
	a := mA.EstimateFootprint(size).Bytes
	if ratioCA := float64(ca) / size; ratioCA < 1.4 || ratioCA > 1.7 {
		t.Fatalf("CA footprint ratio = %.2f, want ~1.5", ratioCA)
	}
	if a != size*4 {
		t.Fatalf("A footprint = %d, want %d", a, size*4)
	}
}

// TestEstimatesMatchWhatIsWritten: at every chunk boundary the footprint and
// the dollars predicted for a size are those computed from the descriptor of
// the version a write of that size returned — a value of at most one chunk
// occupies its descriptor object alone.
func TestEstimatesMatchWhatIsWritten(t *testing.T) {
	const cs = 4096
	m := costManager(t, cs)
	for _, size := range []int{0, 1, cs - 1, cs, cs + 1, 3*cs + 100} {
		data := randBytes(t, size)
		info, err := m.Write(bg, "u", data)
		if err != nil {
			t.Fatal(err)
		}
		wantObjects := int64((size+cs-1)/cs)*3 + 3
		if size <= cs {
			wantObjects = 3
		}
		if got, want := m.VersionFootprint(info), m.EstimateFootprint(int64(size)); got != want || got.Objects != wantObjects {
			t.Errorf("size %d: VersionFootprint %+v, EstimateFootprint %+v, want %d objects", size, got, want, wantObjects)
		}
		if got, want := m.VersionCost(info), m.EstimateCost(int64(size)); got != want {
			t.Errorf("size %d: VersionCost %+v != EstimateCost %+v", size, got, want)
		}
	}
	if empty := m.EstimateFootprint(0); empty.Bytes != 0 || empty.PutRequests != 3 {
		t.Errorf("empty value: %+v, want no bytes and the descriptor's 3 PUTs", empty)
	}
}
