package scfs_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"scfs"
	"scfs/internal/cloudsim"
	"scfs/internal/coord"
	"scfs/internal/depspace"
)

// namedStores builds four zero-latency simulated clouds named c0..c3 so
// telemetry label values are predictable.
func namedStores() []scfs.ObjectStore {
	stores := make([]scfs.ObjectStore, 4)
	for i := range stores {
		p := cloudsim.NewProvider(cloudsim.Options{Name: fmt.Sprintf("c%d", i)})
		stores[i] = p.MustClient(p.CreateAccount("user"))
	}
	return stores
}

// namedMount mounts over namedStores.
func namedMount(t *testing.T, opts ...scfs.Option) *scfs.FS {
	t.Helper()
	return mount(t, append([]scfs.Option{scfs.WithClouds(namedStores()...)}, opts...)...)
}

// sharedCoord is an in-process coordination service two mounts can share,
// so the second mount sees the first one's files and must fetch their data
// from the clouds (its caches are cold).
func sharedCoord() coord.Service {
	return coord.NewDepSpaceService(
		depspace.NewClient(&depspace.LocalInvoker{Space: depspace.NewSpace()}, "user", nil))
}

// TestStatsTelemetry: a metered mount must answer — from Stats() alone —
// which cloud served which op class, how often, and at what dollar cost.
// The writer and reader are two mounts sharing clouds and coordination so
// the read cannot be served from the writer's whole-file cache.
func TestStatsTelemetry(t *testing.T) {
	stores := namedStores()
	svc := sharedCoord()
	common := []scfs.Option{
		scfs.WithClouds(stores...), scfs.WithCoordination(svc),
		scfs.WithMetrics(), scfs.WithTracing(16),
	}
	writer := mount(t, common...)
	reader := mount(t, common...)

	data := bytes.Repeat([]byte("telemetry"), 1000)
	if err := scfs.WriteFile(bg, writer, "/t.bin", data); err != nil {
		t.Fatal(err)
	}
	got, err := scfs.ReadFile(bg, reader, "/t.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}

	ws, rs := writer.Stats(), reader.Stats()
	// Fully qualified names answer the per-cloud, per-class question. A
	// write is one PUT round and a small read one GET round, and the quorum
	// verdict may cancel any one cloud's request, so ask of the clouds that
	// served rather than of a fixed one.
	served := func(snap scfs.MetricsSnapshot, op string) string {
		for i := range stores {
			c := fmt.Sprintf("c%d", i)
			if snap.Counter(`rpc_total{cloud="`+c+`",op="`+op+`",outcome="ok"}`) > 0 {
				return c
			}
		}
		return ""
	}
	putter := served(ws.Telemetry, "put")
	if putter == "" {
		t.Errorf("no cloud's put counter is set; counters: %v", ws.Telemetry.Counters)
	}
	if served(rs.Telemetry, "get") == "" {
		t.Errorf("no cloud's get counter is set; counters: %v", rs.Telemetry.Counters)
	}
	// Latency histograms accompany successful RPCs.
	h, ok := ws.Telemetry.Histograms[`rpc_latency_ns{cloud="`+putter+`",op="put"}`]
	if !ok || h.Count == 0 {
		t.Errorf("%s put latency histogram missing or empty", putter)
	} else if h.SumNanos <= 0 {
		t.Errorf("histogram sum = %dns, want > 0", h.SumNanos)
	}
	// The agent's own pull gauges are in the same snapshot.
	if ws.Telemetry.Gauge(`agent_cloud_writes_total`) == 0 {
		t.Errorf("agent_cloud_writes_total gauge empty; gauges: %v", ws.Telemetry.Gauges)
	}

	// Metered spend: the simulated providers meter, PUTs cost money. The
	// n-f quorum may cancel the last cloud's PUT before it is metered, so
	// only n-f providers are guaranteed a metered PUT.
	if len(ws.Spend) != 4 {
		t.Fatalf("Spend has %d providers, want 4", len(ws.Spend))
	}
	var dollars float64
	metered := 0
	for _, ps := range ws.Spend {
		if ps.Usage.PutRequests > 0 {
			metered++
		}
		dollars += ps.Dollars
	}
	if metered < 3 {
		t.Errorf("only %d providers metered PUTs, want >= 3 (n-f)", metered)
	}
	if dollars <= 0 {
		t.Fatalf("total spend = %v, want > 0", dollars)
	}
	// The same spend is exported as registry gauges (microdollars).
	if ws.Telemetry.Gauge(`spend_microdollars{cloud="c0"}`) <= 0 {
		t.Errorf("spend gauge empty; gauges: %v", ws.Telemetry.Gauges)
	}

	// Traces: one per client op, spans covering the quorum fan-out.
	check := func(m *scfs.FS, op string) {
		t.Helper()
		var tr *scfs.Trace
		for _, c := range m.Traces(0) {
			if c.Op == op {
				tr = c
				break
			}
		}
		if tr == nil {
			t.Fatalf("no %q trace", op)
		}
		if len(tr.Spans()) == 0 {
			t.Errorf("%q trace has no spans", op)
		}
		if tr.VerdictLatency() <= 0 {
			t.Errorf("%q trace has no quorum verdict", op)
		}
	}
	check(writer, "write")
	check(reader, "read")
}

// TestDefaultMountCoordinatesThroughReplicas: a mount given no coordination
// service runs the paper's, DepSpace on BFT replicas, so the coordination
// accesses of a plain WriteFile are smr invocations in the trace the facade
// starts for it.
func TestDefaultMountCoordinatesThroughReplicas(t *testing.T) {
	m := mount(t, scfs.WithTracing(8))
	if err := scfs.WriteFile(bg, m, "/f.txt", []byte("replicated")); err != nil {
		t.Fatal(err)
	}
	traces := m.Traces(0)
	if len(traces) != 1 || traces[0].Op != "write" {
		t.Fatalf("WriteFile left %d traces, want one write trace", len(traces))
	}
	for _, s := range traces[0].Spans() {
		if s.Name == "smr.invoke" {
			return
		}
	}
	t.Fatalf("the WriteFile's trace holds no smr.invoke span: %v", traces[0].Describe())
}

// TestOneTraceSpansEveryLayer: one facade operation on the replicated
// metadata plane must yield exactly one trace crossing every layer — the
// smr invocations its coordination lookups turned into and the per-cloud
// RPCs of the data fetch. The caches are ~empty so the open must go to the
// clouds.
func TestOneTraceSpansEveryLayer(t *testing.T) {
	m := namedMount(t,
		scfs.WithDiskCache(t.TempDir(), 1),
		scfs.WithMemoryCache(1),
		scfs.WithTracing(128))
	if err := m.Mkdir(bg, "/docs"); err != nil {
		t.Fatal(err)
	}
	if err := scfs.WriteFile(bg, m, "/docs/f.txt", []byte("end to end")); err != nil {
		t.Fatal(err)
	}
	before := m.Traces(0)

	h, err := m.Open(bg, "/docs/f.txt", scfs.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, err := h.ReadAt(bg, buf, 0)
	if err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if err := h.Close(bg); err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != "end to end" {
		t.Fatalf("read %q", buf[:n])
	}

	after := m.Traces(0) // newest first
	fresh := after[:len(after)-len(before)]
	var whole []*scfs.Trace
	for _, tr := range fresh {
		names := make(map[string]bool)
		for _, s := range tr.Spans() {
			names[s.Name] = true
		}
		if names["smr.invoke"] && (names["desc.get"] || names["chunk.get"]) {
			whole = append(whole, tr)
		}
	}
	if len(whole) != 1 {
		for _, tr := range fresh {
			t.Logf("%s %s: %v", tr.Op, tr.Unit, tr.Describe())
		}
		t.Fatalf("%d new traces hold an smr.invoke and a per-cloud span; want exactly 1", len(whole))
	}
}

// memHandler is a minimal slog.Handler collecting records.
type memHandler struct {
	mu   sync.Mutex
	recs []slog.Record
}

func (h *memHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h *memHandler) Handle(_ context.Context, r slog.Record) error {
	h.mu.Lock()
	h.recs = append(h.recs, r)
	h.mu.Unlock()
	return nil
}
func (h *memHandler) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *memHandler) WithGroup(string) slog.Handler      { return h }

func (h *memHandler) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.recs)
}

// TestEventLog: WithEventLog streams one structured record per completed
// operation trace.
func TestEventLog(t *testing.T) {
	h := &memHandler{}
	m := namedMount(t, scfs.WithEventLog(h))
	if err := scfs.WriteFile(bg, m, "/a.txt", []byte("hi")); err != nil {
		t.Fatal(err)
	}
	if err := scfs.WriteFile(bg, m, "/b.txt", []byte("ho")); err != nil {
		t.Fatal(err)
	}
	if n := h.count(); n < 2 {
		t.Fatalf("event log got %d records, want >= 2", n)
	}
}

// TestDebugServer: the introspection endpoint serves Prometheus metrics,
// JSON stats, traces and pprof, and dies with the mount.
func TestDebugServer(t *testing.T) {
	m := namedMount(t, scfs.WithDebugServer("127.0.0.1:0"))
	addr := m.DebugAddr()
	if addr == "" {
		t.Fatal("DebugAddr empty")
	}
	if err := scfs.WriteFile(bg, m, "/dbg.txt", []byte("observable")); err != nil {
		t.Fatal(err)
	}

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: reading body: %v", path, err)
		}
		return string(b)
	}

	if body := get("/metrics"); !strings.Contains(body, "rpc_total") {
		t.Errorf("/metrics missing rpc_total:\n%.500s", body)
	}
	var stats struct {
		Telemetry struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"Telemetry"`
	}
	if err := json.Unmarshal([]byte(get("/debug/stats")), &stats); err != nil {
		t.Fatalf("/debug/stats is not JSON: %v", err)
	}
	if len(stats.Telemetry.Counters) == 0 {
		t.Error("/debug/stats has no telemetry counters")
	}
	if body := get("/debug/traces"); !strings.Contains(body, "write") {
		t.Errorf("/debug/traces missing the write trace:\n%.500s", body)
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ index looks wrong:\n%.200s", body)
	}

	if err := m.Close(bg); err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 2 * time.Second}
	if resp, err := client.Get("http://" + addr + "/metrics"); err == nil {
		resp.Body.Close()
		t.Fatal("debug server still serving after Close")
	}
}

// TestTelemetryDisabledByDefault: a plain mount records nothing and pays
// nothing — no snapshot, no spend, no traces.
func TestTelemetryDisabledByDefault(t *testing.T) {
	m := namedMount(t)
	if err := scfs.WriteFile(bg, m, "/p.txt", []byte("plain")); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if len(s.Telemetry.Counters) != 0 || len(s.Spend) != 0 {
		t.Fatalf("telemetry populated without WithMetrics: %+v", s.Telemetry)
	}
	if got := m.Traces(0); len(got) != 0 {
		t.Fatalf("traces recorded without WithTracing: %d", len(got))
	}
}
