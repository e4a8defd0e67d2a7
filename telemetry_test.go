package scfs_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"regexp"
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
		scfs.WithMetrics(), scfs.WithTracing(),
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
	// The same spend is exported as registry gauges (microdollars), at least
	// for a cloud that served the write.
	if ws.Telemetry.Gauge(`spend_microdollars{cloud="`+putter+`"}`) <= 0 {
		t.Errorf("spend gauge empty; gauges: %v", ws.Telemetry.Gauges)
	}

	// Traces: one per client op, spans covering the quorum fan-out.
	check := func(m *scfs.FS, op string) {
		t.Helper()
		var tr *scfs.Trace
		for _, c := range retained(t, m) {
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

	// The registry keeps one instrument per distinct name for the mount's
	// lifetime, so its size stays bounded only while every base name is
	// fixed and every label key comes from a small vocabulary; label values
	// are bounded by the mount's configuration (cloud names, op classes).
	for _, snap := range []scfs.MetricsSnapshot{ws.Telemetry, rs.Telemetry} {
		var names []string
		for n := range snap.Counters {
			names = append(names, n)
		}
		for n := range snap.Gauges {
			names = append(names, n)
		}
		for n := range snap.Histograms {
			names = append(names, n)
		}
		for _, n := range names {
			if !metricName.MatchString(n) {
				t.Errorf("metric %q: want a [a-z_]+ base and label keys from cloud, op, outcome, result", n)
			}
		}
	}
}

// metricName is the registry's vocabulary: a fixed [a-z_]+ base, then
// optionally a label block whose keys are cloud, op, outcome or result.
var metricName = func() *regexp.Regexp {
	label := `(cloud|op|outcome|result)="(?:[^"\\]|\\.)*"`
	return regexp.MustCompile(`^[a-z_]+(\{` + label + `(,` + label + `)*\})?$`)
}()

// retained returns every trace m's flight recorder holds. The tests here
// finish fewer traces per operation class than the recorder keeps, so it
// holds all of them; retained fails the test if it dropped one.
func retained(t *testing.T, m *scfs.FS) []*scfs.Trace {
	t.Helper()
	fr := m.FlightRecorder()
	if st := fr.Stats(); int64(st.Retained) != st.Seen {
		t.Fatalf("the flight recorder retains %d of %d finished traces", st.Retained, st.Seen)
	}
	var out []*scfs.Trace
	for _, class := range fr.Classes() {
		out = append(out, fr.Slowest(class)...)
		out = append(out, fr.Flagged(class)...)
	}
	return out
}

// spanNames are the span kinds telemetry.Span's doc fixes; variable detail
// goes in a span's Target, never into its name.
var spanNames = map[string]bool{
	"desc.get": true, "desc.put": true, "chunk.get": true, "chunk.put": true,
	"head.get": true, "head.put": true, "smr.invoke": true, "smr.batch": true,
}

// TestDefaultMountCoordinatesThroughReplicas: a mount given no coordination
// service runs the paper's, DepSpace on BFT replicas, so the coordination
// accesses of a plain WriteFile are smr invocations in the trace the facade
// starts for it.
func TestDefaultMountCoordinatesThroughReplicas(t *testing.T) {
	m := mount(t, scfs.WithTracing())
	if err := scfs.WriteFile(bg, m, "/f.txt", []byte("replicated")); err != nil {
		t.Fatal(err)
	}
	traces := retained(t, m)
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
		scfs.WithTracing())
	if err := m.Mkdir(bg, "/docs"); err != nil {
		t.Fatal(err)
	}
	if err := scfs.WriteFile(bg, m, "/docs/f.txt", []byte("end to end")); err != nil {
		t.Fatal(err)
	}
	before := make(map[scfs.TraceID]bool)
	for _, tr := range retained(t, m) {
		before[tr.ID] = true
	}

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

	var fresh []*scfs.Trace
	for _, tr := range retained(t, m) {
		if !before[tr.ID] {
			fresh = append(fresh, tr)
		}
		for _, s := range tr.Spans() {
			if !spanNames[s.Name] {
				t.Errorf("%s trace: span name %q is not one of telemetry.Span's fixed names", tr.Op, s.Name)
			}
		}
	}
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
	if body := get("/debug/flight"); !strings.Contains(body, "write /dbg.txt") {
		t.Errorf("/debug/flight missing the write trace:\n%.500s", body)
	}
	// The flight recorder is the one trace store, served at one endpoint.
	for _, path := range []string{"/debug/traces", "/debug/slow"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want %d", path, resp.StatusCode, http.StatusNotFound)
		}
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
	if got := retained(t, m); len(got) != 0 {
		t.Fatalf("traces recorded without WithTracing: %d", len(got))
	}
}

// TestFailedOperationKeptAsEvidence: a failed operation is fault evidence.
// The flight recorder keeps its trace as a flagged exemplar carrying the
// error, and /debug/flight prints it with its ID and the error.
func TestFailedOperationKeptAsEvidence(t *testing.T) {
	m := namedMount(t, scfs.WithTracing(), scfs.WithDebugServer("127.0.0.1:0"))
	if _, err := scfs.ReadFile(bg, m, "/missing.txt"); !errors.Is(err, scfs.ErrNotExist) {
		t.Fatalf("ReadFile of a missing path: %v, want ErrNotExist", err)
	}
	flagged := m.FlightRecorder().Flagged("read")
	if len(flagged) != 1 || flagged[0].Unit != "/missing.txt" || !errors.Is(flagged[0].Err(), scfs.ErrNotExist) {
		t.Fatalf("flagged read traces = %v, want the failed ReadFile's, carrying ErrNotExist", flagged)
	}
	resp, err := http.Get("http://" + m.DebugAddr() + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	line := regexp.MustCompile(`(?m)^` + flagged[0].ID.String() + ` read /missing\.txt .* err=`)
	if !line.Match(body) {
		t.Fatalf("/debug/flight does not print trace %s with its error:\n%s", flagged[0].ID, body)
	}
}
