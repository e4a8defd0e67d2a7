package scfs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"
)

// debugServer is the HTTP introspection endpoint started by
// WithDebugServer. It serves the mount's metrics (Prometheus text and
// JSON), its recent operation traces, and the standard pprof profiles. The
// handlers are read-only: they snapshot, they never mutate mount state.
type debugServer struct {
	addr string
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
}

// startDebugServer binds addr (":0" picks an ephemeral port) and serves
// until shutdown.
func startDebugServer(addr string, m *FS) (*debugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("scfs: debug server listen %q: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "scfs debug server")
		fmt.Fprintln(w, "  /metrics       Prometheus text exposition")
		fmt.Fprintln(w, "  /debug/stats   mount stats as JSON (counters, telemetry, spend)")
		fmt.Fprintln(w, "  /debug/traces  recent operation traces (?n=32)")
		fmt.Fprintln(w, "  /debug/slow    slowest retained traces per operation class")
		fmt.Fprintln(w, "  /debug/flight  flight recorder stats and fault-flagged traces")
		fmt.Fprintln(w, "  /debug/pprof/  runtime profiles")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = m.metrics.Snapshot().WritePrometheus(w)
	})
	mux.HandleFunc("/debug/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(m.Stats())
	})
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		n := 32
		if q := r.URL.Query().Get("n"); q != "" {
			var err error
			if n, err = strconv.Atoi(q); err != nil {
				http.Error(w, "bad n", http.StatusBadRequest)
				return
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, t := range m.Traces(n) {
			fmt.Fprintf(w, "%s %s dur=%s verdict=%s\n", t.Op, t.Unit, t.Duration(), t.VerdictLatency())
			for _, line := range t.Describe() {
				fmt.Fprintf(w, "  %s\n", line)
			}
		}
	})
	writeTrace := func(w http.ResponseWriter, t *Trace) {
		verdict := ""
		if v := t.VerdictLatency(); v > 0 {
			verdict = fmt.Sprintf(" verdict=%s", v)
		}
		suffix := ""
		if err := t.Err(); err != nil {
			suffix += " err=" + err.Error()
		}
		if n := t.Dropped(); n > 0 {
			suffix += fmt.Sprintf(" dropped=%d", n)
		}
		fmt.Fprintf(w, "%s %s %s dur=%s%s%s\n", t.ID, t.Op, t.Unit, t.Duration(), verdict, suffix)
		for _, line := range t.Describe() {
			fmt.Fprintf(w, "  %s\n", line)
		}
	}
	mux.HandleFunc("/debug/slow", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, class := range m.flight.Classes() {
			fmt.Fprintf(w, "== %s (slowest first)\n", class)
			for _, t := range m.flight.Slowest(class) {
				writeTrace(w, t)
			}
		}
	})
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		st := m.flight.Stats()
		fmt.Fprintf(w, "seen=%d admitted=%d evicted=%d retained=%d spans=%d/%d\n",
			st.Seen, st.Admitted, st.Evicted, st.Retained, st.Spans, st.SpanBudget)
		for _, class := range m.flight.Classes() {
			flagged := m.flight.Flagged(class)
			if len(flagged) == 0 {
				continue
			}
			fmt.Fprintf(w, "== %s (flagged, newest first)\n", class)
			for _, t := range flagged {
				writeTrace(w, t)
			}
		}
	})
	// Explicit pprof routes: the mount must not depend on (or pollute)
	// http.DefaultServeMux.
	mux.HandleFunc("/debug/pprof/", func(w http.ResponseWriter, r *http.Request) {
		switch strings.TrimPrefix(r.URL.Path, "/debug/pprof/") {
		case "cmdline":
			pprof.Cmdline(w, r)
		case "profile":
			pprof.Profile(w, r)
		case "symbol":
			pprof.Symbol(w, r)
		case "trace":
			pprof.Trace(w, r)
		default:
			pprof.Index(w, r)
		}
	})

	d := &debugServer{
		addr: ln.Addr().String(),
		ln:   ln,
		srv:  &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(d.done)
		_ = d.srv.Serve(ln)
	}()
	return d, nil
}

// shutdown stops the server, waiting for in-flight requests until ctx is
// done (then closing them forcefully). Safe to call more than once.
func (d *debugServer) shutdown(ctx context.Context) {
	if err := d.srv.Shutdown(ctx); err != nil {
		_ = d.srv.Close()
	}
	<-d.done
}
