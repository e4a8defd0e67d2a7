package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Manifest is the shape of BENCHMARK.json.
type Manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []ManifestLoad `json:"workloads"`
	EndToEnd   []Def          `json:"end_to_end"`
	PerLayer   []Def          `json:"per_layer"`
}

// ManifestLoad names a workload and the reason it exists.
type ManifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// RunSeconds is how long the driver's runs measure.
const RunSeconds = 25

// NewManifest describes the benchmark from the tables in this package, so
// that BENCHMARK.json cannot drift from what the program prints.
func NewManifest() Manifest {
	m := Manifest{
		Command:    []string{"bash", "scfsbench/run.sh"},
		Paths:      []string{"scfsbench"},
		RunSeconds: RunSeconds,
	}
	for _, w := range Workloads {
		m.Workloads = append(m.Workloads, ManifestLoad{w.Name, w.Why})
	}
	m.EndToEnd, m.PerLayer = EndToEnd, PerLayer
	return m
}

// ReadRecords parses the lines scfs-bench -o wrote.
func ReadRecords(r io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("record %d: %w", len(out)+1, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// sampleClass is the timed class behind an end-to-end timing.
var sampleClass = map[string]Class{
	"write_close_small_p50_ms": CWriteSmall, "write_close_large_p50_ms": CWriteLarge,
	"cold_read_small_p50_ms": CColdSmall, "cold_read_large_p50_ms": CColdLarge,
	"warm_read_p50_ms": CWarmRead, "stat_p50_ms": CStat, "readdir_p50_ms": CReadDir,
	"create_p50_ms": CCreate, "share_p50_ms": CShare,
}

// Report writes the results tables of the README from a set of records: for
// each metric and workload the median over the runs, with the median sample
// count beside each timing.
func Report(w io.Writer, records []Record) {
	type cell struct{ values, samples []float64 }
	table := map[bool]map[string]map[string]*cell{false: {}, true: {}}
	runs := map[bool]map[string]int{false: {}, true: {}}
	failed := map[string][2]int{}
	for _, r := range records {
		runs[r.Traced][r.Workload]++
		if !r.Traced {
			f := failed[r.Workload]
			failed[r.Workload] = [2]int{f[0] + r.Result.Failed, f[1] + r.Result.Attempted}
		}
		for name, m := range r.Result.Metrics {
			row := table[r.Traced][name]
			if row == nil {
				row = map[string]*cell{}
				table[r.Traced][name] = row
			}
			c := row[r.Workload]
			if c == nil {
				c = &cell{}
				row[r.Workload] = c
			}
			c.values = append(c.values, m.Value)
			if class, ok := sampleClass[name]; ok {
				c.samples = append(c.samples, float64(r.Samples[class.String()]))
			}
		}
	}
	header := func(traced bool) {
		fmt.Fprint(w, "| metric | unit |")
		for _, wl := range Workloads {
			fmt.Fprintf(w, " %s (%d runs) |", wl.Name, runs[traced][wl.Name])
		}
		fmt.Fprint(w, "\n|---|---|")
		for range Workloads {
			fmt.Fprint(w, "---:|")
		}
		fmt.Fprintln(w)
	}
	rows := func(traced bool, defs []Def) {
		for _, d := range defs {
			fmt.Fprintf(w, "| `%s` | %s |", d.Name, d.Unit)
			for _, wl := range Workloads {
				c := table[traced][d.Name][wl.Name]
				switch {
				case c == nil:
					fmt.Fprint(w, " |")
				case len(c.samples) > 0:
					fmt.Fprintf(w, " %s (n=%.0f) |", sig(Median(c.values)), Median(c.samples))
				default:
					fmt.Fprintf(w, " %s |", sig(Median(c.values)))
				}
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w, "End-to-end metrics, untraced pass (median over runs; n = median samples per run):")
	fmt.Fprintln(w)
	header(false)
	rows(false, EndToEnd)
	fmt.Fprint(w, "| failed steps / attempted | |")
	for _, wl := range Workloads {
		fmt.Fprintf(w, " %d / %d |", failed[wl.Name][0], failed[wl.Name][1])
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Per-layer metrics, traced pass (median over runs):")
	fmt.Fprintln(w)
	header(true)
	rows(true, PerLayer)
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) gives them (the exclusive method), which
// is what the driver uses.
func quartiles(values []float64) (q1, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	n := len(x)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (x[j-1]*float64(4-delta) + x[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// Spread writes, for each workload and end-to-end metric of a set of
// untraced records (ten runs with ten seeds is what the driver makes), the
// median and the distance between the quartiles as a share of the median,
// beside the metric's bound. A benchmark is steady when every spread is under
// a third of its bound, and the driver refuses it when one is over.
func Spread(w io.Writer, records []Record) {
	values := map[string]map[string][]float64{}
	for _, r := range records {
		if r.Traced {
			continue
		}
		if values[r.Workload] == nil {
			values[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Result.Metrics {
			values[r.Workload][name] = append(values[r.Workload][name], m.Value)
		}
	}
	for _, wl := range Workloads {
		for _, d := range EndToEnd {
			v := values[wl.Name][d.Name]
			if len(v) < 2 {
				continue
			}
			q1, q3 := quartiles(v)
			med := Median(v)
			spread := (q3 - q1) / med
			note := ""
			switch {
			case d.Name == "setup_s":
				note = "(exempt)"
			case spread > d.Bound:
				note = "OVER THE BOUND"
			case spread > d.Bound/3:
				note = "over a third of the bound"
			}
			fmt.Fprintf(w, "%-10s %-26s runs %2d  median %-10s spread %5.1f%%  bound %2.0f%%  %s\n",
				wl.Name, d.Name, len(v), sig(med), spread*100, d.Bound*100, note)
		}
	}
}

// sig formats a value with four significant digits.
func sig(x float64) string { return strconv.FormatFloat(x, 'g', 4, 64) }
