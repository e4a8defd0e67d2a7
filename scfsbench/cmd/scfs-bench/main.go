// Command scfs-bench runs the workloads of package bench: one row of the
// table or all of them, untraced (end-to-end metrics) or traced (per-layer
// metrics), and prints one JSON result per run as the last line of output.
//
//	scfs-bench -workload files-wan -seed 1 -seconds 25 -trace 0
//	scfs-bench -workload all -trace 1 -o runs.jsonl
//	scfs-bench -report runs.jsonl
//	scfs-bench -spread runs.jsonl
//	scfs-bench -manifest > BENCHMARK.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"scfs/scfsbench/bench"
)

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	build    string
	record   string
	report   string
	spread   string
	manifest bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "a workload name from the table, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the script, the payloads and the simulators' jitter")
	flag.Float64Var(&o.seconds, "seconds", bench.RunSeconds, "how long a run measures")
	flag.IntVar(&o.trace, "trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	flag.StringVar(&o.build, "build", ".bench_build", "directory for everything a run leaves behind")
	flag.StringVar(&o.record, "o", "", "append each run's record to this file, for -report and -spread")
	flag.StringVar(&o.report, "report", "", "print the results tables from a file of records and exit")
	flag.StringVar(&o.spread, "spread", "", "print each end-to-end metric's run-to-run spread from a file of records and exit")
	flag.BoolVar(&o.manifest, "manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "scfs-bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	switch {
	case o.manifest:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(bench.NewManifest())
	case o.report != "" || o.spread != "":
		f, err := os.Open(o.report + o.spread)
		if err != nil {
			return err
		}
		defer f.Close()
		records, err := bench.ReadRecords(f)
		if err != nil {
			return err
		}
		if o.report != "" {
			bench.Report(os.Stdout, records)
		} else {
			bench.Spread(os.Stdout, records)
		}
		return nil
	}

	rows := bench.Workloads
	if o.workload != "all" {
		w, err := bench.Find(o.workload)
		if err != nil {
			return err
		}
		rows = []bench.Workload{w}
	}
	// A private scratch directory per process, so that concurrent runs in one
	// checkout do not share disk caches.
	if err := os.MkdirAll(o.build, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(o.build, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	ctx := context.Background()
	for _, w := range rows {
		cfg := bench.Config{
			Workload: w,
			Seed:     o.seed,
			Duration: time.Duration(o.seconds * float64(time.Second)),
			Scratch:  scratch,
			Out:      filepath.Join(o.build, "out"),
			Log:      os.Stdout,
		}
		runPass := bench.RunEndToEnd
		if o.trace != 0 {
			runPass = bench.RunTraced
		}
		rec, err := runPass(ctx, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		if o.record != "" {
			if err := appendRecord(o.record, rec); err != nil {
				return err
			}
		}
		line, err := json.Marshal(rec.Result)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return nil
}

func appendRecord(path string, rec bench.Record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
