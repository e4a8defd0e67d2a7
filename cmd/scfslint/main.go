// Command scfslint checks that every error value the module formats with
// fmt.Errorf is wrapped with %w, so errors.Is keeps working across layers
// (see internal/lint/sentinelwrap). Usage:
//
//	go run ./cmd/scfslint ./...
//
// It prints file:line:col: message for each finding. Exit status is 1 when
// there is a finding, 2 when the packages cannot be loaded.
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"scfs/internal/lint/loader"
	"scfs/internal/lint/sentinelwrap"
)

func main() {
	patterns := os.Args[1:]
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := loader.Load("", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scfslint:", err)
		os.Exit(2)
	}
	cwd, _ := os.Getwd()
	found := 0
	for _, pkg := range pkgs {
		for _, d := range sentinelwrap.Check(pkg) {
			file := d.Pos.Filename
			if rel, err := filepath.Rel(cwd, file); err == nil {
				file = rel
			}
			fmt.Printf("%s:%d:%d: %s\n", file, d.Pos.Line, d.Pos.Column, d.Message)
			found++
		}
	}
	if found > 0 {
		fmt.Fprintf(os.Stderr, "scfslint: %d finding(s)\n", found)
		os.Exit(1)
	}
}
