package loader

import (
	"go/types"
	"path/filepath"
	"runtime"
	"testing"
)

// moduleRoot walks up from this file to the directory holding go.mod.
func moduleRoot(t *testing.T) string {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("runtime.Caller failed")
	}
	return filepath.Join(filepath.Dir(file), "..", "..", "..")
}

// TestLoadTypeChecks loads a real package of this module and verifies the
// loader produced fully type-checked ASTs: sentinelwrap depends on
// TypesInfo resolving identifiers through cross-package (and stdlib)
// imports, not just on parse trees.
func TestLoadTypeChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list -export")
	}
	pkgs, err := Load(moduleRoot(t), "scfs/internal/lint/sentinelwrap")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if p.ImportPath != "scfs/internal/lint/sentinelwrap" {
		t.Fatalf("ImportPath = %q", p.ImportPath)
	}
	if len(p.Files) == 0 || p.Types == nil || p.TypesInfo == nil {
		t.Fatal("package not fully loaded")
	}
	obj := p.Types.Scope().Lookup("Diagnostic")
	if obj == nil {
		t.Fatal("Diagnostic not found in package scope")
	}
	if _, ok := obj.Type().Underlying().(*types.Struct); !ok {
		t.Fatalf("Diagnostic is %v, want struct", obj.Type().Underlying())
	}
	// Cross-package resolution: the package imports go/token et al.; the
	// type checker must have recorded uses for imported identifiers.
	if len(p.TypesInfo.Uses) == 0 {
		t.Fatal("TypesInfo.Uses empty — type checking did not run")
	}
}
