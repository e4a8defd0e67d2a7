// Package loader loads and type-checks the module's packages for scfslint
// using only the standard library: `go list -deps -export` supplies the
// package graph (in dependency order) plus compiled export data for
// standard-library imports, module packages are parsed and type-checked
// from source, and the two are stitched together with a types.Importer that
// prefers source-checked packages and falls back to gc export data. This is the piece golang.org/x/tools/go/packages would
// otherwise provide; it is rebuilt here so the module stays dependency-free.
package loader

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

// Package is one parsed, type-checked module package.
type Package struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	TypesInfo  *types.Info
}

// listEntry mirrors the subset of `go list -json` output the loader needs.
type listEntry struct {
	ImportPath string
	Dir        string
	Export     string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
}

// Load type-checks the packages matched by patterns (e.g. "./...") rooted at
// dir (the module root; "" means the current directory). Only non-DepOnly
// matches are returned; their imports — other module packages and the
// standard library — are resolved transitively.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	entries, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	exports := map[string]string{} // import path -> export data file
	for _, e := range entries {
		if e.Export != "" {
			exports[e.ImportPath] = e.Export
		}
	}
	imp := &graphImporter{
		source: map[string]*types.Package{},
		gc:     importer.ForCompiler(fset, "gc", exportLookup(exports)),
	}

	var out []*Package
	// `go list -deps` emits dependencies before dependents, so checking in
	// order guarantees every module import is already in imp.source.
	for _, e := range entries {
		if e.Standard || len(e.GoFiles) == 0 {
			continue
		}
		pkg, err := checkFromSource(fset, e, imp)
		if err != nil {
			return nil, err
		}
		imp.source[e.ImportPath] = pkg.Types
		if !e.DepOnly {
			out = append(out, pkg)
		}
	}
	return out, nil
}

// goList shells out to the go tool for the package graph. -export compiles
// (or pulls from the build cache) export data for every dependency so
// standard-library imports type-check without source.
func goList(dir string, patterns []string) ([]*listEntry, error) {
	args := append([]string{
		"list", "-deps", "-export",
		"-json=ImportPath,Dir,Export,Standard,DepOnly,GoFiles",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("scfslint: starting go list: %w", err)
	}
	var entries []*listEntry
	dec := json.NewDecoder(outPipe)
	for {
		var e listEntry
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			_ = cmd.Wait()
			return nil, fmt.Errorf("scfslint: parsing go list output: %w", err)
		}
		entries = append(entries, &e)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("scfslint: go list %v: %w\n%s", patterns, err, stderr.String())
	}
	return entries, nil
}

// checkFromSource parses and type-checks one module package.
func checkFromSource(fset *token.FileSet, e *listEntry, imp types.Importer) (*Package, error) {
	files := make([]*ast.File, 0, len(e.GoFiles))
	for _, name := range e.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(e.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	pkg, err := conf.Check(e.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("scfslint: type-checking %s: %w", e.ImportPath, err)
	}
	return &Package{
		ImportPath: e.ImportPath,
		Fset:       fset,
		Files:      files,
		Types:      pkg,
		TypesInfo:  info,
	}, nil
}

// graphImporter resolves imports first against source-checked module
// packages, then against gc export data.
type graphImporter struct {
	source map[string]*types.Package
	gc     types.Importer
}

func (im *graphImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := im.source[path]; ok {
		return p, nil
	}
	return im.gc.Import(path)
}

// exportLookup adapts the path->file map from `go list -export` to the
// lookup shape importer.ForCompiler wants.
func exportLookup(exports map[string]string) func(string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("scfslint: no export data for %q (not in the go list -deps graph)", path)
		}
		return os.Open(file)
	}
}
