package sentinelwrap

import (
	"regexp"
	"strings"
	"testing"

	"scfs/internal/lint/loader"
)

// TestAnalyzer checks the fixture in testdata: a line carrying a
// // want `regexp` comment must get exactly one finding, whose message the
// regexp matches, and every other line none.
func TestAnalyzer(t *testing.T) {
	pkgs, err := loader.Load("", "./testdata")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	want := map[int]*regexp.Regexp{} // line -> expected message
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// want `")
				if !ok {
					continue
				}
				want[pkg.Fset.Position(c.Pos()).Line] = regexp.MustCompile(strings.TrimSuffix(text, "`"))
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("fixture has no want comments")
	}
	for _, d := range Check(pkg) {
		re, ok := want[d.Pos.Line]
		switch {
		case !ok:
			t.Errorf("line %d: unexpected finding: %s", d.Pos.Line, d.Message)
		case !re.MatchString(d.Message):
			t.Errorf("line %d: finding %q does not match %q", d.Pos.Line, d.Message, re)
		}
		delete(want, d.Pos.Line)
	}
	for line, re := range want {
		t.Errorf("line %d: expected a finding matching %q, got none", line, re)
	}
}
