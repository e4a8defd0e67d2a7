// Package metriclabels bounds the telemetry registry's cardinality at
// compile time.
//
// Every telemetry.Name(base, k, v, ...) call site mints metric names; the
// registry keeps one instrument per distinct name forever. Cardinality
// stays bounded only if (a) base names are fixed strings, never built with
// fmt.Sprintf, and (b) label keys come from a small deliberate vocabulary
// (values may be dynamic — they are bounded by configuration: cloud names,
// op classes). The analyzer enforces:
//
//  1. the kv tail has an even number of arguments (key/value pairs);
//  2. label keys are compile-time string constants drawn from AllowedKeys;
//  3. the base name is not built by a string-formatting call or by
//     concatenation with non-constant operands (a plain identifier is
//     accepted — threading a literal through a helper parameter is fine —
//     but an identifier assigned from fmt.Sprintf in the same function is
//     not).
//
// Growing the vocabulary is a one-line change to AllowedKeys made in code
// review, which is exactly the point.
//
// The same discipline applies to trace span names: telemetry.Span{Name: ...}
// composite literals must use fixed strings ("smr.invoke", "shard.route"),
// with the variable detail (shard number, cloud name, trigger) in the Target
// field — a Sprintf-built span name makes trace grouping and the flight
// recorder's per-class retention unbounded, exactly like a Sprintf-built
// metric name.
package metriclabels

import (
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"

	"scfs/internal/lint/analysis"
)

// AllowedKeys is the label-key vocabulary. Adding a key here is a reviewed
// decision: every key multiplies the registry's worst-case cardinality.
var AllowedKeys = map[string]bool{
	"cloud":   true, // provider name (bounded by mount configuration)
	"op":      true, // operation class: get / put / delete / list / trylock / unlock; batch = one round trip carrying several
	"outcome": true, // ok / error / canceled
	"backend": true, // coordination backend: depspace / metashard / custom
	"result":  true, // cache result: hit / miss
}

// Analyzer bounds metric-name cardinality at telemetry.Name call sites.
var Analyzer = &analysis.Analyzer{
	Name: "metriclabels",
	Doc:  "telemetry.Name call sites: even kv tail, fixed label-key vocabulary, no Sprintf-built names",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if isTelemetryName(pass, n) {
					checkCall(pass, n)
				}
			case *ast.CompositeLit:
				if isSpanLit(pass, n) {
					checkSpanLit(pass, n)
				}
			}
			return true
		})
	}
	return nil
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	if call.Ellipsis.IsValid() {
		pass.Reportf(call.Pos(), "telemetry.Name called with a spread kv slice; pass literal key/value pairs so the key vocabulary is checkable")
		return
	}
	checkBase(pass, call.Args[0])
	kv := call.Args[1:]
	if len(kv)%2 != 0 {
		pass.Reportf(call.Pos(), "telemetry.Name kv tail has %d arguments; keys and values must pair up", len(kv))
		return
	}
	for i := 0; i < len(kv); i += 2 {
		key, ok := constantString(pass, kv[i])
		if !ok {
			pass.Reportf(kv[i].Pos(), "telemetry label key must be a compile-time constant string")
			continue
		}
		if !AllowedKeys[key] {
			pass.Reportf(kv[i].Pos(), "telemetry label key %q is not in the fixed vocabulary (%s); add it to metriclabels.AllowedKeys deliberately or reuse an existing key", key, keyList())
		}
	}
}

// checkBase rejects dynamically built metric base names.
func checkBase(pass *analysis.Pass, base ast.Expr) {
	if _, ok := constantString(pass, base); ok {
		return
	}
	switch b := base.(type) {
	case *ast.CallExpr:
		pass.Reportf(base.Pos(), "telemetry metric base name built by a function call; use a fixed name and put the dynamic part in a label value")
	case *ast.BinaryExpr:
		pass.Reportf(base.Pos(), "telemetry metric base name built by concatenation; use a fixed name and put the dynamic part in a label value")
	case *ast.Ident:
		// A plain identifier is accepted (a helper parameter threading a
		// literal), unless it was visibly assigned from a formatting call.
		if assignedFromSprintf(pass, b) {
			pass.Reportf(base.Pos(), "telemetry metric base name assigned from fmt.Sprintf; use a fixed name and put the dynamic part in a label value")
		}
	default:
		pass.Reportf(base.Pos(), "telemetry metric base name must be a fixed string")
	}
}

// assignedFromSprintf reports whether the identifier's object is assigned
// from a fmt.Sprintf/Sprint call anywhere in the package.
func assignedFromSprintf(pass *analysis.Pass, id *ast.Ident) bool {
	found := false
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || found {
				return !found
			}
			for i, lhs := range as.Lhs {
				lid, ok := lhs.(*ast.Ident)
				if !ok || i >= len(as.Rhs) {
					continue
				}
				lobj := pass.TypesInfo.Defs[lid]
				if lobj == nil {
					lobj = pass.TypesInfo.Uses[lid]
				}
				if lobj == nil || lobj != pass.TypesInfo.Uses[id] {
					continue
				}
				if call, ok := as.Rhs[i].(*ast.CallExpr); ok && isSprintf(pass, call) {
					found = true
				}
			}
			return !found
		})
	}
	return found
}

func isSprintf(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Sprintf", "Sprint", "Sprintln":
	default:
		return false
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt"
}

// isSpanLit matches composite literals of the telemetry package's Span type
// (the real scfs/internal/telemetry or a fixture package named telemetry).
func isSpanLit(pass *analysis.Pass, cl *ast.CompositeLit) bool {
	tv, ok := pass.TypesInfo.Types[cl]
	if !ok || tv.Type == nil {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok || named.Obj().Name() != "Span" {
		return false
	}
	return analysis.PkgIs(named.Obj().Pkg(), "telemetry")
}

// checkSpanLit enforces the span-name vocabulary on telemetry.Span
// literals: Name is the span *kind* and must be a fixed string; the flight
// recorder and trace grouping key on it, so a Sprintf-built name is the
// trace-side twin of a Sprintf-built metric name.
func checkSpanLit(pass *analysis.Pass, cl *ast.CompositeLit) {
	for _, elt := range cl.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok || key.Name != "Name" {
			continue
		}
		if _, ok := constantString(pass, kv.Value); ok {
			return
		}
		switch v := kv.Value.(type) {
		case *ast.CallExpr:
			pass.Reportf(kv.Value.Pos(), "telemetry span name built by a function call; use a fixed name and put the dynamic part in Target")
		case *ast.BinaryExpr:
			pass.Reportf(kv.Value.Pos(), "telemetry span name built by concatenation; use a fixed name and put the dynamic part in Target")
		case *ast.Ident:
			if assignedFromSprintf(pass, v) {
				pass.Reportf(kv.Value.Pos(), "telemetry span name assigned from fmt.Sprintf; use a fixed name and put the dynamic part in Target")
			}
		default:
			pass.Reportf(kv.Value.Pos(), "telemetry span name must be a fixed string")
		}
		return
	}
}

// isTelemetryName matches calls to the telemetry package's Name function
// (the real scfs/internal/telemetry or a fixture package named telemetry).
func isTelemetryName(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Name" {
		return false
	}
	o := pass.TypesInfo.Uses[sel.Sel]
	return o != nil && analysis.PkgIs(o.Pkg(), "telemetry")
}

func constantString(pass *analysis.Pass, e ast.Expr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

func keyList() string {
	keys := make([]string, 0, len(AllowedKeys))
	for k := range AllowedKeys {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}
