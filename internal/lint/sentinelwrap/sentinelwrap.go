// Package sentinelwrap enforces error-wrapping discipline at fmt.Errorf
// call sites.
//
// The dispatch's retries and breakers (internal/iopolicy) classify
// per-cloud failures by unwrapping to the canonical internal/cloud
// sentinels (ErrUnavailable, ErrThrottled, ...), and the facade promises
// errors.Is(err, fs.ErrNotExist) works through every layer. Both break silently when an intermediate layer formats an
// error with %v or %s instead of %w: the text survives, the unwrap chain
// does not — retries stop firing, breakers stop opening, and callers start
// string-matching. The check makes the chain mechanical: an error value
// given to fmt.Errorf must be wrapped with %w. A deliberate break formats
// err.Error(), a string, so it stays visible at the call site.
package sentinelwrap

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"scfs/internal/lint/loader"
)

// Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos     token.Position
	Message string
}

// checker carries one package through Check.
type checker struct {
	fset  *token.FileSet
	info  *types.Info
	diags []Diagnostic
}

func (c *checker) reportf(pos token.Pos, format string, args ...any) {
	c.diags = append(c.diags, Diagnostic{Pos: c.fset.Position(pos), Message: fmt.Sprintf(format, args...)})
}

var errType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// Check reports, in source order, every error value of pkg that reaches
// fmt.Errorf through a verb other than %w, and every fmt.Errorf whose
// format is not a constant while one of its arguments is an error.
func Check(pkg *loader.Package) []Diagnostic {
	c := &checker{fset: pkg.Fset, info: pkg.TypesInfo}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !c.isFmtErrorf(call) || len(call.Args) == 0 {
				return true
			}
			format, ok := c.constantString(call.Args[0])
			if !ok {
				// A non-constant format with error arguments cannot be
				// verified; demand a constant format at such sites.
				for _, arg := range call.Args[1:] {
					if c.isErrorArg(arg) {
						c.reportf(call.Pos(), "fmt.Errorf with a non-constant format and an error argument; use a constant format so %%w wrapping is checkable")
						break
					}
				}
				return true
			}
			c.checkVerbs(call, format)
			return true
		})
	}
	return c.diags
}

// checkVerbs walks the format string, pairing verbs with arguments, and
// flags error-typed arguments consumed by any verb other than %w.
func (c *checker) checkVerbs(call *ast.CallExpr, format string) {
	args := call.Args[1:]
	next := 0 // next implicit argument index
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		if i >= len(format) {
			break
		}
		if format[i] == '%' {
			continue
		}
		// Flags.
		for i < len(format) && strings.IndexByte("+-# 0", format[i]) >= 0 {
			i++
		}
		// Width (possibly '*', consuming an arg).
		for i < len(format) && (format[i] == '*' || isDigit(format[i])) {
			if format[i] == '*' {
				next++
			}
			i++
		}
		// Precision.
		if i < len(format) && format[i] == '.' {
			i++
			for i < len(format) && (format[i] == '*' || isDigit(format[i])) {
				if format[i] == '*' {
					next++
				}
				i++
			}
		}
		// Explicit argument index %[n].
		if i < len(format) && format[i] == '[' {
			j := i + 1
			num := 0
			for j < len(format) && isDigit(format[j]) {
				num = num*10 + int(format[j]-'0')
				j++
			}
			if j < len(format) && format[j] == ']' && num > 0 {
				next = num - 1
				i = j + 1
			}
		}
		if i >= len(format) {
			break
		}
		verb := format[i]
		argIdx := next
		next++
		if argIdx >= len(args) {
			continue // vet's business, not ours
		}
		if verb != 'w' && c.isErrorArg(args[argIdx]) {
			c.reportf(args[argIdx].Pos(), "error formatted with %%%c breaks the errors.Is/As chain (resilience classification, facade sentinels); wrap it with %%w", verb)
		}
	}
}

func (c *checker) isFmtErrorf(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Errorf" {
		return false
	}
	obj := c.info.Uses[sel.Sel]
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt"
}

// isErrorArg reports whether the argument's static type implements error.
func (c *checker) isErrorArg(arg ast.Expr) bool {
	tv, ok := c.info.Types[arg]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if basic, ok := t.Underlying().(*types.Basic); ok && basic.Kind() == types.UntypedNil {
		return false
	}
	return types.Implements(t, errType) || types.Implements(types.NewPointer(t), errType)
}

// constantString extracts a compile-time constant string value.
func (c *checker) constantString(e ast.Expr) (string, bool) {
	tv, ok := c.info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

func isDigit(b byte) bool { return b >= '0' && b <= '9' }
