package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// detorderPackages are the determinism-critical packages: anything
// they compute can end up in a Result, a report table, a trace, or a
// wire response, all of which the repo promises are byte-identical
// across runs and worker counts. verify is included because
// PreconditionReport flows into core.Analysis and from there into
// server responses; refsim because the equivalence suite holds the
// machine's Results byte-identical to the reference engine's.
var detorderPackages = map[string]bool{
	"systolic/internal/machine": true,
	"systolic/internal/refsim":  true,
	"systolic/internal/sweep":   true,
	"systolic/internal/diff":    true,
	"systolic/internal/server":  true,
	"systolic/internal/verify":  true,
}

// detorder flags `range` over a map whose iteration order can escape
// the loop: Go randomizes map order per run, so any order-dependent
// effect (appending, early return, writes to outer state) breaks the
// byte-identical-reports contract. Sites that are genuinely
// order-insensitive declare it with //sysvet:unordered -- <reason>.
var detorder = &Analyzer{
	Name: "detorder",
	Doc: "flag map iteration whose order can escape into a report " +
		"in determinism-critical packages",
	Run: runDetorder,
}

func runDetorder(pass *Pass) {
	if !detorderPackages[pass.Pkg.Path()] {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.Info.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, ok := t.Underlying().(*types.Map); !ok {
				return true
			}
			if pass.Dirs.Unordered(pass.Fset.Position(rs.Pos())) {
				return true
			}
			if reason := orderEscape(pass, rs); reason != "" {
				pass.Reportf(rs.Pos(),
					"map iteration order escapes the loop (%s); iterate sorted keys or annotate //sysvet:unordered -- <why order cannot matter>",
					reason)
			}
			return true
		})
	}
}

// commutativeAssign are the compound assignments whose final value is
// independent of iteration order over a fixed key set.
var commutativeAssign = map[token.Token]bool{
	token.ADD_ASSIGN: true,
	token.SUB_ASSIGN: true,
	token.MUL_ASSIGN: true,
	token.AND_ASSIGN: true,
	token.OR_ASSIGN:  true,
	token.XOR_ASSIGN: true,
}

// orderEscape inspects a map-range body and returns a short
// description of the first construct through which iteration order
// can leak, or "" when every effect is provably order-insensitive
// (keyed map writes, commutative accumulation, counters, and writes
// to loop-local state).
func orderEscape(pass *Pass, rs *ast.RangeStmt) string {
	lo, hi := rs.Pos(), rs.End()
	isLocal := func(obj types.Object) bool {
		return obj != nil && obj.Pos() >= lo && obj.Pos() < hi
	}

	if rs.Tok == token.ASSIGN {
		// `for k, v = range m` leaves the last-visited pair in outer
		// variables, which is an arbitrary element of the map.
		return "assigns range variables declared outside the loop"
	}

	if isKeyCollection(pass, rs) {
		// `for k := range m { keys = append(keys, k) }` is the first
		// half of the canonical sort-the-keys fix; the sort that
		// follows launders the order.
		return ""
	}

	var reason string
	found := func(r string) {
		if reason == "" {
			reason = r
		}
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch s := n.(type) {
		case *ast.ReturnStmt:
			found("returns from inside the iteration")
		case *ast.SendStmt:
			found("sends on a channel")
		case *ast.GoStmt:
			found("starts a goroutine per element")
		case *ast.DeferStmt:
			found("defers a call per element")
		case *ast.CallExpr:
			if isBuiltin(pass, s.Fun, "append") {
				found("appends in iteration order")
			}
		case *ast.ExprStmt:
			if r := stmtCallEscape(pass, s, isLocal); r != "" {
				found(r)
			}
		case *ast.AssignStmt:
			for _, l := range s.Lhs {
				if r := lhsEscape(pass, l, s.Tok, isLocal); r != "" {
					found(r)
					break
				}
			}
		}
		return reason == ""
	})
	return reason
}

// isKeyCollection matches a body that only appends the range key to
// a slice: the gathering half of "collect keys, sort, iterate".
func isKeyCollection(pass *Pass, rs *ast.RangeStmt) bool {
	key, ok := rs.Key.(*ast.Ident)
	if !ok || key.Name == "_" || rs.Value != nil {
		return false
	}
	if len(rs.Body.List) != 1 {
		return false
	}
	as, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 || as.Tok != token.ASSIGN {
		return false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || !isBuiltin(pass, call.Fun, "append") || len(call.Args) != 2 || call.Ellipsis.IsValid() {
		return false
	}
	dst, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	src, ok := call.Args[0].(*ast.Ident)
	if !ok || pass.Info.ObjectOf(src) != pass.Info.ObjectOf(dst) {
		return false
	}
	arg, ok := call.Args[1].(*ast.Ident)
	return ok && pass.Info.ObjectOf(arg) == pass.Info.ObjectOf(key)
}

// stmtCallEscape flags statement-level calls that act on outer state
// (b.WriteString, h.Write, fmt.Print...): each such call observes the
// iteration order. delete(m, k) and calls on loop-local values are
// fine.
func stmtCallEscape(pass *Pass, s *ast.ExprStmt, isLocal func(types.Object) bool) string {
	call, ok := s.X.(*ast.CallExpr)
	if !ok {
		return ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	base := baseIdent(sel.X)
	if base == nil {
		return ""
	}
	obj := pass.Info.ObjectOf(base)
	if pn, ok := obj.(*types.PkgName); ok {
		if pn.Imported().Path() == "fmt" {
			return "calls fmt." + sel.Sel.Name + " per element"
		}
		return "" // other package-level calls: no receiver state to order
	}
	if obj != nil && !isLocal(obj) {
		return "calls a method on outer value " + base.Name
	}
	return ""
}

// lhsEscape classifies one assignment target inside a map range.
func lhsEscape(pass *Pass, l ast.Expr, tok token.Token, isLocal func(types.Object) bool) string {
	switch lhs := l.(type) {
	case *ast.Ident:
		if lhs.Name == "_" || tok == token.DEFINE {
			return ""
		}
		if obj := pass.Info.ObjectOf(lhs); isLocal(obj) {
			return ""
		}
		if commutativeAssign[tok] {
			return ""
		}
		return "assigns outer variable " + lhs.Name
	case *ast.IndexExpr:
		if t := pass.Info.TypeOf(lhs.X); t != nil {
			if _, ok := t.Underlying().(*types.Map); ok {
				return "" // keyed map write: each key written independently
			}
		}
		if base := baseIdent(lhs.X); base != nil && isLocal(pass.Info.ObjectOf(base)) {
			return ""
		}
		return "writes an element of an outer slice or array"
	case *ast.SelectorExpr:
		if base := baseIdent(lhs.X); base != nil && isLocal(pass.Info.ObjectOf(base)) {
			return ""
		}
		if commutativeAssign[tok] {
			return ""
		}
		return "assigns a field of an outer value"
	case *ast.StarExpr:
		return "writes through a pointer"
	}
	return ""
}

// baseIdent unwraps selectors, indexes, parens, and derefs down to
// the leftmost identifier, or nil.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.CallExpr:
			e = x.Fun
		default:
			return nil
		}
	}
}

// isBuiltin reports whether e denotes the named builtin.
func isBuiltin(pass *Pass, e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = pass.Info.ObjectOf(id).(*types.Builtin)
	return ok
}
