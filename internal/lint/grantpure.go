package lint

import (
	"go/ast"
	"go/types"
)

// grantpure enforces the assign.Policy Grant contract documented in
// internal/assign: Grant must be a pure function of (free, pending,
// own grant history). Concretely, on any method whose signature
// matches Policy.Grant, and on every same-package function it calls:
// no writes to package-level state, no time.* calls, no package-level
// math/rand calls (a seeded *rand.Rand held by the policy is fine),
// and the pending slice must be neither mutated nor retained beyond
// the call — policies that reorder copy first, as naive does with its
// scratch buffer.
var grantpure = &Analyzer{
	Name: "grantpure",
	Doc: "enforce the Grant purity contract on assign.Policy " +
		"implementations",
	Run: runGrantpure,
}

func runGrantpure(pass *Pass) {
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				decls[obj] = fd
			}
		}
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Name.Name != "Grant" || fd.Body == nil {
				continue
			}
			obj, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok || !isGrantSignature(obj) {
				continue
			}
			checkGrant(pass, fd, decls)
		}
	}
}

// isGrantSignature matches assign.Policy.Grant:
//
//	Grant(now int, link topology.LinkID, free int, pending []model.MessageID) []model.MessageID
func isGrantSignature(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	p, r := sig.Params(), sig.Results()
	if p.Len() != 4 || r.Len() != 1 {
		return false
	}
	return isInt(p.At(0).Type()) &&
		isNamedType(p.At(1).Type(), "systolic/internal/topology", "LinkID") &&
		isInt(p.At(2).Type()) &&
		isSliceOf(p.At(3).Type(), "systolic/internal/model", "MessageID") &&
		isSliceOf(r.At(0).Type(), "systolic/internal/model", "MessageID")
}

// checkGrant checks the Grant body and, transitively, every
// same-package function it calls. The pending-slice rules apply only
// to the Grant body itself, where the parameter is in scope.
func checkGrant(pass *Pass, grant *ast.FuncDecl, decls map[*types.Func]*ast.FuncDecl) {
	var pending types.Object
	params := grant.Type.Params.List
	if len(params) == 4 && len(params[3].Names) == 1 && params[3].Names[0].Name != "_" {
		pending = pass.Info.Defs[params[3].Names[0]]
	}

	visited := make(map[*ast.FuncDecl]bool)
	var visit func(fd *ast.FuncDecl, root bool)
	visit = func(fd *ast.FuncDecl, root bool) {
		if visited[fd] {
			return
		}
		visited[fd] = true
		var pend types.Object
		if root {
			pend = pending
		}
		checkPurity(pass, fd, pend)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var callee types.Object
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				callee = pass.Info.ObjectOf(fun)
			case *ast.SelectorExpr:
				callee = pass.Info.ObjectOf(fun.Sel)
			}
			if fn, ok := callee.(*types.Func); ok {
				if next, ok := decls[fn]; ok {
					visit(next, false)
				}
			}
			return true
		})
	}
	visit(grant, true)
}

// checkPurity reports purity violations in one function body reached
// from Grant.
func checkPurity(pass *Pass, fd *ast.FuncDecl, pending types.Object) {
	where := ""
	if fd.Name.Name != "Grant" {
		where = " (reached from Grant via " + fd.Name.Name + ")"
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for i, l := range s.Lhs {
				if v := packageLevelTarget(pass, l); v != nil {
					pass.Reportf(l.Pos(), "Grant writes package-level state %s%s; Grant must be pure", v.Name(), where)
				}
				if pending == nil || len(s.Lhs) != len(s.Rhs) {
					continue
				}
				if isObjectExpr(pass, s.Rhs[i], pending) && retainingTarget(pass, l) {
					pass.Reportf(l.Pos(), "Grant retains the pending slice beyond the call; copy it instead")
				}
				if idx, ok := l.(*ast.IndexExpr); ok && isObjectExpr(pass, idx.X, pending) {
					pass.Reportf(l.Pos(), "Grant mutates the pending slice; copy it instead")
				}
			}
		case *ast.IncDecStmt:
			if v := packageLevelTarget(pass, s.X); v != nil {
				pass.Reportf(s.X.Pos(), "Grant writes package-level state %s%s; Grant must be pure", v.Name(), where)
			}
		case *ast.CallExpr:
			checkCallPurity(pass, s, pending, where)
		}
		return true
	})
}

// checkCallPurity flags nondeterminism sources and pending-mutating
// calls.
func checkCallPurity(pass *Pass, call *ast.CallExpr, pending types.Object, where string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if ok {
		if base, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := pass.Info.ObjectOf(base).(*types.PkgName); ok {
				if _, isFunc := pass.Info.ObjectOf(sel.Sel).(*types.Func); isFunc {
					switch path := pn.Imported().Path(); path {
					case "time":
						pass.Reportf(call.Pos(), "Grant calls time.%s%s; Grant must be deterministic", sel.Sel.Name, where)
					case "math/rand", "math/rand/v2":
						pass.Reportf(call.Pos(), "Grant calls package-level %s.%s%s; use a policy-owned seeded *rand.Rand", pn.Name(), sel.Sel.Name, where)
					case "sort", "slices":
						for _, arg := range call.Args {
							if pending != nil && isObjectExpr(pass, arg, pending) {
								pass.Reportf(call.Pos(), "Grant passes the pending slice to %s.%s, which reorders the caller's copy; sort a copy instead", pn.Name(), sel.Sel.Name)
							}
						}
					}
				}
			}
		}
	}
	if pending != nil && isBuiltin(pass, call.Fun, "append") && len(call.Args) > 0 && isObjectExpr(pass, call.Args[0], pending) {
		pass.Reportf(call.Pos(), "Grant appends to the pending slice, which may write into the caller's backing array; append to a copy instead")
	}
}

// packageLevelTarget resolves an assignment target to a package-level
// variable, or nil. Both `pkgVar = x` and `somepkg.Var = x` count.
func packageLevelTarget(pass *Pass, l ast.Expr) *types.Var {
	var obj types.Object
	switch lhs := l.(type) {
	case *ast.Ident:
		obj = pass.Info.ObjectOf(lhs)
	case *ast.SelectorExpr:
		base := baseIdent(lhs.X)
		if base == nil {
			return nil
		}
		bobj := pass.Info.ObjectOf(base)
		if _, ok := bobj.(*types.PkgName); ok {
			obj = pass.Info.ObjectOf(lhs.Sel)
		} else {
			obj = bobj // writing a field of a package-level struct
		}
	default:
		return nil
	}
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil {
		return nil
	}
	if v.Parent() == v.Pkg().Scope() {
		return v
	}
	return nil
}

// retainingTarget reports whether an assignment target outlives the
// call: a field of anything (the receiver included) or a package
// variable.
func retainingTarget(pass *Pass, l ast.Expr) bool {
	switch lhs := l.(type) {
	case *ast.SelectorExpr, *ast.StarExpr:
		return true
	case *ast.Ident:
		return packageLevelTarget(pass, lhs) != nil
	}
	return false
}

// isObjectExpr reports whether e is (possibly a slice expression of)
// the given object.
func isObjectExpr(pass *Pass, e ast.Expr, obj types.Object) bool {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return pass.Info.ObjectOf(x) == obj
		case *ast.SliceExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return false
		}
	}
}

func isInt(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Int
}

func isNamedType(t types.Type, pkgPath, name string) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

func isSliceOf(t types.Type, pkgPath, name string) bool {
	s, ok := t.Underlying().(*types.Slice)
	return ok && isNamedType(s.Elem(), pkgPath, name)
}
