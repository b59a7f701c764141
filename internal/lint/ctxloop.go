package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ctxloopPackages are the packages whose blocking paths must observe
// context cancellation: the simulator's cycle loop, the sweep
// engine's worker discipline, and the serving layer.
var ctxloopPackages = map[string]bool{
	"systolic/internal/machine": true,
	"systolic/internal/sweep":   true,
	"systolic/internal/server":  true,
}

// execOptionsPackages are where an ExecOptions literal missing its
// Context field is a cancellation bug: sweep and server run
// simulations on behalf of a caller that handed them a ctx, so a run
// issued without one cannot be stopped by that caller.
var execOptionsPackages = map[string]bool{
	"systolic/internal/sweep":  true,
	"systolic/internal/server": true,
}

// execOptionsTypes are the option structs whose Context field threads
// cancellation into a run.
var execOptionsTypes = map[string]bool{
	"systolic/internal/core":    true,
	"systolic/internal/machine": true,
}

// ctxloop enforces the cancellation contract ("a dropped client
// cancels its simulation between cycles") in two ways. First,
// potentially unbounded loops — `for {}` or `for cond {}` with no
// post statement — that block on channels, selects, or
// Acquire/Wait-style calls must observe a context. Second, in the
// sweep and server packages, a core.ExecOptions or
// machine.ExecOptions literal must set its Context field; omitting
// it silently detaches the run from the caller's cancellation.
var ctxloop = &Analyzer{
	Name: "ctxloop",
	Doc: "require blocking loops and issued runs to observe context " +
		"cancellation in machine, sweep, and server",
	Run: runCtxloop,
}

func runCtxloop(pass *Pass) {
	path := pass.Pkg.Path()
	loops := ctxloopPackages[path]
	lits := execOptionsPackages[path]
	if !loops && !lits {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.ForStmt:
				if !loops || s.Init != nil || s.Post != nil {
					return true
				}
				if hasBlockingOp(pass, s.Body) && !observesContext(pass, s.Body) {
					pass.Reportf(s.Pos(), "potentially unbounded blocking loop does not observe context cancellation")
				}
			case *ast.CompositeLit:
				if !lits {
					return true
				}
				checkExecOptionsLit(pass, s)
			}
			return true
		})
	}
}

// checkExecOptionsLit flags ExecOptions literals without a Context
// field.
func checkExecOptionsLit(pass *Pass, lit *ast.CompositeLit) {
	t := pass.Info.TypeOf(lit)
	if t == nil {
		return
	}
	named, ok := t.(*types.Named)
	if !ok {
		return
	}
	obj := named.Obj()
	if obj.Name() != "ExecOptions" || obj.Pkg() == nil || !execOptionsTypes[obj.Pkg().Path()] {
		return
	}
	for _, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Context" {
				return
			}
		}
	}
	pass.Reportf(lit.Pos(), "%s.ExecOptions literal does not set Context; the caller's cancellation cannot reach the run", obj.Pkg().Name())
}

// hasBlockingOp reports whether a loop body can block: channel sends
// or receives, a select with no default, or a call that waits
// (Acquire, Wait, Sleep).
func hasBlockingOp(pass *Pass, body *ast.BlockStmt) bool {
	blocking := false
	var scan func(n ast.Node) bool
	scan = func(n ast.Node) bool {
		if blocking {
			return false
		}
		switch s := n.(type) {
		case *ast.SendStmt:
			blocking = true
		case *ast.UnaryExpr:
			if s.Op == token.ARROW {
				blocking = true
			}
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				blocking = true
				return false
			}
			// A select with a default polls rather than blocks: its
			// comm operations cannot stick, but the clause bodies
			// still can, so scan those alone.
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					for _, stmt := range cc.Body {
						ast.Inspect(stmt, scan)
					}
				}
			}
			return false
		case *ast.CallExpr:
			if sel, ok := s.Fun.(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "Acquire", "Wait", "Sleep":
					blocking = true
				}
			}
		}
		return !blocking
	}
	ast.Inspect(body, scan)
	return blocking
}

// observesContext reports whether the body references a
// context.Context value (which covers ctx.Done() and ctx.Err()
// selects) or receives from a channel whose name signals shutdown
// (cancel, done, quit, stop) — the machine executor's e.cancel
// pattern, derived from its run context.
func observesContext(pass *Pass, body *ast.BlockStmt) bool {
	seen := false
	ast.Inspect(body, func(n ast.Node) bool {
		if seen {
			return false
		}
		switch s := n.(type) {
		case *ast.Ident:
			if t := pass.Info.TypeOf(s); t != nil && isNamedType(t, "context", "Context") {
				seen = true
			}
		case *ast.UnaryExpr:
			if s.Op == token.ARROW && shutdownChannelName(s.X) {
				seen = true
			}
		}
		return !seen
	})
	return seen
}

func shutdownChannelName(e ast.Expr) bool {
	name := ""
	switch x := e.(type) {
	case *ast.Ident:
		name = x.Name
	case *ast.SelectorExpr:
		name = x.Sel.Name
	case *ast.CallExpr:
		if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
			name = sel.Sel.Name
		}
	}
	name = strings.ToLower(name)
	for _, w := range [...]string{"cancel", "done", "quit", "stop"} {
		if strings.Contains(name, w) {
			return true
		}
	}
	return false
}
