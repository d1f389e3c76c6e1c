// Package guarded implements the redhip-lint guarded analyzer: lock
// and atomic discipline for the concurrent surfaces (the serve job
// store/queue, the lru cache under the trace and snapshot stores, and
// the multi-scheme driver's worker pool). Three sub-checks:
//
//  1. guardedby — a struct field annotated //redhip:guardedby <mu>
//     may only be accessed from functions that lock <mu>
//     (mu.Lock()/mu.RLock() anywhere in the body), from helpers whose
//     name ends in "Locked" (the repo's called-with-lock-held
//     convention), or at sites covered by //redhip:phase-exclusive.
//  2. atomic discipline — a field whose address feeds a sync/atomic
//     call anywhere in the package must never be plain-read or
//     plain-written elsewhere, except at //redhip:phase-exclusive
//     sites (documented single-threaded phases: construction, the
//     zeroing before goroutines start, post-Wait reductions).
//  3. goroutine capture — a struct field accessed inside a
//     `go func(){...}` closure must be one of: an inherently
//     concurrency-safe type (sync.*, sync/atomic.*, channels), an
//     atomic call site, guarded under sub-check 1, protected by a
//     lock taken inside the closure, or //redhip:phase-exclusive.
//
// The check is a lexical/typed heuristic, not an alias analysis: it
// resolves field identity through go/types but trusts the lock-call
// and Locked-suffix conventions. The //redhip:phase-exclusive escape
// hatch requires a written reason, which the annotations analyzer
// enforces — the waiver is the audit trail.
package guarded

import (
	"go/ast"
	"go/types"
	"strings"

	"redhip/internal/analysis"
)

// Analyzer is the guarded pass.
var Analyzer = &analysis.Analyzer{
	Name: "guarded",
	Doc: "enforce //redhip:guardedby mutex discipline, forbid plain access to " +
		"atomically-accessed fields, and audit struct fields captured by goroutine closures",
	Run: run,
}

// facts is the per-package collection phase output. Fields are keyed
// by their declared var: a selection inside a method of a generic type,
// or on an instantiation of one, resolves to an instantiated field var
// whose Origin is the declaration (see fieldOf).
type facts struct {
	// guardedBy maps annotated struct fields to their mutex name.
	guardedBy map[*types.Var]string
	// atomicFields are fields whose address reaches a sync/atomic call.
	atomicFields map[*types.Var]bool
	// atomicSites are the selector nodes appearing inside sync/atomic
	// call arguments — those accesses are the sanctioned ones.
	atomicSites map[*ast.SelectorExpr]bool
}

func run(pass *analysis.Pass) error {
	f := collect(pass)
	if len(f.guardedBy) == 0 && len(f.atomicFields) == 0 && !hasGoStmt(pass) {
		return nil
	}
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			checkFunc(pass, f, decl)
		}
	}
	return nil
}

func collect(pass *analysis.Pass) *facts {
	f := &facts{
		guardedBy:    make(map[*types.Var]string),
		atomicFields: make(map[*types.Var]bool),
		atomicSites:  make(map[*ast.SelectorExpr]bool),
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Field:
				// Struct fields annotated //redhip:guardedby <mu>.
				for _, name := range n.Names {
					mu, ok := pass.Ann.GuardedByAt(name.Pos())
					if !ok {
						continue
					}
					if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok && v.IsField() {
						f.guardedBy[v] = mu
					}
				}
			case *ast.CallExpr:
				if !isAtomicCall(pass, n) {
					return true
				}
				for _, arg := range n.Args {
					ast.Inspect(arg, func(an ast.Node) bool {
						sel, ok := an.(*ast.SelectorExpr)
						if !ok {
							return true
						}
						s, ok := pass.TypesInfo.Selections[sel]
						if !ok || s.Kind() != types.FieldVal {
							return true
						}
						if v := fieldOf(s); v != nil {
							f.atomicFields[v] = true
							f.atomicSites[sel] = true
						}
						return true
					})
				}
			}
			return true
		})
	}
	return f
}

// fieldOf returns the declared field var a field selection resolves
// to, or nil.
func fieldOf(s *types.Selection) *types.Var {
	v, ok := s.Obj().(*types.Var)
	if !ok {
		return nil
	}
	return v.Origin()
}

// isAtomicCall reports whether call invokes a sync/atomic function.
func isAtomicCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pkg, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	return ok && pkg.Imported().Path() == "sync/atomic"
}

func hasGoStmt(pass *analysis.Pass) bool {
	for _, file := range pass.Files {
		found := false
		ast.Inspect(file, func(n ast.Node) bool {
			if _, ok := n.(*ast.GoStmt); ok {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// lockedMutexes collects the names of mutex fields body locks:
// x.mu.Lock(), x.mu.RLock(), or a bare mu.Lock().
func lockedMutexes(body ast.Node) map[string]bool {
	names := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		switch x := sel.X.(type) {
		case *ast.SelectorExpr:
			names[x.Sel.Name] = true
		case *ast.Ident:
			names[x.Name] = true
		}
		return true
	})
	return names
}

// concurrencySafeType reports whether a field of type t is safe to
// touch from multiple goroutines by its own API contract: sync.Mutex,
// sync.WaitGroup, sync/atomic value types (or pointers to them), and
// channels.
func concurrencySafeType(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		if pkg := named.Obj().Pkg(); pkg != nil {
			if pkg.Path() == "sync" || pkg.Path() == "sync/atomic" {
				return true
			}
		}
	}
	_, isChan := t.Underlying().(*types.Chan)
	return isChan
}

func checkFunc(pass *analysis.Pass, f *facts, decl *ast.FuncDecl) {
	locked := lockedMutexes(decl.Body)
	isLockedHelper := strings.HasSuffix(decl.Name.Name, "Locked")

	ast.Inspect(decl.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			if g, ok := n.(*ast.GoStmt); ok {
				if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
					checkGoClosure(pass, f, decl, lit)
					// The closure body is still walked below for the
					// guardedby/atomic rules; the goroutine rule only
					// adds the capture audit on top.
				}
			}
			return true
		}
		s, ok := pass.TypesInfo.Selections[sel]
		if !ok || s.Kind() != types.FieldVal {
			return true
		}
		v := fieldOf(s)
		if v == nil {
			return true
		}
		if mu, guarded := f.guardedBy[v]; guarded {
			if !isLockedHelper && !locked[mu] && !pass.Ann.PhaseExclusive(sel.Pos(), decl) {
				pass.Reportf(sel.Pos(),
					"field %s is //redhip:guardedby %s, but %s does not lock %s, is not a *Locked helper, and the access is not //redhip:phase-exclusive",
					v.Name(), mu, decl.Name.Name, mu)
			}
			return true
		}
		if f.atomicFields[v] && !f.atomicSites[sel] && !pass.Ann.PhaseExclusive(sel.Pos(), decl) {
			pass.Reportf(sel.Pos(),
				"field %s is accessed via sync/atomic elsewhere; this plain access races with it — use atomic ops or annotate //redhip:phase-exclusive <reason>",
				v.Name())
		}
		return true
	})
}

// checkGoClosure audits struct fields captured by a go-statement
// closure: anything mutable and not otherwise disciplined needs a
// //redhip:phase-exclusive justification.
func checkGoClosure(pass *analysis.Pass, f *facts, decl *ast.FuncDecl, lit *ast.FuncLit) {
	closureLocks := lockedMutexes(lit.Body)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s, ok := pass.TypesInfo.Selections[sel]
		if !ok || s.Kind() != types.FieldVal {
			return true
		}
		v := fieldOf(s)
		if v == nil {
			return true
		}
		if _, guarded := f.guardedBy[v]; guarded {
			return true // sub-check 1 owns guarded fields
		}
		if f.atomicSites[sel] || f.atomicFields[v] {
			return true // sub-check 2 owns atomic fields
		}
		if concurrencySafeType(v.Type()) || len(closureLocks) > 0 {
			return true
		}
		if pass.Ann.PhaseExclusive(sel.Pos(), decl) {
			return true
		}
		pass.Reportf(sel.Pos(),
			"field %s is accessed from a goroutine closure in %s without lock, atomic, or //redhip:phase-exclusive discipline",
			v.Name(), decl.Name.Name)
		return true
	})
}
