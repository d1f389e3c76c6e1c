// Package statecov implements the redhip-lint statecov analyzer:
// snapshot state-coverage for the warm-state serialisation layer.
//
// The simstate codec promises that restoring a snapshot reproduces a
// warm engine bit-identically. That promise breaks the moment someone
// adds a mutable field to a snapshot-reachable struct (cache.Cache,
// core.Table, the predictors, the prefetcher, the engine itself) and
// forgets to thread it through the codec — and it breaks silently,
// only on workloads that exercise the forgotten field. No test can
// enumerate future fields, so the analyzer closes the loop
// structurally: for every type registered in analysis.SnapshotTypes,
// every struct field must either be touched by one of the type's
// registered codec methods (capture or restore — any receiver-rooted
// access counts as serialisation involvement) or carry an explicit
// //redhip:transient <reason> annotation stating why the field is
// deliberately outside the snapshot (config-derived, measurement
// counters zeroed at the boundary, per-run scratch).
//
// A registered codec method that does not exist, or a registered type
// the package no longer declares, is itself a finding, so the registry
// cannot silently go stale.
package statecov

import (
	"go/ast"
	"go/types"
	"strings"

	"redhip/internal/analysis"
)

// Analyzer is the statecov pass.
var Analyzer = &analysis.Analyzer{
	Name: "statecov",
	Doc: "every field of a snapshot-reachable struct (analysis.SnapshotTypes) must be " +
		"serialised by its codec methods or annotated //redhip:transient <reason>",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Name() == "main" {
		// Registry keys match import-path tails, and a command
		// directory may share a tail with a library package; main
		// packages never host snapshot types.
		return nil
	}
	codecs, ok := analysis.SnapshotTypes[analysis.PathTail(pass.Pkg.Path())]
	if !ok {
		return nil
	}
	for _, codec := range codecs {
		checkType(pass, codec)
	}
	return nil
}

func checkType(pass *analysis.Pass, codec analysis.SnapshotCodec) {
	spec, structAST := findStruct(pass, codec.Type)
	if spec == nil {
		// The registry names a type this package does not declare: the
		// registry went stale (a rename, a move). Report at the package
		// clause so the finding has a stable anchor.
		pass.Reportf(pass.Files[0].Name.Pos(),
			"analysis.SnapshotTypes registers type %s, but package %s does not declare it",
			codec.Type, pass.Pkg.Name())
		return
	}
	obj := pass.Pkg.Scope().Lookup(codec.Type)
	if obj == nil {
		return
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		return
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok || structAST == nil {
		pass.Reportf(spec.Name.Pos(), "snapshot type %s is not a struct", codec.Type)
		return
	}

	covered := make(map[*types.Var]bool)
	found := make(map[string]bool)
	structFields := make(map[*types.Var]bool, st.NumFields())
	for i := 0; i < st.NumFields(); i++ {
		structFields[st.Field(i)] = true
	}
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil || !isMethodOf(pass, decl, codec.Type) {
				continue
			}
			if !contains(codec.Methods, decl.Name.Name) {
				continue
			}
			found[decl.Name.Name] = true
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				s, ok := pass.TypesInfo.Selections[sel]
				if !ok || s.Kind() != types.FieldVal {
					return true
				}
				if v, ok := s.Obj().(*types.Var); ok && structFields[v] {
					covered[v] = true
				}
				return true
			})
		}
	}
	for _, m := range codec.Methods {
		if !found[m] {
			pass.Reportf(spec.Name.Pos(), "snapshot type %s has no codec method %s (registered in analysis.SnapshotTypes)",
				codec.Type, m)
		}
	}

	// Pair the AST field list with the *types.Var list: each ast.Field
	// contributes one var per name, or exactly one for an embedded
	// field. The pairing gives every field a position to anchor the
	// finding (and the //redhip:transient lookup) on.
	idx := 0
	for _, field := range structAST.Fields.List {
		n := len(field.Names)
		if n == 0 {
			n = 1 // embedded
		}
		for j := 0; j < n; j++ {
			if idx >= st.NumFields() {
				return // type error in the package; nothing sane to check
			}
			v := st.Field(idx)
			idx++
			pos := field.Pos()
			if j < len(field.Names) {
				pos = field.Names[j].Pos()
			}
			if covered[v] || pass.Ann.TransientAt(pos) {
				continue
			}
			pass.Reportf(pos,
				"field %s of snapshot type %s is not serialised by %s and not annotated //redhip:transient — warm restore would silently diverge from a cold run",
				v.Name(), codec.Type, strings.Join(codec.Methods, "/"))
		}
	}
}

// findStruct locates the TypeSpec and StructType AST for name.
func findStruct(pass *analysis.Pass, name string) (*ast.TypeSpec, *ast.StructType) {
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, s := range gd.Specs {
				ts, ok := s.(*ast.TypeSpec)
				if !ok || ts.Name.Name != name {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return ts, nil
				}
				return ts, st
			}
		}
	}
	return nil, nil
}

// isMethodOf reports whether decl is a method whose receiver base type
// is named typeName.
func isMethodOf(pass *analysis.Pass, decl *ast.FuncDecl, typeName string) bool {
	if decl.Recv == nil || len(decl.Recv.List) != 1 {
		return false
	}
	t := decl.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	id, ok := t.(*ast.Ident)
	return ok && id.Name == typeName
}

func contains(names []string, name string) bool {
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}
