// Package unsafeaudit implements the redhip-lint unsafeaudit
// analyzer: containment for the escape hatches the type system cannot
// see through. The policy has two tiers:
//
//   - Outside the analysis.UnsafePackages allowlist (tracestore),
//     importing `unsafe` or `reflect`, or calling an mmap-family
//     syscall (Mmap, Munmap, Madvise, ...), is a finding. There is no
//     annotation that waives this — widening the blast radius means
//     editing the allowlist in analysis.go, which is a reviewed,
//     documented change.
//   - Inside the allowlist, every pointer-reinterpretation site —
//     unsafe.Pointer conversions, unsafe.Slice/SliceData,
//     unsafe.String/StringData, unsafe.Add — must carry a
//     //redhip:unsafe-ok <reason> justification on the line or the
//     enclosing function's doc comment. unsafe.Sizeof/Alignof/Offsetof
//     are compile-time constants with no aliasing power and are
//     exempt.
package unsafeaudit

import (
	"go/ast"
	"go/types"
	"strconv"

	"redhip/internal/analysis"
)

// Analyzer is the unsafeaudit pass.
var Analyzer = &analysis.Analyzer{
	Name: "unsafeaudit",
	Doc: "restrict unsafe/reflect/mmap to the analysis.UnsafePackages allowlist and " +
		"require //redhip:unsafe-ok on every pointer-reinterpretation site",
	Run: run,
}

// pointerOps are the unsafe package members that create or move
// through raw pointers. Sizeof/Alignof/Offsetof are absent on
// purpose: they are untyped constants, not aliasing operations.
var pointerOps = map[string]bool{
	"Pointer":    true,
	"Slice":      true,
	"SliceData":  true,
	"String":     true,
	"StringData": true,
	"Add":        true,
}

// mmapFuncs are the mmap-family syscalls whose misuse outside the
// allowlist can alias arbitrary memory into the process.
var mmapFuncs = map[string]bool{
	"Mmap":     true,
	"Munmap":   true,
	"Madvise":  true,
	"Mlock":    true,
	"Munlock":  true,
	"Mprotect": true,
	"Msync":    true,
}

func run(pass *analysis.Pass) error {
	allowed := analysis.IsUnsafePackage(pass.Pkg.Path())
	for _, file := range pass.Files {
		if !allowed {
			for _, imp := range file.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				if path == "unsafe" || path == "reflect" {
					pass.Reportf(imp.Pos(),
						"import %q outside the analysis.UnsafePackages allowlist (tracestore); widen the allowlist only via a reviewed analysis.go change",
						path)
				}
			}
		}
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if fd.Body != nil {
					checkNode(pass, allowed, fd, fd.Body)
				}
				continue
			}
			checkNode(pass, allowed, nil, d)
		}
	}
	return nil
}

// checkNode walks one declaration (or body) flagging unsafe pointer
// ops and mmap syscalls; decl is the enclosing function, nil at
// package level.
func checkNode(pass *analysis.Pass, allowed bool, decl *ast.FuncDecl, root ast.Node) {
	ast.Inspect(root, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pkg, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
		if !ok {
			return true
		}
		switch pkg.Imported().Path() {
		case "unsafe":
			// Outside the allowlist the import finding already covers
			// the file; per-site findings would only repeat it.
			if allowed && pointerOps[sel.Sel.Name] && !pass.Ann.UnsafeOK(sel.Pos(), decl) {
				pass.Reportf(sel.Pos(),
					"unsafe.%s reinterprets memory; justify the site with //redhip:unsafe-ok <reason>",
					sel.Sel.Name)
			}
		case "syscall", "golang.org/x/sys/unix":
			if !allowed && mmapFuncs[sel.Sel.Name] {
				pass.Reportf(sel.Pos(),
					"%s.%s outside the analysis.UnsafePackages allowlist (tracestore)",
					pkg.Name(), sel.Sel.Name)
			}
		}
		return true
	})
}
