// Package analysis is the project's static-analysis framework: a
// deliberately small, dependency-free mirror of the golang.org/x/tools
// go/analysis API surface the redhip-lint analyzers are written
// against. The build environment vendors no third-party modules, so
// the framework is implemented on the standard library alone
// (go/parser + go/types); if x/tools ever becomes available the
// analyzers port over nearly verbatim.
//
// The framework also owns the `//redhip:` annotation grammar shared by
// every analyzer (see DESIGN.md §15 for the full table):
//
//	//redhip:hotpath
//	    In a function's doc comment: marks the function as a hot-path
//	    function whose body the hotpath analyzer audits for heap
//	    allocations, interface dispatch and defer.
//
//	//redhip:allow <check>[ -- reason]
//	    Suppresses diagnostics of the named check. As a trailing
//	    comment it suppresses its own line; as an own-line comment it
//	    suppresses the next code line; in a function's doc comment it
//	    suppresses the whole function. Check names in use: wallclock,
//	    globalrand, maporder, alloc, defer, go, iface, nonexhaustive,
//	    noassert, panicmsg.
//
//	//redhip:transient <reason>
//	    On a snapshot-reachable struct field: the field is
//	    deliberately NOT serialised by the simstate codec (it is
//	    config-derived, measurement-scoped, or per-run scratch). The
//	    statecov analyzer requires every uncovered field to carry one.
//
//	//redhip:guardedby <mutexField>
//	    On a struct field: accesses outside functions that lock the
//	    named mutex (or are *Locked-suffixed helpers, or carry
//	    //redhip:phase-exclusive) are guarded-analyzer findings.
//
//	//redhip:phase-exclusive <reason>
//	    On a line or in a function's doc comment: the access happens
//	    in a documented single-threaded phase (construction, a barrier
//	    round's owner, post-Wait reduction), so lock/atomic discipline
//	    is deliberately not required there.
//
//	//redhip:unsafe-ok <reason>
//	    On a line or in a function's doc comment inside an
//	    UnsafePackages member: justifies one unsafe.Slice /
//	    unsafe.Pointer / pointer-arithmetic site.
//
// A nested "//" inside a directive starts trailing commentary and is
// ignored by the parser. Unknown verbs and missing mandatory arguments
// are collected as annotation errors and reported by the annotations
// analyzer — a typo like //redhip:hotpth fails lint instead of
// silently disabling a contract.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one analysis pass: a named checker over a single
// type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and CLI flags.
	Name string
	// Doc is the one-paragraph description shown by redhip-lint -help.
	Doc string
	// Run applies the analyzer to one package, reporting findings
	// through pass.Report.
	Run func(*Pass) error
}

// Pass carries one package's parsed and type-checked state through an
// Analyzer's Run function.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's syntax trees (non-test files only).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo maps syntax to type information.
	TypesInfo *types.Info
	// Ann is the parsed //redhip: annotation state of the package.
	Ann *Annotations

	report func(Diagnostic)
}

// NewPass builds a Pass for one package. Drivers (redhip-lint and the
// analysistest harness) construct passes; analyzers only consume them.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, report func(Diagnostic)) *Pass {
	return &Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
		Ann:       ParseAnnotations(fset, files),
		report:    report,
	}
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Report emits a diagnostic.
func (p *Pass) Report(d Diagnostic) {
	d.Analyzer = p.Analyzer.Name
	p.report(d)
}

// Reportf formats and emits a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// --- //redhip: annotations -----------------------------------------------------

// annPrefix introduces every project annotation comment.
const annPrefix = "//redhip:"

// KnownChecks are the check names //redhip:allow may suppress. An
// allow naming anything else is an annotation error: a misspelled
// check silently suppresses nothing, which is worse than failing.
var KnownChecks = map[string]bool{
	"wallclock":     true,
	"globalrand":    true,
	"maporder":      true,
	"alloc":         true,
	"defer":         true,
	"go":            true,
	"iface":         true,
	"nonexhaustive": true,
	"noassert":      true,
	"panicmsg":      true,
}

// AnnError is one malformed //redhip: directive, reported by the
// annotations analyzer.
type AnnError struct {
	Pos     token.Pos
	Message string
}

// Annotations holds the parsed //redhip: directives of one package.
type Annotations struct {
	fset *token.FileSet
	// allow maps file -> line -> allowed check names. Lines are the
	// directive's effective target: a trailing annotation covers its
	// own line, an own-line annotation covers the next code line (so a
	// trailing annotation never spills onto the following statement or
	// struct field).
	allow map[string]map[int][]string
	// hotpathLines marks lines carrying a //redhip:hotpath directive;
	// a FuncDecl whose doc comment spans such a line is a hot path.
	hotpathLines map[string]map[int]bool
	// transient, phaseExclusive and unsafeOK mark lines carrying the
	// corresponding directive, with the same L / L+1 coverage as allow.
	transient      map[string]map[int]bool
	phaseExclusive map[string]map[int]bool
	unsafeOK       map[string]map[int]bool
	// guardedby maps file -> line -> the mutex field name the
	// annotated struct field is guarded by.
	guardedby map[string]map[int]string

	errs []AnnError
}

// markLine records a boolean line directive.
func markLine(m map[string]map[int]bool, file string, line int) {
	lm := m[file]
	if lm == nil {
		lm = make(map[int]bool)
		m[file] = lm
	}
	lm[line] = true
}

// lineCovered reports whether a boolean line directive targets pos's
// line (targets are resolved at parse time by targetLine).
func lineCovered(m map[string]map[int]bool, p token.Position) bool {
	lm := m[p.Filename]
	return lm != nil && lm[p.Line]
}

// codeLines returns the set of lines in f containing any non-comment
// token, so the parser can tell a trailing annotation (shares its line
// with code) from an own-line one.
func codeLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := make(map[int]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil:
			return true
		case *ast.Comment, *ast.CommentGroup:
			return false
		}
		lines[fset.Position(n.Pos()).Line] = true
		if end := n.End(); end.IsValid() && end > n.Pos() {
			lines[fset.Position(end-1).Line] = true
		}
		return true
	})
	return lines
}

// targetLine resolves which line a directive at line governs: its own
// line for the trailing form, or the next code line (looking through
// the rest of a stacked comment block) for the own-line form. Returns
// -1 when nothing follows.
func targetLine(code map[int]bool, line int) int {
	if code[line] {
		return line
	}
	for l := line + 1; l <= line+10; l++ {
		if code[l] {
			return l
		}
	}
	return -1
}

// ParseAnnotations scans every comment of files for //redhip:
// directives, collecting malformed ones (unknown verbs, missing
// mandatory arguments) as annotation errors.
func ParseAnnotations(fset *token.FileSet, files []*ast.File) *Annotations {
	a := &Annotations{
		fset:           fset,
		allow:          make(map[string]map[int][]string),
		hotpathLines:   make(map[string]map[int]bool),
		transient:      make(map[string]map[int]bool),
		phaseExclusive: make(map[string]map[int]bool),
		unsafeOK:       make(map[string]map[int]bool),
		guardedby:      make(map[string]map[int]string),
	}
	for _, f := range files {
		code := codeLines(fset, f)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if !strings.HasPrefix(text, annPrefix) {
					continue
				}
				a.parseDirective(c, strings.TrimPrefix(text, annPrefix), code)
			}
		}
	}
	return a
}

// parseDirective handles one //redhip:<directive> comment.
func (a *Annotations) parseDirective(c *ast.Comment, directive string, code map[int]bool) {
	pos := a.fset.Position(c.Pos())
	errf := func(format string, args ...any) {
		a.errs = append(a.errs, AnnError{Pos: c.Pos(), Message: fmt.Sprintf(format, args...)})
	}
	// A nested "//" starts trailing commentary that is not part of the
	// directive (the analysistest fixtures hang their `// want`
	// expectations there, since a directive-anchored finding and its
	// expectation must share one comment).
	if i := strings.Index(directive, "//"); i >= 0 {
		directive = directive[:i]
	}
	// The optional "-- reason" clause is free text; args precede it.
	main, tail, hasTail := strings.Cut(directive, "--")
	fields := strings.Fields(main)
	if len(fields) == 0 {
		errf("empty //redhip: directive")
		return
	}
	verb, args := fields[0], fields[1:]
	// hasReason: anything after the verb counts as justification,
	// whether written as plain words or behind the "--" separator.
	hasReason := len(args) > 0 || (hasTail && strings.TrimSpace(tail) != "")
	// target is the line this directive governs: its own line when
	// trailing code, the next code line when the comment stands alone.
	target := targetLine(code, pos.Line)
	switch verb {
	case "hotpath":
		if len(args) > 0 {
			errf("//redhip:hotpath takes no arguments (got %q)", strings.Join(args, " "))
			return
		}
		markLine(a.hotpathLines, pos.Filename, pos.Line)
	case "allow":
		if len(args) == 0 {
			errf("//redhip:allow needs at least one check name")
			return
		}
		m := a.allow[pos.Filename]
		if m == nil {
			m = make(map[int][]string)
			a.allow[pos.Filename] = m
		}
		for _, check := range args {
			for _, name := range strings.Split(check, ",") {
				if name == "" {
					continue
				}
				if !KnownChecks[name] {
					errf("//redhip:allow names unknown check %q", name)
					continue
				}
				if target >= 0 {
					m[target] = append(m[target], name)
				}
			}
		}
	case "transient":
		if !hasReason {
			errf("//redhip:transient needs a reason explaining why the field is not snapshotted")
			return
		}
		if target >= 0 {
			markLine(a.transient, pos.Filename, target)
		}
	case "guardedby":
		if len(args) != 1 {
			errf("//redhip:guardedby needs exactly one mutex field name")
			return
		}
		m := a.guardedby[pos.Filename]
		if m == nil {
			m = make(map[int]string)
			a.guardedby[pos.Filename] = m
		}
		if target >= 0 {
			m[target] = args[0]
		}
	case "phase-exclusive":
		if !hasReason {
			errf("//redhip:phase-exclusive needs a reason documenting the single-threaded phase")
			return
		}
		if target >= 0 {
			markLine(a.phaseExclusive, pos.Filename, target)
		}
	case "unsafe-ok":
		if !hasReason {
			errf("//redhip:unsafe-ok needs a reason justifying the unsafe site")
			return
		}
		if target >= 0 {
			markLine(a.unsafeOK, pos.Filename, target)
		}
	default:
		errf("unknown //redhip: annotation verb %q", verb)
	}
}

// Errors returns the malformed directives found while parsing, in
// source order. The annotations analyzer reports them.
func (a *Annotations) Errors() []AnnError { return a.errs }

// AllowsAt reports whether a //redhip:allow annotation for check covers
// pos: a trailing comment on the same line, or an own-line comment
// whose resolved target is this line.
func (a *Annotations) AllowsAt(pos token.Pos, check string) bool {
	p := a.fset.Position(pos)
	lines := a.allow[p.Filename]
	if lines == nil {
		return false
	}
	for _, name := range lines[p.Line] {
		if name == check {
			return true
		}
	}
	return false
}

// FuncAllows reports whether decl's doc comment carries
// //redhip:allow check, suppressing the check for the whole function.
func (a *Annotations) FuncAllows(decl *ast.FuncDecl, check string) bool {
	if decl == nil || decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		text := strings.TrimPrefix(c.Text, annPrefix)
		if text == c.Text {
			continue
		}
		if i := strings.Index(text, "--"); i >= 0 {
			text = text[:i]
		}
		fields := strings.Fields(text)
		if len(fields) >= 2 && fields[0] == "allow" {
			for _, f := range fields[1:] {
				for _, name := range strings.Split(f, ",") {
					if name == check {
						return true
					}
				}
			}
		}
	}
	return false
}

// funcHasVerb reports whether decl's doc comment carries the given
// //redhip:<verb> directive.
func funcHasVerb(decl *ast.FuncDecl, verb string) bool {
	if decl == nil || decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		text := strings.TrimPrefix(c.Text, annPrefix)
		if text == c.Text {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) > 0 && fields[0] == verb {
			return true
		}
	}
	return false
}

// IsHotpath reports whether decl is annotated //redhip:hotpath in its
// doc comment.
func (a *Annotations) IsHotpath(decl *ast.FuncDecl) bool {
	return funcHasVerb(decl, "hotpath")
}

// Allowed reports whether check is suppressed at pos, either by a line
// annotation or by a function-level annotation on the enclosing decl.
func (a *Annotations) Allowed(pos token.Pos, decl *ast.FuncDecl, check string) bool {
	return a.AllowsAt(pos, check) || a.FuncAllows(decl, check)
}

// TransientAt reports whether a //redhip:transient annotation covers
// pos (trailing comment or the line above — the two places a struct
// field annotation can live).
func (a *Annotations) TransientAt(pos token.Pos) bool {
	return lineCovered(a.transient, a.fset.Position(pos))
}

// GuardedByAt returns the mutex field name a //redhip:guardedby
// annotation targeting pos's line names, if any (trailing comment or
// own-line comment above the field).
func (a *Annotations) GuardedByAt(pos token.Pos) (string, bool) {
	p := a.fset.Position(pos)
	lines := a.guardedby[p.Filename]
	if lines == nil {
		return "", false
	}
	mu, ok := lines[p.Line]
	return mu, ok
}

// PhaseExclusive reports whether pos sits in a documented
// single-threaded phase: a //redhip:phase-exclusive line annotation at
// pos, or one in the enclosing function's doc comment.
func (a *Annotations) PhaseExclusive(pos token.Pos, decl *ast.FuncDecl) bool {
	return lineCovered(a.phaseExclusive, a.fset.Position(pos)) || funcHasVerb(decl, "phase-exclusive")
}

// UnsafeOK reports whether an unsafe site at pos carries a
// //redhip:unsafe-ok justification, on the line or on the enclosing
// function's doc comment.
func (a *Annotations) UnsafeOK(pos token.Pos, decl *ast.FuncDecl) bool {
	return lineCovered(a.unsafeOK, a.fset.Position(pos)) || funcHasVerb(decl, "unsafe-ok")
}

// --- shared analyzer helpers ---------------------------------------------------

// PathTail returns the last segment of an import path: the package
// directory name the project's target-set matching keys on. Matching by
// tail keeps the analyzers working identically against the real module
// ("redhip/internal/cache") and against fixture corpora ("cache").
func PathTail(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// CompiledOutPackages are the build-tag-gated instrumentation packages
// whose Enabled constant is false in default builds: redhipassert (the
// invariant checks, compiled in by -tags redhipassert) and faultinject
// (the chaos-testing injection points, compiled in by -tags
// faultinject). A block guarded by `if <pkg>.Enabled { ... }` is dead
// code in production — the compiler deletes it — so the hotpath and
// determinism analyzers skip those blocks instead of demanding waivers
// for code that never ships.
var CompiledOutPackages = map[string]bool{
	"redhipassert": true,
	"faultinject":  true,
}

// IsCompiledOutGuard recognises `if <pkg>.Enabled { ... }` statements
// where <pkg> is one of CompiledOutPackages, matched by import-path
// tail like every other target set. Only the guard's then-arm compiles
// out; callers must still walk the else arm.
func IsCompiledOutGuard(info *types.Info, ifStmt *ast.IfStmt) bool {
	sel, ok := ifStmt.Cond.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Enabled" {
		return false
	}
	ident, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pkgName, ok := info.Uses[ident].(*types.PkgName)
	return ok && CompiledOutPackages[PathTail(pkgName.Imported().Path())]
}

// SimulationPackages is the determinism target set: the packages that
// feed the golden Result fingerprints, plus the ones that render those
// results into the byte-stable paper figures, claim checks and sweep
// artifacts (experiment, sweep, stats). Anything nondeterministic
// inside them (wall-clock reads, global rand, map-iteration order) can
// silently change simulation results or their rendering, so the
// determinism analyzer patrols exactly this list.
var SimulationPackages = map[string]bool{
	"sim":        true,
	"cache":      true,
	"core":       true,
	"predictor":  true,
	"prefetch":   true,
	"workload":   true,
	"energy":     true,
	"memaddr":    true,
	"trace":      true,
	"tracestore": true,
	"lru":        true,
	"experiment": true,
	"sweep":      true,
	"stats":      true,
}

// IsSimulationPackage reports whether the package at path belongs to
// the determinism target set.
func IsSimulationPackage(path string) bool {
	return SimulationPackages[PathTail(path)]
}

// ServingPackages is the explicit complement of SimulationPackages on
// the serving side of the repo: packages whose job is to run a network
// service, where wall-clock reads, goroutines and timer-driven control
// flow are normal server life, not determinism bugs. The determinism
// analyzer excludes them by name so the server does not accumulate
// //redhip:allow waivers — and so a future refactor that moves
// simulation code into one of these packages is caught by the overlap
// check in the tests rather than silently unpatrolled.
var ServingPackages = map[string]bool{
	"serve":         true,
	"redhip-serve":  true,
	"loadgen":       true,
	"redhip-load":   true,
	"cluster":       true,
	"redhip-router": true,
}

// IsServingPackage reports whether the package at path is a declared
// serving-side package exempt from the determinism contract.
func IsServingPackage(path string) bool {
	return ServingPackages[PathTail(path)]
}

// SerializationPackages are packages whose whole job is encoding and
// decoding state at setup/teardown boundaries — never the
// per-reference loop. The hotpath analyzer skips them entirely:
// serialisation legitimately allocates (growing buffers, decoded
// slices), so a //redhip:hotpath annotation inside one would only
// breed blanket //redhip:allow waivers that teach readers to ignore
// the annotation elsewhere. Note this exempts only the hotpath
// contract; simstate stays under the determinism analyzer's patrol via
// its callers in SimulationPackages.
var SerializationPackages = map[string]bool{
	"simstate": true,
}

// IsSerializationPackage reports whether the package at path is a
// declared serialisation package the hotpath analyzer skips.
func IsSerializationPackage(path string) bool {
	return SerializationPackages[PathTail(path)]
}

// UnsafePackages is the unsafeaudit allowlist: the only packages in
// which `unsafe`, `reflect` and memory-mapping syscalls are legal at
// all. tracestore imports `unsafe` for the unsafe.Sizeof behind
// RecordBytes; everywhere else those imports are a finding, not a
// waiver candidate — the set is the single documented escape.
var UnsafePackages = map[string]bool{
	"tracestore": true,
}

// IsUnsafePackage reports whether the package at path may legally use
// unsafe, reflect and memory-mapping syscalls (each unsafe site still
// needs //redhip:unsafe-ok).
func IsUnsafePackage(path string) bool {
	return UnsafePackages[PathTail(path)]
}

// SnapshotCodec names one snapshot-reachable struct type and the codec
// methods whose receiver-rooted field accesses count as serialisation
// coverage for the statecov analyzer.
type SnapshotCodec struct {
	// Type is the struct type's name within its package.
	Type string
	// Methods are the codec entry points (capture + restore). A field
	// touched by none of them must carry //redhip:transient.
	Methods []string
}

// SnapshotTypes is the statecov registry, keyed by package import-path
// tail: every struct type whose warm state the simstate snapshot layer
// serialises. Adding a field to one of these types without either
// threading it through the named codec methods or annotating it
// //redhip:transient is a lint failure — the exact
// warm-restore ≢ cold-run heisenbug class PR 7 introduced the codec to
// prevent.
var SnapshotTypes = map[string][]SnapshotCodec{
	"sim": {
		{Type: "engine", Methods: []string{"captureSnapshot", "restoreSnapshot"}},
	},
	"cache": {
		{Type: "Cache", Methods: []string{"SnapshotState", "RestoreSnapshotState"}},
	},
	"core": {
		{Type: "Table", Methods: []string{"SnapshotState", "RestoreSnapshotState"}},
	},
	"predictor": {
		{Type: "MirrorTable", Methods: []string{"SnapshotRefs", "RestoreRefs"}},
		{Type: "CBF", Methods: []string{"SnapshotState", "RestoreSnapshotState"}},
	},
	"prefetch": {
		{Type: "Prefetcher", Methods: []string{"SnapshotEntries", "RestoreEntries"}},
	},
}
