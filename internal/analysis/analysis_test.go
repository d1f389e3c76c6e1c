package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

const annSrc = `package p

//redhip:hotpath
func hot() {
	x := 1 //redhip:allow alloc -- reviewed
	//redhip:allow defer
	y := 2
	z := 3
	_, _, _ = x, y, z
}

//redhip:allow wallclock, globalrand -- perf plumbing
func timed() {}

func plain() {}
`

func parseAnn(t *testing.T) (*token.FileSet, *ast.File, *Annotations) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", annSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, f, ParseAnnotations(fset, []*ast.File{f})
}

func funcNamed(f *ast.File, name string) *ast.FuncDecl {
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd
		}
	}
	return nil
}

// stmtPos returns the position of the i-th statement of fn's body.
func stmtPos(fn *ast.FuncDecl, i int) token.Pos {
	return fn.Body.List[i].Pos()
}

func TestHotpathAnnotation(t *testing.T) {
	_, f, ann := parseAnn(t)
	if !ann.IsHotpath(funcNamed(f, "hot")) {
		t.Error("hot: expected //redhip:hotpath to be recognised")
	}
	if ann.IsHotpath(funcNamed(f, "timed")) || ann.IsHotpath(funcNamed(f, "plain")) {
		t.Error("timed/plain: unexpected hotpath annotation")
	}
}

func TestAllowTrailingAndLineAbove(t *testing.T) {
	_, f, ann := parseAnn(t)
	hot := funcNamed(f, "hot")
	if !ann.AllowsAt(stmtPos(hot, 0), "alloc") {
		t.Error("trailing //redhip:allow alloc not recognised")
	}
	if !ann.AllowsAt(stmtPos(hot, 1), "defer") {
		t.Error("line-above //redhip:allow defer not recognised")
	}
	if ann.AllowsAt(stmtPos(hot, 2), "alloc") || ann.AllowsAt(stmtPos(hot, 2), "defer") {
		t.Error("allow leaked onto an unannotated line")
	}
	if ann.AllowsAt(stmtPos(hot, 0), "defer") {
		t.Error("allow check name not respected")
	}
}

func TestFuncAllowsCommaList(t *testing.T) {
	_, f, ann := parseAnn(t)
	timed := funcNamed(f, "timed")
	for _, check := range []string{"wallclock", "globalrand"} {
		if !ann.FuncAllows(timed, check) {
			t.Errorf("timed: func-level allow %q not recognised", check)
		}
	}
	if ann.FuncAllows(timed, "alloc") {
		t.Error("timed: unexpected allow for alloc")
	}
	if ann.FuncAllows(funcNamed(f, "plain"), "wallclock") {
		t.Error("plain: unexpected func-level allow")
	}
}

func TestPathTail(t *testing.T) {
	cases := map[string]string{
		"redhip/internal/cache": "cache",
		"sim":                   "sim",
		"a/b/c":                 "c",
	}
	for in, want := range cases {
		if got := PathTail(in); got != want {
			t.Errorf("PathTail(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestIsSimulationPackage(t *testing.T) {
	for _, p := range []string{"redhip/internal/sim", "cache", "redhip/internal/tracestore",
		"redhip/internal/experiment", "redhip/internal/sweep", "stats"} {
		if !IsSimulationPackage(p) {
			t.Errorf("IsSimulationPackage(%q) = false, want true", p)
		}
	}
	for _, p := range []string{"redhip/internal/analysis", "redhip/cmd/redhip-sim", "redhip/internal/simstate"} {
		if IsSimulationPackage(p) {
			t.Errorf("IsSimulationPackage(%q) = true, want false", p)
		}
	}
}

func TestIsServingPackage(t *testing.T) {
	for _, p := range []string{"redhip/internal/serve", "redhip/cmd/redhip-serve", "serve", "redhip/internal/cluster", "redhip/cmd/redhip-router"} {
		if !IsServingPackage(p) {
			t.Errorf("IsServingPackage(%q) = false, want true", p)
		}
	}
	for _, p := range []string{"redhip/internal/sim", "redhip/cmd/redhip-sim", "stats"} {
		if IsServingPackage(p) {
			t.Errorf("IsServingPackage(%q) = true, want false", p)
		}
	}
}

// A package must never be both simulated (determinism-patrolled) and
// serving (determinism-exempt): an overlap would silently exempt
// simulation code from the contract.
func TestSimulationServingSetsDisjoint(t *testing.T) {
	for p := range ServingPackages {
		if SimulationPackages[p] {
			t.Errorf("package %q is in both SimulationPackages and ServingPackages", p)
		}
	}
}

func TestIsSerializationPackage(t *testing.T) {
	for _, p := range []string{"redhip/internal/simstate", "simstate"} {
		if !IsSerializationPackage(p) {
			t.Errorf("IsSerializationPackage(%q) = false, want true", p)
		}
	}
	for _, p := range []string{"redhip/internal/sim", "redhip/internal/tracestore", "serve"} {
		if IsSerializationPackage(p) {
			t.Errorf("IsSerializationPackage(%q) = true, want false", p)
		}
	}
}

const verbSrc = `package q

type s struct {
	a int //redhip:transient rebuilt by ctor // nested commentary
	//redhip:transient derived from geometry
	b int
	c int
	d int //redhip:guardedby mu
	e int
}

func f() {
	x := 1 //redhip:phase-exclusive init only
	y := 2
	_, _ = x, y
}

//redhip:phase-exclusive whole function is single-threaded
func g() {
	x := 1
	_ = x
}

//redhip:unsafe-ok POD view
func h() {
	x := 1 //redhip:unsafe-ok aligned view
	y := 2
	_, _ = x, y
}
`

func parseSrc(t *testing.T, src string) (*token.FileSet, *ast.File, *Annotations) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "q.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, f, ParseAnnotations(fset, []*ast.File{f})
}

// fieldPos returns the position of the i-th field of the file's first
// struct type.
func fieldPos(t *testing.T, f *ast.File, i int) token.Pos {
	t.Helper()
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range gd.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok {
				continue
			}
			if st, ok := ts.Type.(*ast.StructType); ok {
				return st.Fields.List[i].Pos()
			}
		}
	}
	t.Fatal("no struct type in fixture")
	return token.NoPos
}

func TestTransientTargetingNoSpill(t *testing.T) {
	_, f, ann := parseSrc(t, verbSrc)
	if !ann.TransientAt(fieldPos(t, f, 0)) {
		t.Error("field a: trailing //redhip:transient not recognised")
	}
	if !ann.TransientAt(fieldPos(t, f, 1)) {
		t.Error("field b: own-line //redhip:transient not recognised")
	}
	// The trailing annotation on a and the own-line annotation above b
	// must both stop at their targets: c is unannotated.
	if ann.TransientAt(fieldPos(t, f, 2)) {
		t.Error("field c: transient annotation spilled onto the next field")
	}
	if ann.TransientAt(fieldPos(t, f, 3)) || ann.TransientAt(fieldPos(t, f, 4)) {
		t.Error("fields d/e: unexpected transient coverage")
	}
	if len(ann.Errors()) != 0 {
		t.Errorf("unexpected annotation errors: %v", ann.Errors())
	}
}

func TestGuardedByTargeting(t *testing.T) {
	_, f, ann := parseSrc(t, verbSrc)
	mu, ok := ann.GuardedByAt(fieldPos(t, f, 3))
	if !ok || mu != "mu" {
		t.Errorf("field d: GuardedByAt = (%q, %v), want (\"mu\", true)", mu, ok)
	}
	if _, ok := ann.GuardedByAt(fieldPos(t, f, 4)); ok {
		t.Error("field e: guardedby annotation spilled onto the next field")
	}
}

func TestPhaseExclusiveLineAndFuncDoc(t *testing.T) {
	_, f, ann := parseSrc(t, verbSrc)
	fd, gd := funcNamed(f, "f"), funcNamed(f, "g")
	if !ann.PhaseExclusive(stmtPos(fd, 0), fd) {
		t.Error("f stmt 0: trailing //redhip:phase-exclusive not recognised")
	}
	if ann.PhaseExclusive(stmtPos(fd, 1), fd) {
		t.Error("f stmt 1: phase-exclusive leaked onto an unannotated line")
	}
	if !ann.PhaseExclusive(stmtPos(gd, 0), gd) {
		t.Error("g: func-doc //redhip:phase-exclusive not recognised")
	}
}

func TestUnsafeOKLineAndFuncDoc(t *testing.T) {
	_, f, ann := parseSrc(t, verbSrc)
	hd := funcNamed(f, "h")
	if !ann.UnsafeOK(stmtPos(hd, 0), hd) {
		t.Error("h stmt 0: trailing //redhip:unsafe-ok not recognised")
	}
	// The func doc also carries unsafe-ok, so even the unannotated
	// statement is covered through the function-level escape hatch.
	if !ann.UnsafeOK(stmtPos(hd, 1), hd) {
		t.Error("h stmt 1: func-doc //redhip:unsafe-ok not recognised")
	}
	fd := funcNamed(f, "f")
	if ann.UnsafeOK(stmtPos(fd, 0), fd) {
		t.Error("f: unexpected unsafe-ok coverage")
	}
}

// Nested "//" inside a directive is trailing commentary, not part of
// the directive's arguments — a reason followed by a nested comment
// must still parse cleanly (field a of verbSrc exercises this too).
func TestNestedCommentaryStripped(t *testing.T) {
	src := "package q\n\nfunc f() {\n\tx := 1 //redhip:allow alloc // reviewed in PR 8\n\t_ = x\n}\n"
	_, f, ann := parseSrc(t, src)
	fd := funcNamed(f, "f")
	if !ann.AllowsAt(stmtPos(fd, 0), "alloc") {
		t.Error("allow with nested commentary not recognised")
	}
	if len(ann.Errors()) != 0 {
		t.Errorf("unexpected annotation errors: %v", ann.Errors())
	}
}

const badSrc = `package r

//redhip:hotpth
func a() {}

func b() {
	x1 := 1 //redhip:transient
	x2 := 2 //redhip:guardedby
	x3 := 3 //redhip:guardedby mu extra
	x4 := 4 //redhip:allow wallclok
	x5 := 5 //redhip:phase-exclusive
	x6 := 6 //redhip:unsafe-ok
	_, _, _, _, _, _ = x1, x2, x3, x4, x5, x6
}
`

func TestMalformedDirectivesAreErrors(t *testing.T) {
	_, _, ann := parseSrc(t, badSrc)
	errs := ann.Errors()
	if len(errs) != 7 {
		t.Fatalf("got %d annotation errors, want 7: %v", len(errs), errs)
	}
	for i, want := range []string{"hotpth", "transient", "guardedby", "guardedby", "wallclok", "phase-exclusive", "unsafe-ok"} {
		if !strings.Contains(errs[i].Message, want) {
			t.Errorf("error %d = %q, want mention of %q", i, errs[i].Message, want)
		}
	}
}

func TestUnsafePackagesAllowlist(t *testing.T) {
	for _, p := range []string{"redhip/internal/tracestore", "tracestore"} {
		if !IsUnsafePackage(p) {
			t.Errorf("IsUnsafePackage(%q) = false, want true", p)
		}
	}
	for _, p := range []string{"redhip/internal/simstate", "simstate", "redhip/internal/sim", "serve", "redhip/internal/core"} {
		if IsUnsafePackage(p) {
			t.Errorf("IsUnsafePackage(%q) = true, want false", p)
		}
	}
}

func TestSnapshotTypesRegistrySane(t *testing.T) {
	if len(SnapshotTypes) == 0 {
		t.Fatal("SnapshotTypes registry is empty")
	}
	for pkg, codecs := range SnapshotTypes {
		if len(codecs) == 0 {
			t.Errorf("package %q registers no snapshot codecs", pkg)
		}
		for _, c := range codecs {
			if c.Type == "" || len(c.Methods) < 2 {
				t.Errorf("package %q has a codec without capture+restore methods: %+v", pkg, c)
			}
			for _, m := range c.Methods {
				if m == "" {
					t.Errorf("package %q codec %s has an empty method name", pkg, c.Type)
				}
			}
		}
	}
}
