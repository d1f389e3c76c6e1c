package predictor_test

import (
	"strings"
	"testing"

	"redhip/internal/memaddr"
	"redhip/internal/predictor"
)

// TestMirrorEvictUnderflowPanics pins the mirror table's reference-count
// contract: evicting a block that was never filled is an engine bug
// (the mirror would go negative and under-predict forever), so it must
// fail loudly — with a message that names its package, per the project
// rule redhip-lint's invariant pass machine-checks.
func TestMirrorEvictUnderflowPanics(t *testing.T) {
	m, err := predictor.NewMirrorTable(1024)
	if err != nil {
		t.Fatal(err)
	}
	block := memaddr.Addr(0x40)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("OnEvict of a never-filled block did not panic")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value is %T, want string", r)
		}
		if !strings.HasPrefix(msg, "predictor: ") {
			t.Errorf("panic message %q does not name its package (want prefix \"predictor: \")", msg)
		}
	}()
	m.OnEvict(block)
}

// TestMirrorFillEvictBalanced is the control: balanced fill/evict pairs
// never trip the underflow check, including aliased blocks sharing one
// counter.
func TestMirrorFillEvictBalanced(t *testing.T) {
	m, err := predictor.NewMirrorTable(1024)
	if err != nil {
		t.Fatal(err)
	}
	a := memaddr.Addr(0x40)
	b := memaddr.Addr(0x40 + 1024*8) // aliases onto a's counter
	m.OnFill(a)
	m.OnFill(b)
	if !m.PredictPresent(a) {
		t.Error("filled block predicted absent")
	}
	m.OnEvict(a)
	if !m.PredictPresent(b) {
		t.Error("aliased block predicted absent while still resident")
	}
	m.OnEvict(b)
	if m.PredictPresent(a) {
		t.Error("fully evicted counter still predicts present")
	}
}
