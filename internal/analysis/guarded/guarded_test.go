package guarded_test

import (
	"testing"

	"redhip/internal/analysis/analysistest"
	"redhip/internal/analysis/guarded"
)

func TestGuarded(t *testing.T) {
	analysistest.Run(t, "testdata", guarded.Analyzer, "store", "generic")
}
