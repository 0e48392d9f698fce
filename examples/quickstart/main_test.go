package main

import (
	"strings"
	"testing"

	"repro/internal/cmdtest"
)

// TestQuickstart runs the example and checks that both execution models
// compute fib(22) and that the hybrid model never fell back to the heap.
func TestQuickstart(t *testing.T) {
	out := cmdtest.Stdout(t, main, "quickstart")
	for _, want := range []string{
		"hybrid         fib(22) = 17711",
		"parallel-only  fib(22) = 17711",
		"heap contexts 1, fallbacks 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}
