package main

import (
	"strings"
	"testing"

	"repro/internal/cmdtest"
)

// TestMinilang runs the example and checks the compiled schemas and the
// program's answer under both execution models.
func TestMinilang(t *testing.T) {
	out := cmdtest.Stdout(t, main, "minilang")
	for _, want := range []string{
		"add      required NB  emitted NB",
		"binom    required MB  emitted MB",
		"hybrid         binom(16,8) = 12870 (25739 tallied invocations)",
		"parallel-only  binom(16,8) = 12870 (25739 tallied invocations)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}
