package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cmdtest"
)

// TestFigure9Golden pins the exact bytes of Figure 9 for the default flags
// and for a small grid. Regenerate a golden with
//
//	go run ./cmd/figure9 [flags] > cmd/figure9/testdata/NAME.golden
//
// only when a change is meant to move the simulated results.
func TestFigure9Golden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"default.golden", nil},
		{"grid16_procs2_block4.golden", []string{"-grid", "16", "-procs", "2", "-block", "4"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			if got := cmdtest.Stdout(t, main, "figure9", tc.args...); got != string(want) {
				t.Fatalf("output differs from testdata/%s:\n--- got ---\n%s\n--- want ---\n%s", tc.golden, got, want)
			}
		})
	}
}
