package main

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/cmdtest"
)

// TestHeat runs the example on a small rod and checks every block size's
// row: the same checksum under every layout (main itself panics if the two
// execution models disagree), and the hybrid model ahead of the baseline.
func TestHeat(t *testing.T) {
	out := cmdtest.Stdout(t, main, "heat", "-cells", "256", "-nodes", "4", "-iters", "2")
	var rows int
	var checksum string
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) != 5 || f[0] == "block" {
			continue
		}
		rows++
		if checksum == "" {
			checksum = f[4]
		} else if f[4] != checksum {
			t.Errorf("block %s: checksum %s, want %s (layout must not change the result)", f[0], f[4], checksum)
		}
		if speedup, err := strconv.ParseFloat(f[3], 64); err != nil || speedup <= 1 {
			t.Errorf("block %s: speedup %s, want > 1", f[0], f[3])
		}
	}
	if rows != 5 {
		t.Fatalf("%d result rows, want 5:\n%s", rows, out)
	}
}
