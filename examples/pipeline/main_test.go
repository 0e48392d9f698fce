package main

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cmdtest"
)

// TestPipeline runs the example and checks every client's answer under both
// layouts (main also panics on a wrong answer).
func TestPipeline(t *testing.T) {
	out := cmdtest.Stdout(t, main, "pipeline")
	var clients int
	for _, line := range strings.Split(out, "\n") {
		_, res, ok := strings.Cut(line, " -> ")
		if !ok {
			continue
		}
		clients++
		var got, want int64
		if _, err := fmt.Sscanf(res, "%d (want %d)", &got, &want); err != nil || got != want {
			t.Errorf("wrong answer: %s", line)
		}
	}
	if clients != 6 {
		t.Fatalf("%d client results, want 6 (3 clients x 2 layouts):\n%s", clients, out)
	}
}
