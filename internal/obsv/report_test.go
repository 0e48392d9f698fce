package obsv_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/obsv"
)

// TestWriteReportHistogramLines pins the report's message-size and
// suspend-duration summary lines (count, exact mean, exact max) on a small
// fixed SOR run.
func TestWriteReportHistogramLines(t *testing.T) {
	m := obsv.New()
	runSOR(t, m)
	var buf bytes.Buffer
	m.WriteReport(&buf, "sor", nil)
	var got []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "messages:") || strings.HasPrefix(line, "suspends:") {
			got = append(got, line)
		}
	}
	want := []string{
		"messages: 5556 sent, mean 3.0 words, max 4",
		"suspends: 660 paired, mean 6823 instr, max 70033",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("report summary lines:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
