// Package cmdtest runs a command's main function inside a test, so the
// tests of cmd/ and examples/ drive the same entry point a user does.
package cmdtest

import (
	"flag"
	"io"
	"os"
	"testing"
)

// Stdout runs main with the command line name args... and returns what it
// wrote to standard output. The default flag set is rebuilt first, so one
// test binary may run main more than once.
func Stdout(t testing.TB, main func(), name string, args ...string) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	oldStdout, oldArgs, oldFlags := os.Stdout, os.Args, flag.CommandLine
	defer func() { os.Stdout, os.Args, flag.CommandLine = oldStdout, oldArgs, oldFlags }()
	os.Stdout = f
	os.Args = append([]string{name}, args...)
	flag.CommandLine = flag.NewFlagSet(name, flag.ExitOnError)
	main()
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
