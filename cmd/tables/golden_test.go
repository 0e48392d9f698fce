package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obsv"
	"repro/internal/sim"
)

// captureTables runs the given tables at small scale with the current adorn
// hook and worker count, and returns everything they rendered, each table
// followed by a blank line as main prints them.
func captureTables(t *testing.T, tables []func(string, int64)) string {
	t.Helper()
	old := out
	var buf bytes.Buffer
	out = &buf
	defer func() { out = old }()
	for _, fn := range tables {
		fn("small", 1995)
		fmt.Fprintln(out)
	}
	return buf.String()
}

// TestTablesZeroPerturbation: every published table must be byte-identical
// with the observability layer off and on. Observation hooks add no virtual
// charges, so the simulated numbers — and therefore the rendered tables —
// cannot move.
func TestTablesZeroPerturbation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every table twice")
	}
	tables := []func(string, int64){table2, table3, table4, table5, table6, table7, table8, table9, table10}

	adorn = nil
	plain := captureTables(t, tables)

	// One fresh registry per configuration: tables 4 and 6 construct configs
	// from parallel worker goroutines, and a Metrics instance is single-run.
	var mu sync.Mutex
	var all []*obsv.Metrics
	adorn = func(cfg core.Config) core.Config {
		m := obsv.New()
		m.Install(&cfg)
		mu.Lock()
		all = append(all, m)
		mu.Unlock()
		return cfg
	}
	observed := captureTables(t, tables)
	adorn = nil

	if len(all) == 0 {
		t.Fatal("adorn hook never ran — a table builds configs outside it")
	}
	if plain != observed {
		t.Fatalf("tables differ with observability on:\n--- off ---\n%s\n--- on ---\n%s", plain, observed)
	}
	for i, m := range all {
		if err := m.CheckAttribution(); err != nil {
			t.Fatalf("registry %d: %v", i, err)
		}
	}
}

// TestTablesCheckDeclsZeroPerturbation: arming the runtime declaration
// sanitizer (the -checkdecls flag) must not move a single byte of any
// published table — the checks charge no virtual time — and, as a side
// effect, this runs every kernel at small scale under the sanitizer,
// proving every hand-declared method property consistent with what the
// bodies actually did.
func TestTablesCheckDeclsZeroPerturbation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every table twice")
	}
	tables := []func(string, int64){table2, table3, table4, table5, table6, table7, table8, table9, table10}

	adorn = nil
	plain := captureTables(t, tables)

	adorn = func(cfg core.Config) core.Config {
		cfg.CheckDecls = true
		return cfg
	}
	checked := captureTables(t, tables)
	adorn = nil

	if plain != checked {
		t.Fatalf("tables differ with CheckDecls on:\n--- off ---\n%s\n--- on ---\n%s", plain, checked)
	}
}

// TestTablesGolden pins the absolute bytes of every published table at
// small scale: the other golden tests here compare two renderings with
// each other, so without this one a change that moved every configuration
// alike would pass them all. Regenerate testdata/tables_small.golden with
//
//	go run ./cmd/tables -scale small -seed 1995 > cmd/tables/testdata/tables_small.golden
//
// only when a change is meant to move the simulated results.
func TestTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every table")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "tables_small.golden"))
	if err != nil {
		t.Fatal(err)
	}
	tables := []func(string, int64){table2, table3, table4, table5, table6, table7, table8, table9, table10}

	adorn = nil
	if got := captureTables(t, tables); got != string(want) {
		t.Fatalf("tables differ from testdata/tables_small.golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestTablesEngineGolden is the PDES engine's golden guarantee: every
// published table must be byte-identical between the serial engine (the
// oracle) and the sharded parallel engine. The total event order
// (time, context, sequence) is engine-independent and every cross-shard side
// effect commits in that order, so goroutine scheduling cannot move a byte.
// Configurations the parallel engine declines (migration policies, reliable
// over fat-tree) fall back to serial dispatch inside the same run — the
// comparison covers that gating too.
func TestTablesEngineGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every table twice")
	}
	tables := []func(string, int64){table2, table3, table4, table5, table6, table7, table8, table9, table10}

	adorn = nil
	oldEng := sim.SetDefaultEngine(sim.EngineSerial)
	defer sim.SetDefaultEngine(oldEng)
	serial := captureTables(t, tables)

	sim.SetDefaultEngine(sim.EngineParallel)
	oldShards := sim.SetDefaultShards(4)
	defer sim.SetDefaultShards(oldShards)
	parallel := captureTables(t, tables)

	if serial != parallel {
		t.Fatalf("tables differ between engines:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}

// TestTablesParallelGolden is the experiment runner's golden guarantee:
// every published table must be byte-identical between -j 1 (the sequential
// reference execution) and -j 8. Each cell is an isolated deterministic
// simulation and collection is submission-ordered, so worker count cannot
// move a byte.
func TestTablesParallelGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every table twice")
	}
	tables := []func(string, int64){table2, table3, table4, table5, table6, table7, table8, table9, table10}

	adorn = nil
	oldWorkers := workers
	defer func() { workers = oldWorkers }()

	workers = 1
	serial := captureTables(t, tables)
	workers = 8
	parallel := captureTables(t, tables)

	if serial != parallel {
		t.Fatalf("tables differ between -j 1 and -j 8:\n--- j=1 ---\n%s\n--- j=8 ---\n%s",
			serial, parallel)
	}
}
