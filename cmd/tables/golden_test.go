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

// TestTablesGolden pins the absolute bytes of every published table at
// small scale, under every setting that must not move a byte:
//
//   - j1, j8: the experiment runner's worker count. Each cell is an
//     isolated deterministic simulation and collection is
//     submission-ordered.
//   - metrics: the observability layer on (one obsv registry per
//     configuration; observation hooks add no virtual charges), with every
//     registry's cycle attribution checked against its run.
//   - checkdecls: the runtime declaration sanitizer armed (the -checkdecls
//     flag), which charges no virtual time; this also runs every kernel at
//     small scale under the sanitizer.
//   - parallel-engine: the sharded PDES engine at 4 shards. The total event
//     order is engine-independent and every cross-shard side effect commits
//     in it; configurations the engine declines fall back to serial
//     dispatch inside the same run, so the mode covers that gating too.
//
// Regenerate testdata/tables_small.golden with
//
//	go run ./cmd/tables -scale small -seed 1995 > cmd/tables/testdata/tables_small.golden
//
// only when a change is meant to move the simulated results.
func TestTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every table once per mode")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "tables_small.golden"))
	if err != nil {
		t.Fatal(err)
	}
	tables := []func(string, int64){table2, table3, table4, table5, table6, table7, table8, table9, table10}

	// Tables 4 and 6 construct configs from parallel worker goroutines, and
	// a Metrics instance is single-run: the metrics mode keeps one fresh
	// registry per configuration.
	var mu sync.Mutex
	var registries []*obsv.Metrics
	modes := []struct {
		name  string
		setup func() (restore func())
		check func(t *testing.T)
	}{
		{name: "j1", setup: func() func() {
			old := workers
			workers = 1
			return func() { workers = old }
		}},
		{name: "j8", setup: func() func() {
			old := workers
			workers = 8
			return func() { workers = old }
		}},
		{name: "metrics", setup: func() func() {
			adorn = func(cfg core.Config) core.Config {
				m := obsv.New()
				m.Install(&cfg)
				mu.Lock()
				registries = append(registries, m)
				mu.Unlock()
				return cfg
			}
			return func() { adorn = nil }
		}, check: func(t *testing.T) {
			if len(registries) == 0 {
				t.Fatal("adorn hook never ran — a table builds configs outside it")
			}
			for i, m := range registries {
				if err := m.CheckAttribution(); err != nil {
					t.Fatalf("registry %d: %v", i, err)
				}
			}
		}},
		{name: "checkdecls", setup: func() func() {
			adorn = func(cfg core.Config) core.Config {
				cfg.CheckDecls = true
				return cfg
			}
			return func() { adorn = nil }
		}},
		{name: "parallel-engine", setup: func() func() {
			oldEng := sim.SetDefaultEngine(sim.EngineParallel)
			oldShards := sim.SetDefaultShards(4)
			return func() {
				sim.SetDefaultEngine(oldEng)
				sim.SetDefaultShards(oldShards)
			}
		}},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			adorn = nil
			defer mode.setup()()
			got := captureTables(t, tables)
			if got != string(want) {
				t.Fatalf("tables differ from testdata/tables_small.golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
			if mode.check != nil {
				mode.check(t)
			}
		})
	}
}
