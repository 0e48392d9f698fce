package mdforce

import (
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	policy "repro/internal/migrate"
)

func cellInstance() *Instance {
	return Generate(Params{
		Atoms: 1500, Clusters: 32, Box: 48, Cutoff: 2.4,
		Nodes: 8, Scatter: 0.1, Seed: 42,
	})
}

const cellIters = 3

// TestForcesMatchNativeStatic: the per-cluster kernel reproduces the
// native forces under both static placements, hybrid and parallel-only.
func TestForcesMatchNativeStatic(t *testing.T) {
	inst := cellInstance()
	want := Native(inst, cellIters)
	for _, spatial := range []bool{false, true} {
		for _, cfg := range []core.Config{core.DefaultHybrid(), core.ParallelOnly()} {
			r := RunCells(machine.CM5(), cfg, inst, cellIters, CellAssignment(inst, spatial))
			if err := MaxRelError(r.Forces, want); err > 1e-9 {
				t.Fatalf("spatial=%v hybrid=%v: force error %g", spatial, cfg.Hybrid, err)
			}
			if r.Stats.MigratesOut != 0 {
				t.Fatalf("static run migrated %d objects", r.Stats.MigratesOut)
			}
		}
	}
}

// TestForcesMatchNativeWithMigration: with the adaptive policy enabled the
// forces are unchanged, objects actually move, and locality improves over
// the same static placement.
func TestForcesMatchNativeWithMigration(t *testing.T) {
	inst := cellInstance()
	want := Native(inst, cellIters)
	assign := CellAssignment(inst, false)

	static := RunCells(machine.CM5(), core.DefaultHybrid(), inst, cellIters, assign)

	cfg := core.DefaultHybrid()
	cfg.Migration = policy.DefaultThreshold()
	adaptive := RunCells(machine.CM5(), cfg, inst, cellIters, assign)

	if err := MaxRelError(adaptive.Forces, want); err > 1e-9 {
		t.Fatalf("adaptive force error %g", err)
	}
	if adaptive.Stats.MigratesOut == 0 {
		t.Fatal("adaptive run migrated nothing")
	}
	if adaptive.Stats.MigratesOut != adaptive.Stats.MigratesIn {
		t.Fatalf("migrations out %d != in %d",
			adaptive.Stats.MigratesOut, adaptive.Stats.MigratesIn)
	}
	if adaptive.LocalFraction <= static.LocalFraction {
		t.Fatalf("adaptive locality %.3f did not beat static %.3f",
			adaptive.LocalFraction, static.LocalFraction)
	}
	t.Logf("static:   %.4fs local=%.3f msgs=%d", static.Seconds, static.LocalFraction, static.Messages)
	t.Logf("adaptive: %.4fs local=%.3f msgs=%d moves=%d hops=%d parks=%d maxcells=%d",
		adaptive.Seconds, adaptive.LocalFraction, adaptive.Messages,
		adaptive.Stats.MigratesOut, adaptive.Stats.ForwardHops,
		adaptive.Stats.MigrateParks, adaptive.MaxChunksPerNode)
}

// TestDeterministic: identical migrating configurations give bit-identical
// runs.
func TestDeterministic(t *testing.T) {
	inst := cellInstance()
	assign := CellAssignment(inst, false)
	mk := func() Result {
		cfg := core.DefaultHybrid()
		cfg.Migration = policy.DefaultThreshold()
		return RunCells(machine.CM5(), cfg, inst, cellIters, assign)
	}
	a, b := mk(), mk()
	if a.Seconds != b.Seconds || a.Messages != b.Messages || a.Stats != b.Stats {
		t.Fatalf("nondeterministic: %+v vs %+v", a.Stats, b.Stats)
	}
	for i := range a.Forces {
		if a.Forces[i] != b.Forces[i] {
			t.Fatalf("forces differ at atom %d", i)
		}
	}
}

// TestReturnMigrationParksInsteadOfCycling is the regression test for
// Table 7 at -scale medium (CM-5, adaptive threshold, seed 1995), which
// panicked with a request exceeding the forwarding bound. An object
// migrated 0 -> 6 and back 6 -> 0; while the return payload was in flight,
// node 0 still held its stale stub (residence 1, pointing at 6) and node 6
// its new one (residence 2, pointing at 0), so requests ricocheted between
// them until the hop limit. A forwarded request now parks at a stub no
// newer than the residence it was forwarded for, and runs when the object
// arrives.
func TestReturnMigrationParksInsteadOfCycling(t *testing.T) {
	p := DefaultCellParams() // Table 7's medium scale
	p.MD.Seed = 1995
	inst := Generate(p.MD)
	cfg := core.DefaultHybrid()
	cfg.Migration = policy.DefaultThreshold()
	r := RunCells(machine.CM5(), cfg, inst, p.Iters, CellAssignment(inst, false))
	if err := MaxRelError(r.Forces, Native(inst, p.Iters)); err > 1e-9 {
		t.Fatalf("force error %g", err)
	}
	if r.Stats.MigrateParks == 0 {
		t.Fatal("no request parked: the run no longer exercises a return migration in flight")
	}
}
