package sor

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/machine"
)

func TestSORMatchesNative(t *testing.T) {
	pr := Params{G: 16, P: 2, B: 2, Iters: 3}
	want := Native(pr.G, pr.Iters)
	for _, cfg := range []core.Config{core.DefaultHybrid(), core.ParallelOnly()} {
		got := Run(machine.CM5(), cfg, pr)
		if got.Checksum != want {
			t.Errorf("cfg hybrid=%v: checksum %v, want %v (bit-exact)", cfg.Hybrid, got.Checksum, want)
		}
	}
}

func TestSORAllBlockSizesMatchNative(t *testing.T) {
	for _, b := range []int{1, 2, 4, 8} {
		pr := Params{G: 16, P: 2, B: b, Iters: 2}
		want := Native(pr.G, pr.Iters)
		got := Run(machine.T3D(), core.DefaultHybrid(), pr)
		if got.Checksum != want {
			t.Errorf("B=%d: checksum %v, want %v", b, got.Checksum, want)
		}
	}
}

// TestSORZeroItersLocalFraction: a run with no iterations makes no
// invocations, and its local fraction is 0, not NaN.
func TestSORZeroItersLocalFraction(t *testing.T) {
	r := Run(machine.CM5(), core.DefaultHybrid(), Params{G: 8, P: 2, B: 8, Iters: 0})
	if r.Stats.Invokes != 0 {
		t.Fatalf("%d invocations, want 0", r.Stats.Invokes)
	}
	if r.LocalFraction != 0 {
		t.Fatalf("local fraction %v, want 0", r.LocalFraction)
	}
}

// TestSORLocalityMonotonic: larger blocks mean more local neighbor access.
func TestSORLocalityMonotonic(t *testing.T) {
	prev := -1.0
	for _, b := range []int{1, 2, 4, 8} {
		pr := Params{G: 32, P: 2, B: b, Iters: 1}
		r := Run(machine.CM5(), core.DefaultHybrid(), pr)
		if r.LocalFraction <= prev {
			t.Errorf("B=%d: local fraction %v not greater than previous %v", b, r.LocalFraction, prev)
		}
		prev = r.LocalFraction
	}
}

// TestSORHybridSpeedupGrowsWithLocality reproduces Table 4's shape at small
// scale: the hybrid/parallel-only speedup increases with the block size.
func TestSORHybridSpeedupGrowsWithLocality(t *testing.T) {
	speedup := func(b int) float64 {
		pr := Params{G: 32, P: 2, B: b, Iters: 2}
		h := Run(machine.CM5(), core.DefaultHybrid(), pr)
		p := Run(machine.CM5(), core.ParallelOnly(), pr)
		return p.Seconds / h.Seconds
	}
	s1, s16 := speedup(1), speedup(16)
	if s16 <= s1 {
		t.Errorf("speedup should grow with locality: B=1 %.2f, B=16 %.2f", s1, s16)
	}
	if s16 < 1.5 {
		t.Errorf("high-locality hybrid speedup %.2f, want >= 1.5 (paper: up to 2.4)", s16)
	}
}

// TestSORPerimeterContexts checks Figure 9's claim: under the hybrid model
// with a pure block layout, heap contexts are created only for elements on
// the block perimeter (plus driver/coordinator machinery), while the
// parallel-only version creates them for every element in every
// half-iteration.
func TestSORPerimeterContexts(t *testing.T) {
	pr := Params{G: 32, P: 2, B: 16, Iters: 1} // pure blocks: 16x16 per node
	h := Run(machine.CM5(), core.DefaultHybrid(), pr)
	p := Run(machine.CM5(), core.ParallelOnly(), pr)
	// Parallel-only: >= one context per element per half-iteration plus one
	// per neighbor get.
	elems := int64(pr.G * pr.G)
	if p.Stats.HeapInvokes < 2*elems {
		t.Errorf("parallel-only HeapInvokes = %d, want >= %d", p.Stats.HeapInvokes, 2*elems)
	}
	// Hybrid: contexts only where remote neighbors force fallbacks. Each
	// 16x16 block has at most 4*16 perimeter elements with remote edges.
	if h.Stats.Fallbacks >= elems {
		t.Errorf("hybrid Fallbacks = %d, want well below element count %d", h.Stats.Fallbacks, elems)
	}
	if h.Stats.HeapInvokes >= p.Stats.HeapInvokes/4 {
		t.Errorf("hybrid HeapInvokes = %d vs parallel-only %d: expected large reduction",
			h.Stats.HeapInvokes, p.Stats.HeapInvokes)
	}
}

func TestBlockCyclicLocalFractionAgrees(t *testing.T) {
	// The layout's analytic LocalFraction should roughly agree with the
	// measured invocation mix (which also counts compute/update/driver
	// invocations, all local — so measured > analytic).
	d := layout.BlockCyclic{G: 32, P: 2, B: 8}
	analytic := d.LocalFraction()
	pr := Params{G: 32, P: 2, B: 8, Iters: 1}
	r := Run(machine.CM5(), core.DefaultHybrid(), pr)
	if r.LocalFraction <= analytic {
		t.Errorf("measured local fraction %v should exceed stencil-only analytic %v", r.LocalFraction, analytic)
	}
	if math.Abs(r.LocalFraction-analytic) > 0.5 {
		t.Errorf("measured %v and analytic %v wildly different", r.LocalFraction, analytic)
	}
}
