package seqbench

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/machine"
)

// Result is one cell of Table 3: the virtual execution time of one program
// under one execution-model configuration, plus the computed answer for
// verification.
type Result struct {
	Seconds float64
	Value   int64
}

// Column is one execution-model configuration of Table 3.
type Column struct {
	Name string
	Cfg  core.Config
}

// Columns returns the paper's Table 3 configurations, in order: the
// parallel-only baseline, hybrid restricted to 1 and 2 interfaces, the full
// 3-interface hybrid, and Seq-opt (parallelization checks elided).
func Columns() []Column {
	h1 := core.DefaultHybrid()
	h1.Interfaces = core.Interfaces1
	h2 := core.DefaultHybrid()
	h2.Interfaces = core.Interfaces2
	h3 := core.DefaultHybrid()
	seqOpt := core.DefaultHybrid()
	seqOpt.SeqOpt = true
	return []Column{
		{Name: "parallel-only", Cfg: core.ParallelOnly()},
		{Name: "hybrid-1if", Cfg: h1},
		{Name: "hybrid-2if", Cfg: h2},
		{Name: "hybrid-3if", Cfg: h3},
		{Name: "seq-opt", Cfg: seqOpt},
	}
}

// run executes one root method on a 1-node SPARC workstation (the paper's
// sequential platform).
func run(cfg core.Config, pick func(*Methods) *core.Method, state any, args ...core.Word) Result {
	m := Build()
	if err := m.Prog.Resolve(cfg.Interfaces); err != nil {
		panic(fmt.Sprintf("seqbench: %v", err))
	}
	sys := core.NewSystem(machine.SPARCStation(), 1, m.Prog, cfg)
	res := sys.Start(0, pick(m), sys.NewObject(0, state), args...)
	sys.MustRun()
	return Result{Seconds: sys.Seconds(), Value: res.Val.Int()}
}

// RunFib runs fib(n) under cfg.
func RunFib(cfg core.Config, n int64) Result {
	return run(cfg, func(m *Methods) *core.Method { return m.Fib }, nil, core.IntW(n))
}

// RunTak runs tak(x,y,z) under cfg.
func RunTak(cfg core.Config, x, y, z int64) Result {
	return run(cfg, func(m *Methods) *core.Method { return m.Tak }, nil,
		core.IntW(x), core.IntW(y), core.IntW(z))
}

// RunNQueens counts n-queens solutions under cfg.
func RunNQueens(cfg core.Config, n int) Result {
	return run(cfg, func(m *Methods) *core.Method { return m.NQueens }, nil,
		0, 0, 0, core.IntW(0), core.IntW(int64(n)))
}

// RunQsort sorts a deterministic random array of the given size under cfg.
// The returned Value is 1 if the result is correctly sorted, else 0.
func RunQsort(cfg core.Config, size int, seed int64) Result {
	arr := &Array{A: RandomArray(size, seed)}
	r := run(cfg, func(m *Methods) *core.Method { return m.Qsort }, arr,
		core.IntW(0), core.IntW(int64(size-1)))
	r.Value = 1
	for i := 1; i < size; i++ {
		if arr.A[i-1] > arr.A[i] {
			r.Value = 0
			break
		}
	}
	return r
}

// RandomArray builds the deterministic input array used by the qsort runs.
func RandomArray(size int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	a := make([]int64, size)
	for i := range a {
		a[i] = rng.Int63n(1 << 30)
	}
	return a
}
