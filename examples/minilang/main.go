// Minilang: compile a program written in the bundled fine-grained
// concurrent mini-language (the ICC++/Concert-compiler analog) and run it
// under both execution models. The compiler derives each method's calling
// schema from its syntax — leaf methods become Non-blocking plain calls,
// spawn/touch methods become May-block, and forwarding contributes call
// graph edges along which blocking and continuation needs propagate —
// exactly the paper's analysis, end to end from source text.
//
//	go run ./examples/minilang
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/machine"
)

const source = `
// A tiny call-intensive program: binomial(n, k) via Pascal's rule, where
// every recursive call is a concurrent method invocation with a future.
// The Tally class shows the object-oriented surface: named fields, implicit
// locking, and dynamic instance creation.

class Tally {
    field calls;
    locked method note() { calls = calls + 1; return calls; }
    method total() { return calls; }
}

method binom(n, k, tally) {
    work 6;
    t = spawn Tally.note() on tally;
    touch t;
    if k == 0 || k == n { return 1; }
    a = spawn binom(n - 1, k - 1, tally) on self;
    b = spawn binom(n - 1, k, tally) on self;
    touch a, b;
    r = spawn add(a, b) on self;   // a non-blocking leaf combine
    touch r;
    return r;
}

method add(x, y) { work 2; return x + y; }

method main(n, k) {
    tally = new Tally();
    v = spawn binom(n, k, tally) on self;
    touch v;
    calls = spawn Tally.total() on tally;
    touch calls;
    return v * 1000000 + calls;
}
`

func run(cfg core.Config, label string) {
	c, err := lang.Compile(source)
	if err != nil {
		panic(err)
	}
	if err := c.Prog.Resolve(cfg.Interfaces); err != nil {
		panic(err)
	}
	sys := core.NewSystem(machine.SPARCStation(), 1, c.Prog, cfg)
	res := sys.Start(0, c.Methods["main"], sys.NewObject(0, make([]core.Word, 0)), core.IntW(16), core.IntW(8))
	sys.MustRun()
	s := sys.Stats()
	v := res.Val.Int() / 1000000
	calls := res.Val.Int() % 1000000
	fmt.Printf("%-14s binom(16,8) = %d (%d tallied invocations)   %.4f simulated s   stack %d, contexts %d\n",
		label, v, calls, sys.Seconds(), s.StackCalls, s.HeapInvokes)
}

func main() {
	c, err := lang.Compile(source)
	if err != nil {
		panic(err)
	}
	if err := c.Prog.Resolve(core.Interfaces3); err != nil {
		panic(err)
	}
	fmt.Println("compiled schemas (derived by the compiler's analysis):")
	for _, m := range c.Prog.Methods() {
		fmt.Printf("  %-8s required %-3v emitted %v\n", m.Name, m.Required, m.Emitted)
	}
	fmt.Println()
	run(core.DefaultHybrid(), "hybrid")
	run(core.ParallelOnly(), "parallel-only")
}
