// Command figure9 regenerates the paper's Figure 9: "heap contexts are
// only created on the perimeter of the block, all internal chunks execute
// on the stack". It runs SOR under the hybrid model with a trace attached,
// maps every fallback (lazy heap-context creation) back to its grid point,
// and draws the grid — '#' marks points whose compute method fell back to
// a heap context during the first iteration, '.' marks points that ran
// entirely on the stack. With a block-cyclic layout the '#' points form
// exactly the block perimeters.
//
// Usage:
//
//	figure9 [-grid 32] [-procs 2] [-block 8]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/trace"

	"repro/apps/sor"
)

func main() {
	grid := flag.Int("grid", 32, "grid side")
	procs := flag.Int("procs", 2, "processor grid side (procs^2 nodes)")
	block := flag.Int("block", 8, "block-cyclic block size")
	flag.Parse()

	w := bufio.NewWriter(os.Stdout)
	figure9(w, *grid, *procs, *block)
	if err := w.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "figure9:", err)
		os.Exit(1)
	}
}

// figure9 runs one SOR iteration on the grid sor.Run builds, with a trace
// attached, and draws which grid points fell back to a heap context.
func figure9(w io.Writer, grid, procs, block int) {
	buf := trace.NewBuffer(1 << 20)
	cfg := core.DefaultHybrid()
	cfg.Tracer = buf
	g := sor.NewGrid(machine.CM5(), cfg, sor.Params{G: grid, P: procs, B: block})
	pos := map[core.Word][2]int{}
	for i, row := range g.Refs {
		for j, ref := range row {
			pos[core.RefW(ref)] = [2]int{i, j}
		}
	}
	g.Run(1)

	fell := map[[2]int]bool{}
	buf.Each(func(ev trace.Event) bool {
		if ev.Kind == trace.KFallback && ev.Method == "sor.compute" {
			if p, ok := pos[core.Word(ev.Aux)]; ok {
				fell[p] = true
			}
		}
		return true
	})
	fmt.Fprintf(w, "Figure 9 — SOR %dx%d grid, %dx%d processors, block size %d (hybrid, CM-5)\n",
		grid, grid, procs, procs, block)
	fmt.Fprintln(w, "'#' = compute fell back to a heap context; '.' = ran entirely on the stack")
	fmt.Fprintln(w)
	for i := 0; i < grid; i++ {
		for j := 0; j < grid; j++ {
			if fell[[2]int{i, j}] {
				fmt.Fprint(w, "#")
			} else {
				fmt.Fprint(w, ".")
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\n%d of %d grid points created heap contexts (%.1f%%)\n",
		len(fell), grid*grid, 100*float64(len(fell))/float64(grid*grid))
}
