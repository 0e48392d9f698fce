// Kernels: run scaled-down versions of the paper's three parallel
// application kernels (SOR, MD-Force, EM3D) through their packaged
// implementations, verify each against its native Go reference, and print
// the hybrid-versus-parallel-only comparison.
//
//	go run ./examples/kernels
package main

import (
	"fmt"
	"math"

	"repro/apps/em3d"
	"repro/apps/mdforce"
	"repro/apps/sor"
	"repro/internal/core"
	"repro/internal/machine"
)

func main() {
	mdl := machine.CM5()
	fmt.Printf("Paper kernels on a simulated %s\n\n", mdl.Name)

	// SOR: regular grid, block-cyclic layout.
	{
		pr := sor.Params{G: 64, P: 4, B: 8, Iters: 5}
		h := sor.Run(mdl, core.DefaultHybrid(), pr)
		p := sor.Run(mdl, core.ParallelOnly(), pr)
		want := sor.Native(pr.G, pr.Iters)
		status := "verified bit-exact against native Go"
		if h.Checksum != want || p.Checksum != want {
			status = "MISMATCH"
		}
		fmt.Printf("SOR %dx%d, block %d, %d iters on %d nodes: hybrid %.4fs vs parallel %.4fs (%.2fx) — %s\n",
			pr.G, pr.G, pr.B, pr.Iters, pr.P*pr.P, h.Seconds, p.Seconds, p.Seconds/h.Seconds, status)
	}

	// MD-Force: irregular spatial pairs, ORB layout.
	{
		pr := mdforce.DefaultParams()
		pr.Atoms, pr.Clusters, pr.Box, pr.Nodes, pr.Spatial = 2000, 32, 48, 16, true
		inst := mdforce.Generate(pr)
		h := mdforce.Run(mdl, core.DefaultHybrid(), inst)
		p := mdforce.Run(mdl, core.ParallelOnly(), inst)
		want := mdforce.Native(inst, 1)
		errH := mdforce.MaxRelError(h.Forces, want)
		errP := mdforce.MaxRelError(p.Forces, want)
		status := fmt.Sprintf("forces within %.1e of native", math.Max(errH, errP))
		if errH > 1e-9 || errP > 1e-9 {
			status = "MISMATCH"
		}
		fmt.Printf("MD-Force %d atoms (%d pairs), ORB layout on %d nodes: hybrid %.4fs vs parallel %.4fs (%.2fx) — %s\n",
			pr.Atoms, h.PairCount, pr.Nodes, h.Seconds, p.Seconds, p.Seconds/h.Seconds, status)
	}

	// EM3D: bipartite graph, three communication structures.
	{
		pr := em3d.Params{N: 512, Degree: 8, Iters: 4, Nodes: 16, PLocal: 0.95, Seed: 7}
		g := em3d.Generate(pr)
		want := em3d.Native(g)
		for _, v := range []em3d.Variant{em3d.Pull, em3d.Push, em3d.Forward} {
			h := em3d.Run(mdl, core.DefaultHybrid(), v, g)
			p := em3d.Run(mdl, core.ParallelOnly(), v, g)
			status := "bit-exact"
			if h.Checksum != want || p.Checksum != want {
				status = "MISMATCH"
			}
			fmt.Printf("EM3D %d nodes deg %d (%s): hybrid %.4fs vs parallel %.4fs (%.2fx), %d msgs — %s\n",
				pr.N, pr.Degree, v, h.Seconds, p.Seconds, p.Seconds/h.Seconds, h.Messages, status)
		}
	}

	fmt.Println("\nRun `go run ./cmd/tables` to regenerate the full evaluation tables.")
}
