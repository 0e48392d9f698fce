// Package em3d implements the irregular kernel of the paper's Table 6:
// propagation of electromagnetic waves on a bipartite graph of E-field and
// H-field nodes (after Culler et al.'s Split-C benchmark). A simple linear
// function is computed at each node from the values carried along its
// in-edges.
//
// Three versions exercise different communication and synchronization
// structures (paper Section 4.3.3):
//
//   - pull:    each node reads values directly from its (possibly remote)
//     in-neighbors with get() invocations;
//   - push:    each source writes its value into the computing nodes'
//     input buffers with put() invocations, one ack reply per put;
//   - forward: each source sends a single update message that is forwarded
//     through the chain of nodes requiring the value — the reply obligation
//     travels with the message (continuation forwarding), so a chain costs
//     one longer message per hop but only one reply.
//
// On the CM-5 replies are cheap single packets, so forward's longer
// messages lose to push; on the T3D the lower message count makes forward
// win at low locality — both consequences fall out of the machine models.
package em3d

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/instr"
	"repro/internal/layout"
	"repro/internal/machine"
)

// Variant selects the communication structure.
type Variant int

const (
	Pull Variant = iota
	Push
	Forward
)

var variantNames = [...]string{"pull", "push", "forward"}

func (v Variant) String() string { return variantNames[v] }

// Update coefficients of the per-node linear function.
const (
	alpha = 0.75
	beta  = 0.125
)

// computeWork is the useful work of one node update (degree multiply-adds).
const computeWork instr.Instr = 90

// storeWork is the useful work of storing one pushed/forwarded value.
const storeWork instr.Instr = 4

// maxChain caps the length of one forwarded update chain; longer out-edge
// lists are split into several chains.
const maxChain = 12

// chainArgMax is the argument capacity of chainStore: value, count, own
// slot, plus (ref, slot) pairs for the remaining hops.
const chainArgMax = 3 + 2*(maxChain-1)

// GNode is one graph node (E or H field).
type GNode struct {
	Val float64
	In  []core.Ref // in-neighbors, fixed order
	W   []float64  // per in-edge weight, same order
	Buf []float64  // input buffer for push/forward, indexed by in-edge slot
	Out []OutEdge  // consumers of this node's value
}

// OutEdge records that Dep's input slot Slot carries this node's value.
type OutEdge struct {
	Dep  core.Ref
	Slot int
}

// Chunk is the per-processor driver object.
type Chunk struct {
	E, H []core.Ref
}

// Coord is the coordinator object on node 0.
type Coord struct {
	Chunks []core.Ref
}

// phase describes one step of an iteration: run method over set.
type phase struct {
	set  int // 0 = E nodes, 1 = H nodes
	meth *core.Method
}

// Methods bundles the EM3D program for one variant.
type Methods struct {
	Prog *core.Program
	Main *core.Method

	get, compute      *core.Method
	storeIn, pushOut  *core.Method
	computeLocal      *core.Method
	chainStore, chain *core.Method
	chunkRun          *core.Method
	plan              []phase
}

// Build registers the EM3D methods for the given variant.
func Build(variant Variant) *Methods {
	p := core.NewProgram()
	m := &Methods{Prog: p}

	// get: read a node's current value (pull).
	m.get = &core.Method{Name: "em3d.get"}
	m.get.Body = func(rt *core.RT, fr *core.Frame) core.Status {
		rt.Reply(fr, core.FloatW(fr.Node.State(fr.Self).(*GNode).Val))
		return core.Done
	}
	p.Add(m.get)

	// compute (pull): gather in-neighbor values, apply the linear function.
	// Local 0 is the next in-edge to request.
	m.compute = &core.Method{Name: "em3d.compute", NLocals: 1, NFutures: 16,
		MayBlockLocal: true, Calls: []*core.Method{m.get}}
	m.compute.Body = func(rt *core.RT, fr *core.Frame) core.Status {
		g := fr.Node.State(fr.Self).(*GNode)
		switch fr.PC {
		case 0:
			fr.PC = 1
			fallthrough
		case 1:
			for {
				i := int(fr.Local(0).Int())
				if i >= len(g.In) {
					break
				}
				fr.SetLocal(0, core.IntW(int64(i+1)))
				st := rt.Invoke(fr, m.get, g.In[i], i)
				if st == core.NeedUnwind {
					return rt.Unwind(fr)
				}
			}
			fr.PC = 2
			fallthrough
		case 2:
			if len(g.In) > 0 && !rt.TouchAll(fr, core.MaskRange(0, len(g.In))) {
				return core.Unwound
			}
			var sum float64
			for i := range g.In {
				sum += g.W[i] * fr.Fut(i).Float()
			}
			g.Val = alpha*g.Val + beta*sum
			rt.Work(fr, computeWork)
			rt.Reply(fr, 0)
			return core.Done
		}
		panic("em3d.compute: bad pc")
	}
	p.Add(m.compute)

	// storeIn (push): write a value into the target's input buffer.
	m.storeIn = &core.Method{Name: "em3d.storeIn", NArgs: 2}
	m.storeIn.Body = func(rt *core.RT, fr *core.Frame) core.Status {
		g := fr.Node.State(fr.Self).(*GNode)
		g.Buf[fr.Arg(0).Int()] = fr.Arg(1).Float()
		rt.Work(fr, storeWork)
		rt.Reply(fr, 0)
		return core.Done
	}
	p.Add(m.storeIn)

	// pushOut (push): write this node's value to every consumer, join acks.
	m.pushOut = &core.Method{Name: "em3d.pushOut", NLocals: 1,
		MayBlockLocal: true, Calls: []*core.Method{m.storeIn}}
	m.pushOut.Body = func(rt *core.RT, fr *core.Frame) core.Status {
		g := fr.Node.State(fr.Self).(*GNode)
		switch fr.PC {
		case 0:
			fr.PC = 1
			fallthrough
		case 1:
			for {
				i := int(fr.Local(0).Int())
				if i >= len(g.Out) {
					break
				}
				fr.SetLocal(0, core.IntW(int64(i+1)))
				oe := g.Out[i]
				st := rt.Invoke(fr, m.storeIn, oe.Dep, core.JoinDiscard,
					core.IntW(int64(oe.Slot)), core.FloatW(g.Val))
				if st == core.NeedUnwind {
					return rt.Unwind(fr)
				}
			}
			fr.PC = 2
			fallthrough
		case 2:
			if !rt.TouchJoin(fr) {
				return core.Unwound
			}
			rt.Reply(fr, 0)
			return core.Done
		}
		panic("em3d.pushOut: bad pc")
	}
	p.Add(m.pushOut)

	// computeLocal (push/forward): apply the linear function to the input
	// buffer; purely local.
	m.computeLocal = &core.Method{Name: "em3d.computeLocal"}
	m.computeLocal.Body = func(rt *core.RT, fr *core.Frame) core.Status {
		g := fr.Node.State(fr.Self).(*GNode)
		var sum float64
		for i := range g.Buf {
			sum += g.W[i] * g.Buf[i]
		}
		g.Val = alpha*g.Val + beta*sum
		rt.Work(fr, computeWork)
		rt.Reply(fr, 0)
		return core.Done
	}
	p.Add(m.computeLocal)

	// chainStore (forward): store the carried value into our input buffer,
	// then forward the remainder of the chain — passing our reply
	// obligation with it. The last node in the chain replies, determining
	// the original continuation directly. Forwarding is not a capture: the
	// obligation travels the self-Forwards edge (declared below), nothing
	// on the chain captures, and the whole chain stays NB. When a hop does
	// leave the node, the runtime materializes the continuation at the
	// forwarding site regardless of schema.
	m.chainStore = &core.Method{Name: "em3d.chainStore", NArgs: chainArgMax}
	m.chainStore.Body = func(rt *core.RT, fr *core.Frame) core.Status {
		g := fr.Node.State(fr.Self).(*GNode)
		val := fr.Arg(0)
		k := int(fr.Arg(1).Int())
		g.Buf[fr.Arg(2).Int()] = val.Float()
		rt.Work(fr, storeWork)
		if k == 1 {
			rt.Reply(fr, 0)
			return core.Done
		}
		// Forward to the next node in the chain with the rest of the list.
		next := fr.Arg(3).Ref()
		args := make([]core.Word, 0, chainArgMax)
		args = append(args, val, core.IntW(int64(k-1)), fr.Arg(4))
		for i := 0; i < 2*(k-2); i++ {
			args = append(args, fr.Arg(5+i))
		}
		return rt.ForwardTail(fr, m.chainStore, next, args...)
	}
	m.chainStore.Forwards = []*core.Method{m.chainStore}
	p.Add(m.chainStore)

	// chain (forward): start one forwarded update chain per out-edge
	// segment and join on the chain-end replies.
	m.chain = &core.Method{Name: "em3d.chain", NLocals: 1,
		MayBlockLocal: true, Calls: []*core.Method{m.chainStore}}
	m.chain.Body = func(rt *core.RT, fr *core.Frame) core.Status {
		g := fr.Node.State(fr.Self).(*GNode)
		switch fr.PC {
		case 0:
			fr.PC = 1
			fallthrough
		case 1:
			for {
				seg := int(fr.Local(0).Int())
				if seg*maxChain >= len(g.Out) {
					break
				}
				fr.SetLocal(0, core.IntW(int64(seg+1)))
				lo := seg * maxChain
				hi := lo + maxChain
				if hi > len(g.Out) {
					hi = len(g.Out)
				}
				edges := g.Out[lo:hi]
				args := make([]core.Word, 0, chainArgMax)
				args = append(args, core.FloatW(g.Val), core.IntW(int64(len(edges))),
					core.IntW(int64(edges[0].Slot)))
				for _, oe := range edges[1:] {
					args = append(args, core.RefW(oe.Dep), core.IntW(int64(oe.Slot)))
				}
				st := rt.Invoke(fr, m.chainStore, edges[0].Dep, core.JoinDiscard, args...)
				if st == core.NeedUnwind {
					return rt.Unwind(fr)
				}
			}
			fr.PC = 2
			fallthrough
		case 2:
			if !rt.TouchJoin(fr) {
				return core.Unwound
			}
			rt.Reply(fr, 0)
			return core.Done
		}
		panic("em3d.chain: bad pc")
	}
	p.Add(m.chain)

	// chunkRun(phase): run this iteration phase over the chunk's node set.
	// Locals: 0 = next element index.
	m.chunkRun = &core.Method{Name: "em3d.chunkRun", NArgs: 1, NLocals: 1, MayBlockLocal: true}
	m.chunkRun.Body = func(rt *core.RT, fr *core.Frame) core.Status {
		c := fr.Node.State(fr.Self).(*Chunk)
		ph := m.plan[fr.Arg(0).Int()]
		set := c.E
		if ph.set == 1 {
			set = c.H
		}
		switch fr.PC {
		case 0:
			fr.PC = 1
			fallthrough
		case 1:
			for {
				i := int(fr.Local(0).Int())
				if i >= len(set) {
					break
				}
				fr.SetLocal(0, core.IntW(int64(i+1)))
				st := rt.Invoke(fr, ph.meth, set[i], core.JoinDiscard)
				if st == core.NeedUnwind {
					return rt.Unwind(fr)
				}
			}
			fr.PC = 2
			fallthrough
		case 2:
			if !rt.TouchJoin(fr) {
				return core.Unwound
			}
			rt.Reply(fr, 0)
			return core.Done
		}
		panic("em3d.chunkRun: bad pc")
	}
	p.Add(m.chunkRun)

	// The iteration plan per variant. The E phase updates E nodes from H
	// values; for push/forward, sources (H nodes) first deliver values into
	// the E buffers, then E nodes compute locally.
	switch variant {
	case Pull:
		m.plan = []phase{{0, m.compute}, {1, m.compute}}
	case Push:
		m.plan = []phase{{1, m.pushOut}, {0, m.computeLocal}, {0, m.pushOut}, {1, m.computeLocal}}
	case Forward:
		m.plan = []phase{{1, m.chain}, {0, m.computeLocal}, {0, m.chain}, {1, m.computeLocal}}
	}
	// Dedup in plan order, not map-iteration order: the Calls list is
	// simulation state (the analysis edge list and CheckDecls both read it),
	// so its element order must not vary run to run.
	seen := make(map[*core.Method]bool)
	for _, ph := range m.plan {
		if !seen[ph.meth] {
			seen[ph.meth] = true
			m.chunkRun.Calls = append(m.chunkRun.Calls, ph.meth)
		}
	}

	// main(iters): run the plan's phases with a join barrier after each.
	// Locals: 0 = iterations left, 1 = phase index, 2 = next chunk.
	main := &core.Method{Name: "em3d.main", NArgs: 1, NLocals: 3,
		MayBlockLocal: true, Calls: []*core.Method{m.chunkRun}}
	main.Body = func(rt *core.RT, fr *core.Frame) core.Status {
		c := fr.Node.State(fr.Self).(*Coord)
		switch fr.PC {
		case 0:
			fr.SetLocal(0, fr.Arg(0))
			fr.PC = 1
			fallthrough
		case 1:
			for {
				if fr.Local(0).Int() == 0 {
					rt.Reply(fr, 0)
					return core.Done
				}
				ph := fr.Local(1).Int()
				for {
					i := int(fr.Local(2).Int())
					if i >= len(c.Chunks) {
						break
					}
					fr.SetLocal(2, core.IntW(int64(i+1)))
					st := rt.Invoke(fr, m.chunkRun, c.Chunks[i], core.JoinDiscard, core.IntW(ph))
					if st == core.NeedUnwind {
						return rt.Unwind(fr)
					}
				}
				if !rt.TouchJoin(fr) {
					return core.Unwound
				}
				fr.SetLocal(2, 0)
				if int(ph+1) < len(m.plan) {
					fr.SetLocal(1, core.IntW(ph+1))
				} else {
					fr.SetLocal(1, 0)
					fr.SetLocal(0, core.IntW(fr.Local(0).Int()-1))
				}
			}
		}
		panic("em3d.main: bad pc")
	}
	p.Add(main)
	m.Main = main
	return m
}

// Params configures one EM3D run.
type Params struct {
	N               int     // total graph nodes (N/2 E + N/2 H)
	Degree          int     // in-degree of every node
	Iters           int     // iterations (each updates E then H)
	Nodes           int     // processors
	PLocal          float64 // probability an in-edge stays on-processor (blocked placement)
	RandomPlacement bool
	Seed            int64
}

// Result is one EM3D execution's measurements.
type Result struct {
	Seconds       float64
	LocalFraction float64
	Stats         core.NodeStats
	Counters      instr.Counters
	Messages      int64
	Checksum      float64
}

// Graph is the generated problem instance, reusable across runs and by the
// native reference.
type Graph struct {
	Params Params
	Place  []int   // graph node -> processor (E nodes first, then H)
	In     [][]int // in-neighbor graph-node indices
	W      [][]float64
}

// Generate builds a deterministic EM3D graph instance.
func Generate(pr Params) *Graph {
	rng := rand.New(rand.NewSource(pr.Seed))
	half := pr.N / 2
	g := &Graph{Params: pr}
	if pr.RandomPlacement {
		g.Place = layout.Random(pr.N, pr.Nodes, pr.Seed+1)
	} else {
		place := make([]int, pr.N)
		be := layout.Blocked(half, pr.Nodes)
		bh := layout.Blocked(half, pr.Nodes)
		copy(place, be)
		copy(place[half:], bh)
		g.Place = place
	}
	// Per-processor source lists for locality-biased edge selection.
	byProc := make([][]int, pr.Nodes)
	for gi := 0; gi < pr.N; gi++ {
		byProc[g.Place[gi]] = append(byProc[g.Place[gi]], gi)
	}
	sameProcOfType := func(proc, typeLo, typeHi int) []int {
		var out []int
		for _, gi := range byProc[proc] {
			if gi >= typeLo && gi < typeHi {
				out = append(out, gi)
			}
		}
		return out
	}
	g.In = make([][]int, pr.N)
	g.W = make([][]float64, pr.N)
	for gi := 0; gi < pr.N; gi++ {
		srcLo, srcHi := half, pr.N // E nodes draw from H
		if gi >= half {
			srcLo, srcHi = 0, half // H nodes draw from E
		}
		localPool := sameProcOfType(g.Place[gi], srcLo, srcHi)
		for d := 0; d < pr.Degree; d++ {
			var src int
			if !pr.RandomPlacement && len(localPool) > 0 && rng.Float64() < pr.PLocal {
				src = localPool[rng.Intn(len(localPool))]
			} else {
				src = srcLo + rng.Intn(srcHi-srcLo)
			}
			g.In[gi] = append(g.In[gi], src)
			g.W[gi] = append(g.W[gi], weight(gi, d))
		}
	}
	return g
}

func weight(gi, d int) float64 {
	return 0.4 + 0.05*float64((gi*7+d*13)%16)/16.0
}

func initVal(gi int) float64 {
	return float64((gi*37)%1000) / 1000.0
}

// Run executes the variant over the graph under cfg on the given machine.
func Run(mdl *machine.Model, cfg core.Config, variant Variant, g *Graph) Result {
	m := Build(variant)
	if err := m.Prog.Resolve(cfg.Interfaces); err != nil {
		panic(err)
	}
	pr := g.Params
	sys := core.NewSystem(mdl, pr.Nodes, m.Prog, cfg)

	half := pr.N / 2
	nodes := make([]*GNode, pr.N)
	refs := make([]core.Ref, pr.N)
	chunks := make([]*Chunk, pr.Nodes)
	for i := range chunks {
		chunks[i] = &Chunk{}
	}
	for gi := 0; gi < pr.N; gi++ {
		gn := &GNode{Val: initVal(gi)}
		nodes[gi] = gn
		refs[gi] = sys.NewObject(g.Place[gi], gn)
		if gi < half {
			chunks[g.Place[gi]].E = append(chunks[g.Place[gi]].E, refs[gi])
		} else {
			chunks[g.Place[gi]].H = append(chunks[g.Place[gi]].H, refs[gi])
		}
	}
	for gi := 0; gi < pr.N; gi++ {
		gn := nodes[gi]
		gn.W = g.W[gi]
		gn.Buf = make([]float64, len(g.In[gi]))
		for slot, src := range g.In[gi] {
			gn.In = append(gn.In, refs[src])
			nodes[src].Out = append(nodes[src].Out, OutEdge{Dep: refs[gi], Slot: slot})
		}
	}
	coord := &Coord{}
	for n := 0; n < pr.Nodes; n++ {
		coord.Chunks = append(coord.Chunks, sys.NewObject(n, chunks[n]))
	}
	sys.Start(0, m.Main, sys.NewObject(0, coord), core.IntW(int64(pr.Iters)))
	sys.MustRun()
	var sum float64
	for gi := 0; gi < pr.N; gi++ {
		sum += nodes[gi].Val
	}
	return Result{
		Seconds:       sys.Seconds(),
		LocalFraction: sys.LocalFraction(),
		Stats:         sys.Stats(),
		Counters:      sys.Counters(),
		Messages:      sys.Messages(),
		Checksum:      sum,
	}
}

// Native runs the same computation in plain Go and returns the checksum.
func Native(g *Graph) float64 {
	pr := g.Params
	vals := make([]float64, pr.N)
	for gi := range vals {
		vals[gi] = initVal(gi)
	}
	half := pr.N / 2
	update := func(lo, hi int) {
		nv := make([]float64, hi-lo)
		for gi := lo; gi < hi; gi++ {
			var sum float64
			for d, src := range g.In[gi] {
				sum += g.W[gi][d] * vals[src]
			}
			nv[gi-lo] = alpha*vals[gi] + beta*sum
		}
		copy(vals[lo:hi], nv)
	}
	for it := 0; it < pr.Iters; it++ {
		update(0, half)    // E phase reads H (unchanged within the phase)
		update(half, pr.N) // H phase reads updated E
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum
}
