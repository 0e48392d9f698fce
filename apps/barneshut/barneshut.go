// Package barneshut implements a hierarchical O(N log N) N-body force
// kernel (Barnes & Hut), the class of irregular, dynamic-structure
// application the paper's introduction motivates ("modern algorithms for
// such problems depend increasingly on sophisticated data structures").
// It extends the reproduction beyond the paper's three evaluation kernels.
//
// A quadtree over the bodies is distributed by subtree ownership; the top
// levels are replicated on every node (a locally-essential-tree
// simplification), so a traversal descends locally until it crosses into a
// remote subtree — at which point the visit is a remote invocation and the
// hybrid model's fallback/wrapper machinery takes over. Force contributions
// come back as a single word (two packed float32 components), respecting
// the runtime's one-word reply convention; the native reference uses the
// identical packing, so results compare bit-exactly.
package barneshut

import (
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/instr"
	"repro/internal/layout"
	"repro/internal/machine"
)

// theta is the opening criterion: cells subtending less than this are
// approximated by their center of mass.
const theta = 0.5

// eps softens close encounters.
const eps = 0.05

// visitWork and leafWork charge the arithmetic of one cell visit.
const (
	visitWork instr.Instr = 30
	leafWork  instr.Instr = 45
)

// tnode is the host-side quadtree node (built at setup, immutable during
// the force phase).
type tnode struct {
	x, y, size float64 // region center and side length
	cmx, cmy   float64 // center of mass
	mass       float64
	body       int // body index if leaf, else -1
	children   [4]*tnode
	leaf       bool
	owner      int // owning processor for the distributed cell
	firstBody  int
	depth      int
}

// Cell is the runtime object state for one (possibly replicated) tree cell.
type Cell struct {
	CMX, CMY float64
	Mass     float64
	Size     float64
	Leaf     bool
	Body     int
	Children [4]core.Ref // NilRef where absent
}

// Chunk is the per-node driver: owned bodies and their force accumulators.
type Chunk struct {
	Root   core.Ref // this node's replica of the tree root
	Bodies []int
	X, Y   []float64
	Fx, Fy []float64
}

// Coord drives the computation.
type Coord struct {
	Chunks []core.Ref
}

// Methods bundles the Barnes-Hut program.
type Methods struct {
	Prog       *core.Program
	Main       *core.Method
	visit      *core.Method
	bodyForce  *core.Method
	chunkForce *core.Method
}

// packF2 packs two float32 force components into one word; the native
// reference uses the same representation so comparisons are exact.
func packF2(fx, fy float32) core.Word {
	return core.Word(uint64(math.Float32bits(fx))<<32 | uint64(math.Float32bits(fy)))
}

func unpackF2(w core.Word) (float32, float32) {
	return math.Float32frombits(uint32(w >> 32)), math.Float32frombits(uint32(w))
}

// Build registers the Barnes-Hut methods.
func Build() *Methods {
	p := core.NewProgram()
	m := &Methods{Prog: p}

	// visit(bx, by): return this subtree's force contribution on the body
	// at (bx, by), descending into children when the cell is too close to
	// approximate. Locals: 0 = child cursor. Futures: one per child.
	m.visit = &core.Method{Name: "bh.visit", NArgs: 2, NLocals: 1, NFutures: 4,
		MayBlockLocal: true}
	m.visit.Body = func(rt *core.RT, fr *core.Frame) core.Status {
		c := fr.Node.State(fr.Self).(*Cell)
		bx, by := fr.Arg(0).Float(), fr.Arg(1).Float()
		switch fr.PC {
		case 0:
			dx, dy := c.CMX-bx, c.CMY-by
			d2 := dx*dx + dy*dy
			if c.Leaf || c.Size*c.Size < theta*theta*d2 {
				// Far enough (or a leaf): single interaction.
				if c.Mass == 0 || d2 == 0 {
					rt.Reply(fr, packF2(0, 0))
					return core.Done
				}
				s := c.Mass / ((d2 + eps) * math.Sqrt(d2+eps))
				rt.Work(fr, leafWork)
				rt.Reply(fr, packF2(float32(s*dx), float32(s*dy)))
				return core.Done
			}
			rt.Work(fr, visitWork)
			fr.PC = 1
			fallthrough
		case 1:
			for {
				i := int(fr.Local(0).Int())
				if i >= 4 {
					break
				}
				fr.SetLocal(0, core.IntW(int64(i+1)))
				if c.Children[i].IsNil() {
					continue
				}
				st := rt.Invoke(fr, m.visit, c.Children[i], i, fr.Arg(0), fr.Arg(1))
				if st == core.NeedUnwind {
					return rt.Unwind(fr)
				}
			}
			fr.PC = 2
			fallthrough
		case 2:
			mask := uint64(0)
			for i := 0; i < 4; i++ {
				if !c.Children[i].IsNil() {
					mask |= 1 << uint(i)
				}
			}
			if mask != 0 && !rt.TouchAll(fr, mask) {
				return core.Unwound
			}
			var fx, fy float32
			for i := 0; i < 4; i++ {
				if !c.Children[i].IsNil() {
					cx, cy := unpackF2(fr.Fut(i))
					fx += cx
					fy += cy
				}
			}
			rt.Reply(fr, packF2(fx, fy))
			return core.Done
		}
		panic("bh.visit: bad pc")
	}
	m.visit.Calls = []*core.Method{m.visit}
	p.Add(m.visit)

	// bodyForce(localIdx): one body's traversal from this node's root
	// replica; the result lands in the chunk's accumulators.
	m.bodyForce = &core.Method{Name: "bh.bodyForce", NArgs: 1, NFutures: 1,
		MayBlockLocal: true, Calls: []*core.Method{m.visit}}
	m.bodyForce.Body = func(rt *core.RT, fr *core.Frame) core.Status {
		ch := fr.Node.State(fr.Self).(*Chunk)
		li := int(fr.Arg(0).Int())
		switch fr.PC {
		case 0:
			st := rt.Invoke(fr, m.visit, ch.Root, 0,
				core.FloatW(ch.X[li]), core.FloatW(ch.Y[li]))
			fr.PC = 1
			if st == core.NeedUnwind {
				return rt.Unwind(fr)
			}
			fallthrough
		case 1:
			if !rt.TouchAll(fr, core.Mask(0)) {
				return core.Unwound
			}
			fx, fy := unpackF2(fr.Fut(0))
			ch.Fx[li] = float64(fx)
			ch.Fy[li] = float64(fy)
			rt.Reply(fr, 0)
			return core.Done
		}
		panic("bh.bodyForce: bad pc")
	}
	p.Add(m.bodyForce)

	// chunkForce: traverse for every owned body, join.
	m.chunkForce = &core.Method{Name: "bh.chunkForce", NLocals: 1,
		MayBlockLocal: true, Calls: []*core.Method{m.bodyForce}}
	m.chunkForce.Body = func(rt *core.RT, fr *core.Frame) core.Status {
		ch := fr.Node.State(fr.Self).(*Chunk)
		switch fr.PC {
		case 0:
			fr.PC = 1
			fallthrough
		case 1:
			for {
				i := int(fr.Local(0).Int())
				if i >= len(ch.Bodies) {
					break
				}
				fr.SetLocal(0, core.IntW(int64(i+1)))
				st := rt.Invoke(fr, m.bodyForce, fr.Self, core.JoinDiscard, core.IntW(int64(i)))
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
		panic("bh.chunkForce: bad pc")
	}
	p.Add(m.chunkForce)

	// main: one force phase over all chunks.
	m.Main = &core.Method{Name: "bh.main", NLocals: 1,
		MayBlockLocal: true, Calls: []*core.Method{m.chunkForce}}
	m.Main.Body = func(rt *core.RT, fr *core.Frame) core.Status {
		co := fr.Node.State(fr.Self).(*Coord)
		switch fr.PC {
		case 0:
			fr.PC = 1
			fallthrough
		case 1:
			for {
				i := int(fr.Local(0).Int())
				if i >= len(co.Chunks) {
					break
				}
				fr.SetLocal(0, core.IntW(int64(i+1)))
				st := rt.Invoke(fr, m.chunkForce, co.Chunks[i], core.JoinDiscard)
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
		panic("bh.main: bad pc")
	}
	p.Add(m.Main)
	return m
}

// Params configures one Barnes-Hut run.
type Params struct {
	Bodies   int
	Clusters int
	Box      float64
	Nodes    int
	// RepDepth replicates tree cells of depth < RepDepth on every node.
	RepDepth int
	Spatial  bool // ORB placement of bodies; false = random
	Seed     int64
}

// Instance is a generated problem.
type Instance struct {
	Params Params
	X, Y   []float64
	Mass   []float64
}

// Generate builds a clustered 2-D body distribution.
func Generate(pr Params) *Instance {
	rng := rand.New(rand.NewSource(pr.Seed))
	inst := &Instance{Params: pr}
	side := 1
	for side*side < pr.Clusters {
		side++
	}
	cw := pr.Box / float64(side)
	for i := 0; i < pr.Bodies; i++ {
		c := i % pr.Clusters
		cx := (float64(c%side) + 0.5) * cw
		cy := (float64(c/side) + 0.5) * cw
		x := cx + rng.NormFloat64()*cw*0.12
		y := cy + rng.NormFloat64()*cw*0.12
		inst.X = append(inst.X, clampF(x, pr.Box))
		inst.Y = append(inst.Y, clampF(y, pr.Box))
		inst.Mass = append(inst.Mass, 0.5+rng.Float64())
	}
	return inst
}

func clampF(v, box float64) float64 {
	if v < 0 {
		return 0
	}
	if v > box {
		return box
	}
	return v
}

// buildTree constructs the host-side quadtree.
func buildTree(inst *Instance) *tnode {
	pr := inst.Params
	root := &tnode{x: pr.Box / 2, y: pr.Box / 2, size: pr.Box, body: -1, firstBody: -1}
	for i := 0; i < pr.Bodies; i++ {
		insert(root, inst, i, 0)
	}
	summarize(root, inst)
	return root
}

const maxDepth = 40

func insert(n *tnode, inst *Instance, b, depth int) {
	if n.firstBody < 0 {
		n.firstBody = b
	}
	if n.children == [4]*tnode{} && n.body < 0 && n.mass == 0 && !n.leaf {
		// empty node: become a leaf
		n.leaf = true
		n.body = b
		return
	}
	if n.leaf {
		if depth >= maxDepth {
			// Coincident points: merge masses into this leaf (treated as one).
			return
		}
		// split: reinsert resident body
		old := n.body
		n.leaf = false
		n.body = -1
		insertChild(n, inst, old, depth)
	}
	insertChild(n, inst, b, depth)
}

func insertChild(n *tnode, inst *Instance, b, depth int) {
	q := quadrant(n, inst.X[b], inst.Y[b])
	if n.children[q] == nil {
		h := n.size / 4
		cx := n.x + h*float64(2*(q&1)-1)
		cy := n.y + h*float64(2*(q>>1)-1)
		n.children[q] = &tnode{x: cx, y: cy, size: n.size / 2, body: -1, firstBody: -1, depth: depth + 1}
	}
	insert(n.children[q], inst, b, depth+1)
}

func quadrant(n *tnode, x, y float64) int {
	q := 0
	if x >= n.x {
		q |= 1
	}
	if y >= n.y {
		q |= 2
	}
	return q
}

func summarize(n *tnode, inst *Instance) {
	if n.leaf {
		n.mass = inst.Mass[n.body]
		n.cmx = inst.X[n.body]
		n.cmy = inst.Y[n.body]
		return
	}
	for _, c := range n.children {
		if c == nil {
			continue
		}
		summarize(c, inst)
		n.mass += c.mass
		n.cmx += c.cmx * c.mass
		n.cmy += c.cmy * c.mass
	}
	if n.mass > 0 {
		n.cmx /= n.mass
		n.cmy /= n.mass
	}
}

// Result is one execution's measurements.
type Result struct {
	Seconds       float64
	LocalFraction float64
	Stats         core.NodeStats
	Messages      int64
	Fx, Fy        []float64 // per body
}

// Run executes one force phase under cfg on the given machine.
func Run(mdl *machine.Model, cfg core.Config, inst *Instance) Result {
	m := Build()
	if err := m.Prog.Resolve(cfg.Interfaces); err != nil {
		panic(err)
	}
	pr := inst.Params
	sys := core.NewSystem(mdl, pr.Nodes, m.Prog, cfg)

	// Body placement.
	var assign []int
	if pr.Spatial {
		pts := make([]layout.Point3, pr.Bodies)
		for i := range pts {
			pts[i] = layout.Point3{X: inst.X[i], Y: inst.Y[i]}
		}
		assign = layout.ORB(pts, pr.Nodes)
	} else {
		assign = layout.Random(pr.Bodies, pr.Nodes, pr.Seed+13)
	}

	chunks := make([]*Chunk, pr.Nodes)
	chunkRefs := make([]core.Ref, pr.Nodes)
	for n := range chunks {
		chunks[n] = &Chunk{}
		chunkRefs[n] = sys.NewObject(n, chunks[n])
	}
	localIdx := make([]int, pr.Bodies)
	for b := 0; b < pr.Bodies; b++ {
		c := chunks[assign[b]]
		localIdx[b] = len(c.Bodies)
		c.Bodies = append(c.Bodies, b)
		c.X = append(c.X, inst.X[b])
		c.Y = append(c.Y, inst.Y[b])
		c.Fx = append(c.Fx, 0)
		c.Fy = append(c.Fy, 0)
	}

	// Tree placement: deep cells live on the node owning their subtree's
	// first body; cells above RepDepth are replicated per node.
	root := buildTree(inst)
	markOwners(root, assign)
	replicaRoots := placeTree(sys, root, pr)
	for n := range chunks {
		chunks[n].Root = replicaRoots[n]
	}

	sys.Start(0, m.Main, sys.NewObject(0, &Coord{Chunks: chunkRefs}))
	sys.MustRun()

	out := Result{
		Seconds:       sys.Seconds(),
		LocalFraction: sys.LocalFraction(),
		Stats:         sys.Stats(),
		Messages:      sys.Messages(),
		Fx:            make([]float64, pr.Bodies),
		Fy:            make([]float64, pr.Bodies),
	}
	for n := range chunks {
		for li, b := range chunks[n].Bodies {
			out.Fx[b] = chunks[n].Fx[li]
			out.Fy[b] = chunks[n].Fy[li]
		}
	}
	return out
}

func markOwners(n *tnode, assign []int) {
	if n == nil {
		return
	}
	if n.firstBody >= 0 {
		n.owner = assign[n.firstBody]
	}
	for _, c := range n.children {
		markOwners(c, assign)
	}
}

// placeTree instantiates cells as runtime objects: replicated above
// RepDepth (returning per-node root replicas), singly-owned below.
func placeTree(sys *core.System, root *tnode, pr Params) []core.Ref {
	deepRefs := map[*tnode]core.Ref{}
	var placeDeep func(n *tnode) core.Ref
	placeDeep = func(n *tnode) core.Ref {
		if n == nil {
			return core.NilRef
		}
		if r, ok := deepRefs[n]; ok {
			return r
		}
		cell := &Cell{CMX: n.cmx, CMY: n.cmy, Mass: n.mass, Size: n.size,
			Leaf: n.leaf, Body: n.body}
		ref := sys.NewObject(n.owner, cell)
		deepRefs[n] = ref
		for i, c := range n.children {
			cell.Children[i] = placeDeep(c)
		}
		return ref
	}

	roots := make([]core.Ref, pr.Nodes)
	for nd := 0; nd < pr.Nodes; nd++ {
		var placeRep func(n *tnode) core.Ref
		placeRep = func(n *tnode) core.Ref {
			if n == nil {
				return core.NilRef
			}
			if n.depth >= pr.RepDepth {
				return placeDeep(n)
			}
			cell := &Cell{CMX: n.cmx, CMY: n.cmy, Mass: n.mass, Size: n.size,
				Leaf: n.leaf, Body: n.body}
			ref := sys.NewObject(nd, cell)
			for i, c := range n.children {
				cell.Children[i] = placeRep(c)
			}
			return ref
		}
		roots[nd] = placeRep(root)
	}
	return roots
}

// Native computes the same forces with the same traversal and packing.
func Native(inst *Instance) ([]float64, []float64) {
	root := buildTree(inst)
	fx := make([]float64, inst.Params.Bodies)
	fy := make([]float64, inst.Params.Bodies)
	var visit func(n *tnode, bx, by float64) (float32, float32)
	visit = func(n *tnode, bx, by float64) (float32, float32) {
		dx, dy := n.cmx-bx, n.cmy-by
		d2 := dx*dx + dy*dy
		if n.leaf || n.size*n.size < theta*theta*d2 {
			if n.mass == 0 || d2 == 0 {
				return 0, 0
			}
			s := n.mass / ((d2 + eps) * math.Sqrt(d2+eps))
			return float32(s * dx), float32(s * dy)
		}
		var sx, sy float32
		for _, c := range n.children {
			if c != nil {
				cx, cy := visit(c, bx, by)
				sx += cx
				sy += cy
			}
		}
		return sx, sy
	}
	for b := 0; b < inst.Params.Bodies; b++ {
		x, y := visit(root, inst.X[b], inst.Y[b])
		fx[b] = float64(x)
		fy[b] = float64(y)
	}
	return fx, fy
}
