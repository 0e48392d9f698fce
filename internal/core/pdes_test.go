package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The parallel (PDES) engine's spec is byte-identity with the serial oracle:
// not statistically equivalent runs, the same virtual execution. These tests
// run a cross-node workload under both engines and compare everything
// observable — result, clocks, event counts, per-node statistics, and the
// full trace event stream.

// pdesWorkload runs a wide join (one coordinator fanning out to echo leaves
// spread over every node) under the current engine default and renders the
// complete observable transcript. until > 0 bounds the run at that virtual
// time instead of requiring completion (crash injection can destroy the
// join's frames — that lost work is the modeled behavior, not a bug).
func pdesWorkload(t *testing.T, nodes, leaves int, until sim.Time, mutate func(*Config)) string {
	t.Helper()
	p := NewProgram()
	leaf := mkEcho(p, "pdes.leaf")
	wide := &Method{Name: "pdes.wide", NArgs: 2, NLocals: 1, MayBlockLocal: true, Calls: []*Method{leaf}}
	wide.Body = func(rt *RT, fr *Frame) Status {
		n := fr.Arg(0).Int()
		nn := fr.Arg(1).Int()
		switch fr.PC {
		case 0:
			fr.PC = 1
			fallthrough
		case 1:
			for {
				i := fr.Local(0).Int()
				if i >= n {
					break
				}
				fr.SetLocal(0, IntW(i+1))
				target := Ref{Node: int32(i % nn), Index: 0}
				if st := rt.Invoke(fr, leaf, target, JoinDiscard, IntW(i)); st == NeedUnwind {
					return rt.Unwind(fr)
				}
			}
			fr.PC = 2
			fallthrough
		case 2:
			if !rt.TouchJoin(fr) {
				return Unwound
			}
			rt.Reply(fr, IntW(n))
			return Done
		}
		panic("bad pc")
	}
	p.Add(wide)
	if err := p.Resolve(Interfaces3); err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(nodes)
	buf := trace.NewBuffer(1 << 20)
	cfg := DefaultHybrid()
	cfg.Tracer = buf
	if mutate != nil {
		mutate(&cfg)
	}
	rt := NewRT(eng, machine.CM5(), p, cfg)
	for i := 0; i < nodes; i++ {
		rt.Node(i).NewObject(nil) // index 0 everywhere: the echo target
	}
	driver := rt.Node(0).NewObject(nil)
	var res Result
	rt.StartOn(0, wide, driver, &res, IntW(int64(leaves)), IntW(int64(nodes)))
	if until > 0 {
		rt.RunUntil(until)
	} else {
		rt.Run()
		if !res.Done {
			t.Fatal("wide join did not complete")
		}
		if err := rt.CheckQuiescence(); err != nil {
			t.Fatal(err)
		}
	}

	var out bytes.Buffer
	fmt.Fprintf(&out, "done=%v val=%d maxclock=%d events=%d msgs=%d\n",
		res.Done, res.Val.Int(), eng.MaxClock(), eng.EventCount(), eng.TotalMessages())
	fmt.Fprintf(&out, "stats=%+v\n", rt.TotalStats())
	fmt.Fprintf(&out, "recov=%+v\nfaults=%+v\n", rt.Recov(), eng.FaultStats())
	for _, n := range rt.Nodes {
		fmt.Fprintf(&out, "node %d clock=%d sent=%d recv=%d words=%d counters=%v\n",
			n.ID, n.Sim.Clock, n.Sim.MsgsSent, n.Sim.MsgsRecv, n.Sim.WordsSent, n.Sim.Counters)
	}
	if buf.Dropped != 0 {
		t.Fatalf("trace ring overflowed (%d dropped); grow the buffer", buf.Dropped)
	}
	buf.Each(func(e trace.Event) bool {
		fmt.Fprintf(&out, "%d %d %v %s %d\n", e.At, e.Node, e.Kind, e.Method, e.Aux)
		return true
	})
	return out.String()
}

// pdesCompare runs the workload serial and parallel (at the given shard
// target) and requires byte-identical transcripts.
func pdesCompare(t *testing.T, shards, nodes, leaves int, until sim.Time, mutate func(*Config)) {
	t.Helper()
	serial := pdesWorkload(t, nodes, leaves, until, mutate)

	defer sim.SetDefaultEngine(sim.SetDefaultEngine(sim.EngineParallel))
	defer sim.SetDefaultShards(sim.SetDefaultShards(shards))
	par := pdesWorkload(t, nodes, leaves, until, mutate)

	if par != serial {
		sp := filepath.Join(os.TempDir(), "pdes_serial.txt")
		pp := filepath.Join(os.TempDir(), "pdes_parallel.txt")
		os.WriteFile(sp, []byte(serial), 0o644)
		os.WriteFile(pp, []byte(par), 0o644)
		a, b := diffLine(serial, par)
		t.Fatalf("parallel transcript diverges from serial (full transcripts: %s, %s):\nserial: %s\nparallel: %s",
			sp, pp, a, b)
	}
}

// diffLine returns the first differing line pair of two transcripts.
func diffLine(a, b string) (string, string) {
	al, bl := bytes.Split([]byte(a), []byte("\n")), bytes.Split([]byte(b), []byte("\n"))
	for i := 0; i < len(al) && i < len(bl); i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d: %s", i+1, al[i]), fmt.Sprintf("line %d: %s", i+1, bl[i])
		}
	}
	return fmt.Sprintf("%d lines", len(al)), fmt.Sprintf("%d lines", len(bl))
}

// requireSharded asserts that a parallel-default engine with the given shard
// target runs the given config on exactly workers shards — guarding the
// fallback logic against silently eating a configuration these tests mean
// to cover, and the shard cap against reporting shards it did not make.
func requireSharded(t *testing.T, shards, workers, nodes int, mutate func(*Config)) {
	t.Helper()
	defer sim.SetDefaultEngine(sim.SetDefaultEngine(sim.EngineParallel))
	defer sim.SetDefaultShards(sim.SetDefaultShards(shards))
	p := NewProgram()
	mkEcho(p, "pdes.probe")
	if err := p.Resolve(Interfaces3); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultHybrid()
	if mutate != nil {
		mutate(&cfg)
	}
	eng := sim.NewEngine(nodes)
	NewRT(eng, machine.CM5(), p, cfg)
	if eng.Workers() != workers {
		t.Fatalf("engine runs on %d workers, want %d", eng.Workers(), workers)
	}
}

func TestParallelMatchesSerialFlat(t *testing.T) {
	requireSharded(t, 4, 4, 8, nil)
	pdesCompare(t, 4, 8, 3000, 0, nil)
}

// withFatTree installs a fat-tree of the given radix.
func withFatTree(radix int) func(*Config) {
	return func(c *Config) {
		c.Network = func(nodes int) machine.Network {
			return machine.NewFatTree(nodes, radix, machine.CM5())
		}
	}
}

// TestParallelMatchesSerialFatTree runs the leaf-aligned layout: four
// leaves of four nodes on four shards, a three-hop lookahead, and same-leaf
// deliveries committed inside the window.
func TestParallelMatchesSerialFatTree(t *testing.T) {
	mutate := withFatTree(4)
	requireSharded(t, 4, 4, 16, mutate)
	pdesCompare(t, 4, 16, 3000, 0, mutate)
}

// TestParallelFatTreeLayouts covers the fat-tree configurations at the
// edges of the leaf-aligned layout. Each must match the serial engine byte
// for byte and run on the shard count it reports:
//
//   - a machine within one leaf has no cross-leaf route, so it shards node
//     by node with a one-hop lookahead;
//   - more shards than leaves are capped at one shard per leaf;
//   - wire faults without Reliable (jitter only) keep one node per block
//     and the one-hop lookahead, so every fault draw stays in the replay:
//     8 workers, not the 4 leaves.
func TestParallelFatTreeLayouts(t *testing.T) {
	jitter := func(c *Config) {
		withFatTree(4)(c)
		c.Faults = &sim.Faults{Seed: 3, Reorder: 0.2, JitterMax: 400}
	}
	cases := []struct {
		name                   string
		shards, workers, nodes int
		mutate                 func(*Config)
	}{
		{"one-leaf", 4, 4, 8, withFatTree(8)},
		{"shards>leaves", 8, 4, 16, withFatTree(4)},
		{"wire-faults", 8, 8, 16, jitter},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			requireSharded(t, tc.shards, tc.workers, tc.nodes, tc.mutate)
			pdesCompare(t, tc.shards, tc.nodes, 2000, 0, tc.mutate)
		})
	}
}

// underLeaves is a LeafNetwork that breaks its declared bound: every
// cross-leaf route is one instruction cheaper than MinDelayAcross.
type underLeaves struct{ *machine.FatTree }

func (u underLeaves) Delay(src, dst, words int, depart Instr) Instr {
	if src/u.LeafSize() != dst/u.LeafSize() {
		return u.MinDelayAcross() - 1
	}
	return u.FatTree.Delay(src, dst, words, depart)
}

// TestParallelPanicsOnUndercutLookahead: the lookahead check, narrowed to
// transmissions that leave their leaf, must still catch a topology whose
// cross-leaf latency undercuts the bound the window was sized by. The
// serial engine has no window to break and runs the workload through.
func TestParallelPanicsOnUndercutLookahead(t *testing.T) {
	mutate := func(c *Config) {
		c.Network = func(nodes int) machine.Network {
			return underLeaves{machine.NewFatTree(nodes, 4, machine.CM5())}
		}
	}
	pdesWorkload(t, 16, 300, 0, mutate)
	requireSharded(t, 4, 4, 16, mutate)
	defer sim.SetDefaultEngine(sim.SetDefaultEngine(sim.EngineParallel))
	defer sim.SetDefaultShards(sim.SetDefaultShards(4))
	r := func() (r any) {
		defer func() { r = recover() }()
		pdesWorkload(t, 16, 300, 0, mutate)
		return nil
	}()
	if msg := fmt.Sprint(r); r == nil || !strings.Contains(msg, "below the") {
		t.Fatalf("parallel run under an undercut lookahead recovered %v, want the lookahead panic", r)
	}
}

func TestParallelMatchesSerialFaultsReliable(t *testing.T) {
	mutate := func(c *Config) {
		c.Reliable = true
		c.Faults = &sim.Faults{
			Seed: 11, Drop: 0.03, Dup: 0.02, Reorder: 0.05, JitterMax: 300,
			StallEvery: 40_000, StallLen: 2_000,
			SlowEvery: 55_000, SlowLen: 3_000, SlowFactor: 3,
		}
	}
	requireSharded(t, 4, 4, 8, mutate)
	pdesCompare(t, 4, 8, 1500, 0, mutate)
}

func TestParallelMatchesSerialCrashRecovery(t *testing.T) {
	mutate := func(c *Config) {
		c.Reliable = true
		c.CheckpointPeriod = 20_000
		c.Faults = &sim.Faults{Seed: 5, Drop: 0.01, CrashEvery: 150_000, CrashLen: 6_000}
	}
	requireSharded(t, 4, 4, 8, mutate)
	// Bounded run: crashes can destroy the join's frames, so completion is
	// not guaranteed — the comparison covers everything up to the cutoff.
	pdesCompare(t, 4, 8, 1500, 900_000, mutate)
}

// pdesNoMove is a do-nothing migration policy: its presence alone must force
// the serial fallback.
type pdesNoMove struct{}

func (pdesNoMove) OnAccess(*RT, *NodeRT, *Object, int) (int, bool) { return 0, false }
func (pdesNoMove) Tick(*RT, Instr)                                 {}

// TestParallelFallbacks pins the configurations that must decline sharding:
// migration (cross-shard residence counters) and reliable-over-topology
// (contended latencies needed at send time).
func TestParallelFallbacks(t *testing.T) {
	defer sim.SetDefaultEngine(sim.SetDefaultEngine(sim.EngineParallel))
	p := NewProgram()
	mkEcho(p, "pdes.fb")
	if err := p.Resolve(Interfaces3); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"reliable+fattree", func(c *Config) {
			*c = fatTreeCfg(4)
			c.Reliable = true
		}},
		{"migration", func(c *Config) {
			c.Migration = pdesNoMove{}
		}},
	}
	for _, tc := range cases {
		cfg := DefaultHybrid()
		tc.mutate(&cfg)
		eng := sim.NewEngine(8)
		NewRT(eng, machine.CM5(), p, cfg)
		if eng.Workers() != 1 {
			t.Errorf("%s: engine sharded (workers=%d), want serial fallback", tc.name, eng.Workers())
		}
	}
}
