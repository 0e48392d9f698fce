package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
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

// pdesCompare runs the workload serial and parallel (4 shards) and requires
// byte-identical transcripts — and that the parallel run actually sharded.
func pdesCompare(t *testing.T, nodes, leaves int, until sim.Time, mutate func(*Config)) {
	t.Helper()
	serial := pdesWorkload(t, nodes, leaves, until, mutate)

	defer sim.SetDefaultEngine(sim.SetDefaultEngine(sim.EngineParallel))
	defer sim.SetDefaultShards(sim.SetDefaultShards(4))
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

// requireSharded asserts that a parallel-default engine actually shards for
// the given config — guarding the fallback logic against silently eating a
// configuration these tests mean to cover.
func requireSharded(t *testing.T, nodes int, mutate func(*Config)) {
	t.Helper()
	defer sim.SetDefaultEngine(sim.SetDefaultEngine(sim.EngineParallel))
	defer sim.SetDefaultShards(sim.SetDefaultShards(4))
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
	if eng.Workers() != 4 {
		t.Fatalf("engine did not shard: workers=%d", eng.Workers())
	}
}

func TestParallelMatchesSerialFlat(t *testing.T) {
	requireSharded(t, 8, nil)
	pdesCompare(t, 8, 3000, 0, nil)
}

func TestParallelMatchesSerialFatTree(t *testing.T) {
	mutate := func(c *Config) {
		c.Network = func(nodes int) machine.Network {
			return machine.NewFatTree(nodes, 4, machine.CM5())
		}
	}
	requireSharded(t, 16, mutate)
	pdesCompare(t, 16, 3000, 0, mutate)
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
	requireSharded(t, 8, mutate)
	pdesCompare(t, 8, 1500, 0, mutate)
}

func TestParallelMatchesSerialCrashRecovery(t *testing.T) {
	mutate := func(c *Config) {
		c.Reliable = true
		c.CheckpointPeriod = 20_000
		c.Faults = &sim.Faults{Seed: 5, Drop: 0.01, CrashEvery: 150_000, CrashLen: 6_000}
	}
	requireSharded(t, 8, mutate)
	// Bounded run: crashes can destroy the join's frames, so completion is
	// not guaranteed — the comparison covers everything up to the cutoff.
	pdesCompare(t, 8, 1500, 900_000, mutate)
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
