package core

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestTraceCapturesExecutionShape: the trace of a two-node run must show
// the hybrid model's signature events in the quantities NodeStats counts,
// for plain invocations (fib) and for forward chains (ForwardTail), whose
// leaf runs on the stack (node 0) or behind a message (node 1).
func TestTraceCapturesExecutionShape(t *testing.T) {
	cases := []struct {
		name  string
		build func(rt *RT, p *Program, res *Result)
	}{
		{"fib", func(rt *RT, p *Program, res *Result) {
			rt.StartOn(0, p.Lookup("fib"), rt.Node(0).NewObject(nil), res, IntW(12))
		}},
		{"forward-local", func(rt *RT, p *Program, res *Result) {
			leaf := rt.Node(0).NewObject(nil)
			rt.StartOn(0, p.Lookup("chainroot"), rt.Node(0).NewObject(nil), res, IntW(20), RefW(leaf))
		}},
		{"forward-remote", func(rt *RT, p *Program, res *Result) {
			leaf := rt.Node(1).NewObject(nil)
			rt.StartOn(0, p.Lookup("chainroot"), rt.Node(0).NewObject(nil), res, IntW(20), RefW(leaf))
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := NewProgram()
			buildFib(p)
			buildForwardChain(p)
			if err := p.Resolve(Interfaces3); err != nil {
				t.Fatal(err)
			}
			buf := trace.NewBuffer(1 << 18)
			cfg := DefaultHybrid()
			cfg.Tracer = buf

			eng := sim.NewEngine(2)
			rt := NewRT(eng, machine.CM5(), p, cfg)
			var res Result
			c.build(rt, p, &res)
			rt.Run()
			if !res.Done {
				t.Fatal("incomplete")
			}
			s := rt.TotalStats()
			if got := buf.Count(trace.KStackCall); got != s.StackCalls {
				t.Errorf("traced stack calls %d != stats %d", got, s.StackCalls)
			}
			if got := buf.Count(trace.KFallback); got != s.Fallbacks {
				t.Errorf("traced fallbacks %d != stats %d", got, s.Fallbacks)
			}
			if got := buf.Count(trace.KCtxAlloc); got != s.HeapInvokes {
				t.Errorf("traced ctx allocs %d != stats %d", got, s.HeapInvokes)
			}
			if got := buf.Count(trace.KSuspend); got != s.Suspends {
				t.Errorf("traced suspends %d != stats %d", got, s.Suspends)
			}
			// Every invocation shows up.
			if got := buf.Count(trace.KInvoke); got != s.Invokes {
				t.Errorf("traced invokes %d != stats %d", got, s.Invokes)
			}
			// All events are stamped with monotone per-node times.
			last := map[int32]Instr{}
			for _, e := range buf.Events() {
				if e.At < last[e.Node] {
					t.Fatalf("node %d trace time went backwards: %d after %d", e.Node, e.At, last[e.Node])
				}
				last[e.Node] = e.At
			}
		})
	}
}

// TestTraceRemoteRun: messages and wrappers appear for a distributed run.
func TestTraceRemoteRun(t *testing.T) {
	p := NewProgram()
	sum, _ := buildRemoteSum(p)
	if err := p.Resolve(Interfaces3); err != nil {
		t.Fatal(err)
	}
	buf := trace.NewBuffer(0)
	cfg := DefaultHybrid()
	cfg.Tracer = buf
	eng := sim.NewEngine(2)
	rt := NewRT(eng, machine.CM5(), p, cfg)
	driver := rt.Node(0).NewObject(nil)
	a := rt.Node(0).NewObject(&cellState{10})
	b := rt.Node(1).NewObject(&cellState{32})
	var res Result
	rt.StartOn(0, sum, driver, &res, RefW(a), RefW(b))
	rt.Run()
	if !res.Done || res.Val.Int() != 42 {
		t.Fatal("wrong result")
	}
	if buf.Count(trace.KMsgSend) != 2 { // request + reply
		t.Errorf("traced sends = %d, want 2", buf.Count(trace.KMsgSend))
	}
	if buf.Count(trace.KWrapper) != 1 {
		t.Errorf("traced wrappers = %d, want 1", buf.Count(trace.KWrapper))
	}
	per := buf.PerNode(trace.KWrapper)
	if per[1] != 1 {
		t.Errorf("wrapper should have run on node 1: %v", per)
	}
}
