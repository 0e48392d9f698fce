package core

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// buildRemoteAdd returns a driver that invokes add(x, y) on the object in
// its first argument and replies with the result: one request carrying two
// argument words and one reply.
func buildRemoteAdd(p *Program) (call *Method) {
	add := &Method{Name: "add", NArgs: 2}
	add.Body = func(rt *RT, fr *Frame) Status {
		rt.Work(fr, 2)
		rt.Reply(fr, IntW(fr.Arg(0).Int()+fr.Arg(1).Int()))
		return Done
	}
	p.Add(add)
	call = &Method{Name: "call", NArgs: 1, NFutures: 1, MayBlockLocal: true, Calls: []*Method{add}}
	call.Body = func(rt *RT, fr *Frame) Status {
		switch fr.PC {
		case 0:
			st := rt.Invoke(fr, add, fr.Arg(0).Ref(), 0, IntW(20), IntW(22))
			fr.PC = 1
			if st == NeedUnwind {
				return rt.Unwind(fr)
			}
			fallthrough
		case 1:
			if !rt.TouchAll(fr, Mask(0)) {
				return Unwound
			}
			rt.Reply(fr, fr.Fut(0))
			return Done
		}
		panic("call: bad pc")
	}
	p.Add(call)
	return call
}

// TestRemoteRoundTripAllocs: once a machine has warmed up — frames pooled,
// message free lists stocked, reliable links and their timers created — a
// remote request/reply round trip allocates nothing, with and without the
// reliable layer.
func TestRemoteRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, reliable := range []bool{false, true} {
		p := NewProgram()
		call := buildRemoteAdd(p)
		if err := p.Resolve(Interfaces3); err != nil {
			t.Fatal(err)
		}
		cfg := DefaultHybrid()
		cfg.Reliable = reliable
		rt := NewRT(sim.NewEngine(2), machine.CM5(), p, cfg)
		driver := rt.Node(0).NewObject(nil)
		target := rt.Node(1).NewObject(nil)
		var res Result
		round := func() {
			res = Result{}
			rt.StartOn(0, call, driver, &res, RefW(target))
			rt.Run()
			if !res.Done || res.Val.Int() != 42 {
				t.Fatalf("reliable=%v: round trip result %+v", reliable, res)
			}
		}
		for i := 0; i < 8; i++ {
			round()
		}
		if got := testing.AllocsPerRun(100, round); got != 0 {
			t.Errorf("reliable=%v: %v allocations per round trip, want 0", reliable, got)
		}
		if err := rt.CheckQuiescence(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestArenaBoundedByObjects: a node's object arena grows with the objects
// actually created — within a quarter of them plus one 16-object chunk — so
// a lightly populated node does not pay for a full slab.
func TestArenaBoundedByObjects(t *testing.T) {
	for _, objs := range []int{1, 15, 100, 257, 1000, 5000} {
		rt := NewRT(sim.NewEngine(1), machine.CM5(), NewProgram(), DefaultHybrid())
		n := rt.Node(0)
		for i := 0; i < objs; i++ {
			n.NewObject(nil)
		}
		if limit := objs + objs/4 + 16; n.arena.total > limit {
			t.Errorf("%d objects: arena holds %d slots, want <= %d", objs, n.arena.total, limit)
		}
	}
}
