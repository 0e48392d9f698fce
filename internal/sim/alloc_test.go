package sim

import (
	"testing"

	"repro/internal/instr"
)

// Allocation regressions: after warm-up the engine's steady-state cycles —
// pump, transmit and deliver, timer re-arm, calendar push/pop — must not
// allocate. Run them without -race (its instrumentation allocates):
//
//	go test -count=1 -run Allocs ./internal/sim ./internal/core

// countRunner is an allocation-free work source: RunOne runs one of the
// node's pending unit tasks, and each delivered packet adds one.
type countRunner struct {
	left []int
	cost instr.Instr
}

func (r *countRunner) RunOne(n *Node) bool {
	if r.left[n.ID] == 0 {
		return false
	}
	r.left[n.ID]--
	Charge(n, instr.OpWork, r.cost)
	return true
}

func (r *countRunner) Deliver(n *Node, p Packet) { r.left[n.ID]++ }

func newCountRunner(eng *Engine) *countRunner {
	r := &countRunner{left: make([]int, eng.NumNodes()), cost: 3}
	eng.SetRunner(r)
	return r
}

func assertNoAllocs(t *testing.T, what string, fn func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for i := 0; i < 16; i++ {
		fn() // warm-up: queue slab, bucket array, logs
	}
	if got := testing.AllocsPerRun(200, fn); got != 0 {
		t.Errorf("%s: %v allocations per cycle, want 0", what, got)
	}
}

func TestPumpAllocs(t *testing.T) {
	eng := NewEngine(1)
	r := newCountRunner(eng)
	n := eng.Node(0)
	assertNoAllocs(t, "pump", func() {
		r.left[0] = 8
		eng.Wake(n)
		eng.Run()
	})
}

func TestTransmitDeliverAllocs(t *testing.T) {
	eng := NewEngine(2)
	newCountRunner(eng)
	src, dst := eng.Node(0), eng.Node(1)
	payload := &struct{ v int }{7} // a runtime message stand-in
	assertNoAllocs(t, "transmit/deliver", func() {
		eng.Transmit(src, dst, src.Clock, 100, 4, false, Packet{Msg: payload, Seq: 1})
		eng.Transmit(dst, src, dst.Clock, 50, 2, true, Packet{Msg: payload})
		eng.Run()
	})
}

func TestTimerRearmAllocs(t *testing.T) {
	eng := NewEngine(1)
	newCountRunner(eng)
	n := eng.Node(0)
	fired := 0
	tm := n.NewTimer(func() { fired++ })
	assertNoAllocs(t, "timer re-arm", func() {
		tm.Reset(100)
		tm.Reset(50) // cancels the first arm
		eng.Run()
		tm.Reset(10)
		tm.Stop()
		eng.Run()
	})
	if fired == 0 {
		t.Fatal("timer never fired")
	}
}

// TestCalendarHoldAllocs drives the calendar queue through hold operations
// at a fixed population and through bursts that resize it up and down: once
// the store and bucket array have reached their peak, neither allocates.
func TestCalendarHoldAllocs(t *testing.T) {
	q := newCalendarQueue()
	s := uint64(12345)
	next := func(bound Time) Time {
		s = s*6364136223846793005 + 1442695040888963407
		return Time(s>>33) % bound
	}
	const size = 4096
	var seq uint64
	for i := 0; i < size; i++ {
		seq++
		q.push(event{at: next(4 * size), seq: seq})
	}
	assertNoAllocs(t, "calendar hold", func() {
		for i := 0; i < 64; i++ {
			ev := q.pop()
			seq++
			q.push(event{at: ev.at + 1 + next(4*size), seq: seq})
		}
		at := q.peekAt()
		for i := 0; i < 3*size; i++ { // grow through two resizes...
			seq++
			q.push(event{at: at + next(4*size), seq: seq})
		}
		for i := 0; i < 3*size; i++ { // ...and shrink back
			q.pop()
		}
	})
}
