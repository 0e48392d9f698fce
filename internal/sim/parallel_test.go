package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/instr"
)

// withParallel scopes the package defaults to a parallel engine with the
// given shard target for one test body.
func withParallel(t *testing.T, shards int, body func()) {
	t.Helper()
	defer SetDefaultEngine(SetDefaultEngine(EngineParallel))
	defer SetDefaultShards(SetDefaultShards(shards))
	body()
}

// parTranscript runs a ping-pong message storm across all node pairs and
// renders the observable outcome (clocks, counters, message stats, event
// count) so engines can be compared byte-wise at the sim level, with no
// runtime layer on top. run drives the engine to quiescence (nil: Run).
func parTranscript(nodes int, lookahead Time, parallel bool, run func(*Engine)) string {
	eng := NewEngine(nodes)
	fifo := newFifo(eng, 7)
	if parallel {
		if !eng.EnableParallel(lookahead, 1) {
			panic("EnableParallel refused")
		}
	}
	// Each node volleys a message to the next node until the hop budget runs
	// out; several interleaved volleys per node create same-instant collisions
	// between deliveries and local work.
	var volley func(n *Node, hops int)
	volley = func(n *Node, hops int) {
		if hops == 0 {
			return
		}
		to := eng.Node((n.ID + 1) % nodes)
		send(eng, n, to, lookahead+Time(n.ID%3), 4, func() {
			fifo.push(to.ID, func(m *Node) { volley(m, hops-1) })
		})
	}
	for i := 0; i < nodes; i++ {
		n := eng.Node(i)
		for k := 0; k < 3; k++ {
			fifo.push(i, func(m *Node) { volley(m, 40) })
		}
		eng.Wake(n)
	}
	if run == nil {
		run = (*Engine).Run
	}
	run(eng)
	out := fmt.Sprintf("maxclock=%d events=%d msgs=%d\n",
		eng.MaxClock(), eng.EventCount(), eng.TotalMessages())
	for i := 0; i < nodes; i++ {
		n := eng.Node(i)
		out += fmt.Sprintf("node %d clock=%d sent=%d recv=%d\n", i, n.Clock, n.MsgsSent, n.MsgsRecv)
	}
	return out
}

// TestParallelEngineMatchesSerial pins byte-identity at the sim level: the
// sharded engine must produce the same clocks, counts and message statistics
// as the serial oracle for a cross-shard message storm — with even shards,
// uneven ones (3 over 8 nodes), and one node per shard.
func TestParallelEngineMatchesSerial(t *testing.T) {
	const lookahead = 50
	serial := parTranscript(8, lookahead, false, nil)
	for _, shards := range []int{4, 3, 8} {
		withParallel(t, shards, func() {
			if par := parTranscript(8, lookahead, true, func(eng *Engine) {
				if eng.Workers() != shards {
					t.Fatalf("workers = %d, want %d", eng.Workers(), shards)
				}
				eng.Run()
			}); par != serial {
				t.Fatalf("%d shards: parallel transcript diverges:\nserial:\n%s\nparallel:\n%s", shards, serial, par)
			}
		})
	}
}

// awaitGoroutines waits for the goroutine count to fall back to base: a
// stopped worker exits on its own schedule, just after the run returns.
func awaitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d: workers leaked", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestParallelRunUntilSlices drives the parallel engine through many
// RunUntil slices — each starts and stops the worker pool — and checks that
// the result stays byte-identical to the serial oracle's and that no worker
// outlives its slice.
func TestParallelRunUntilSlices(t *testing.T) {
	const lookahead, slice = 50, 137
	serial := parTranscript(8, lookahead, false, nil)
	withParallel(t, 3, func() {
		base := runtime.NumGoroutine()
		slices := 0
		par := parTranscript(8, lookahead, true, func(eng *Engine) {
			for until := Time(slice); eng.RunUntil(until); until += slice {
				slices++
				awaitGoroutines(t, base)
			}
		})
		awaitGoroutines(t, base)
		if slices < 10 {
			t.Fatalf("only %d slices: the run is too short to exercise restarts", slices)
		}
		if par != serial {
			t.Fatalf("sliced parallel transcript diverges:\nserial:\n%s\nparallel:\n%s", serial, par)
		}
	})
}

// TestParallelSendTimeNumbering pins where a delivery's place in the total
// order is fixed: at the send. One event on node 0 sends a cross-leaf packet
// to node 12 and then, after some work, an intra-leaf packet to node 1; both
// arrive at the same instant, and nodes 1 and 12 share a shard at 2 and at 3
// shards. The intra-leaf packet commits inside the window and the cross-leaf
// one at the barrier, so numbering the deliveries when they commit would
// hand node 1 the lower sequence number. The serial engine, and the parallel
// one numbering at the send, deliver to node 12 first.
func TestParallelSendTimeNumbering(t *testing.T) {
	const nodes, group, across, within = 14, 2, 30, 10
	transcript := func(parallel bool, shards int) string {
		eng := NewEngine(nodes)
		fifo := newFifo(eng, 5)
		eng.SetNetDelay(func(from, to, words int, depart, flat Time) Time {
			if from/group == to/group {
				return within
			}
			return across
		})
		if parallel {
			if !eng.EnableParallel(across, group) {
				t.Fatal("EnableParallel refused")
			}
			if eng.Workers() != shards || eng.shardOf(1) != eng.shardOf(12) {
				t.Fatalf("%d workers, nodes 1 and 12 on shards %d and %d: want %d workers and one shard",
					eng.Workers(), eng.shardOf(1), eng.shardOf(12), shards)
			}
		}
		var got []string
		recv := func(to *Node) func() {
			return func() {
				at := to.Now()
				to.Ordered(func() { got = append(got, fmt.Sprintf("node %d received at %d", to.ID, at)) })
			}
		}
		fifo.push(0, func(n *Node) {
			eng.Transmit(n, eng.Node(12), n.Clock, 0, 1, true, Packet{Msg: recv(eng.Node(12))})
			Charge(n, instr.OpWork, across-within)
			eng.Transmit(n, eng.Node(1), n.Clock, 0, 1, true, Packet{Msg: recv(eng.Node(1))})
		})
		eng.Wake(eng.Node(0))
		eng.Run()
		return strings.Join(got, "\n")
	}
	serial := transcript(false, 1)
	if want := "node 12 received at 35\nnode 1 received at 35"; serial != want {
		t.Fatalf("serial transcript:\n%s\nwant:\n%s", serial, want)
	}
	for _, shards := range []int{2, 3} {
		withParallel(t, shards, func() {
			if par := transcript(true, shards); par != serial {
				t.Fatalf("%d shards: receive order diverges:\nserial:\n%s\nparallel:\n%s", shards, serial, par)
			}
		})
	}
}

// TestParallelPartitionBalancesWavefront pins the partition's purpose:
// while a wavefront sweeps node IDs, the shards share the dispatched events
// evenly at every stage of the sweep, not just in total. A range partition
// fails this — the sweep's first half runs on one shard.
func TestParallelPartitionBalancesWavefront(t *testing.T) {
	const nodes, rounds, lookahead = 64, 32, 20
	withParallel(t, 2, func() {
		// Node 0 emits rounds tokens, and every node forwards each token it
		// receives to the next node after one unit of work, so the band of
		// busy nodes moves from low IDs to high ones, as a grid
		// relaxation's activity does.
		eng := NewEngine(nodes)
		fifo := newFifo(eng, 10)
		if !eng.EnableParallel(lookahead, 1) {
			t.Fatal("EnableParallel refused")
		}
		var forward func(n *Node)
		forward = func(n *Node) {
			if n.ID+1 == nodes {
				return
			}
			to := eng.Node(n.ID + 1)
			send(eng, n, to, lookahead, 1, func() {
				fifo.push(to.ID, forward)
			})
		}
		for r := 0; r < rounds; r++ {
			fifo.push(0, forward)
		}
		eng.Wake(eng.Node(0))
		// A token crosses a hop in lookahead+10, so the sweep ends at
		// (nodes-1)*30 + rounds*10; check at each quarter of it.
		end := Time((nodes-1)*30 + rounds*10)
		for _, at := range []Time{end / 4, end / 2, 3 * end / 4, end} {
			eng.RunUntil(at)
			lo, hi := eng.shards[0].eventCount, eng.shards[1].eventCount
			if lo > hi {
				lo, hi = hi, lo
			}
			if float64(hi-lo) > 0.1*float64(hi) {
				t.Errorf("at %d: shard event counts %d and %d differ by more than 10%%",
					at, eng.shards[0].eventCount, eng.shards[1].eventCount)
			}
		}
		if eng.Pending() != 0 || eng.MaxClock() != end {
			t.Fatalf("sweep ended at %d with %d events pending, want %d and none", eng.MaxClock(), eng.Pending(), end)
		}
	})
}

// TestParallelWorkerPanicReachesCaller: a panic in a node event on a worker-owned
// shard must not kill the process. The engine re-raises it on the calling
// goroutine after the window's barrier, so the caller's recover sees it —
// and when several shards panic in one window, it raises the earliest
// event's panic, the one the serial engine hits.
func TestParallelWorkerPanicReachesCaller(t *testing.T) {
	run := func() (r any) {
		const nodes = 4
		eng := NewEngine(nodes)
		fifo := newFifo(eng, 5)
		coordNode, workerNode := 0, -1
		if eng.EnableParallel(50, 1) {
			for i := 0; i < nodes && workerNode < 0; i++ {
				if eng.shardOf(i) != eng.shardOf(coordNode) {
					workerNode = i
				}
			}
		} else {
			workerNode = 1
		}
		// Both panics fall in the first window; the worker's comes first.
		fifo.push(workerNode, func(*Node) { panic("worker shard") })
		fifo.push(coordNode, func(*Node) {})
		fifo.push(coordNode, func(*Node) { panic("coordinator shard") })
		for i := 0; i < nodes; i++ {
			eng.Wake(eng.Node(i))
		}
		defer func() { r = recover() }()
		eng.Run()
		return nil
	}
	want := run()
	if want != "worker shard" {
		t.Fatalf("serial engine recovered %v, want the worker-shard panic", want)
	}
	withParallel(t, 2, func() {
		base := runtime.NumGoroutine()
		if got := run(); got != want {
			t.Fatalf("parallel engine recovered %v, want %v", got, want)
		}
		awaitGoroutines(t, base)
	})
}

// TestTimerStopShardLocal is the regression test for Timer.Stop's
// cancelled-event compaction under concurrent shards: every node arms a pile
// of far-future timers from inside its own window events and cancels them
// there too, on two shards concurrently, while cross-shard traffic keeps
// windows rolling. Stop's counter and compaction sweep must touch only the
// owning shard's queue — the race detector fails this test if they do not —
// and no stopped timer may fire.
func TestTimerStopShardLocal(t *testing.T) {
	withParallel(t, 2, func() {
		const nodes = 4
		eng := NewEngine(nodes)
		fifo := newFifo(eng, 5)
		if !eng.EnableParallel(20, 1) {
			t.Fatal("EnableParallel refused")
		}
		if eng.Workers() != 2 {
			t.Fatalf("workers = %d, want 2", eng.Workers())
		}
		// Each node's partner is the next node on another shard, whatever
		// the partition.
		partner := make([]int, nodes)
		for i := range partner {
			partner[i] = -1
			for k := 1; k < nodes && partner[i] < 0; k++ {
				if j := (i + k) % nodes; eng.shardOf(j) != eng.shardOf(i) {
					partner[i] = j
				}
			}
			if partner[i] < 0 {
				t.Fatalf("node %d has no partner on another shard", i)
			}
		}
		fired := make([]int, nodes)
		for i := 0; i < nodes; i++ {
			fifo.push(i, func(n *Node) {
				// Arm enough dead weight to cross the compaction trigger,
				// then cancel it all within this node's own context.
				timers := make([]*Timer, 3*compactMinQueue)
				for j := range timers {
					timers[j] = n.NewTimer(func() { fired[n.ID]++ })
					timers[j].Reset(1_000_000 + Time(j))
				}
				fifo.push(n.ID, func(m *Node) {
					for _, tm := range timers {
						tm.Stop()
					}
				})
				// Cross-shard sends force real windows around the cancels.
				send(eng, n, eng.Node(partner[n.ID]), 20, 2, func() {})
			})
			eng.Wake(eng.Node(i))
		}
		eng.Run()
		for i, f := range fired {
			if f != 0 {
				t.Fatalf("node %d: %d stopped timers fired", i, f)
			}
		}
		if eng.Pending() != 0 {
			t.Fatalf("%d events pending after Run; cancelled timers not reclaimed", eng.Pending())
		}
		if w := eng.PendingWork(); w != 0 {
			t.Fatalf("PendingWork = %d after quiescence", w)
		}
	})
}

// TestEnableParallelGuards pins EnableParallel's refusals: wrong kind, no
// lookahead, too few nodes or groups — and its panics: after scheduled
// events, and a grouped partition combined with wire faults.
func TestEnableParallelGuards(t *testing.T) {
	if e := NewEngine(8); e.EnableParallel(10, 1) {
		t.Fatal("serial-kind engine accepted EnableParallel")
	}
	withParallel(t, 2, func() {
		if e := NewEngine(8); e.EnableParallel(0, 1) {
			t.Fatal("zero lookahead accepted")
		}
		if e := NewEngine(1); e.EnableParallel(10, 1) {
			t.Fatal("single-node machine accepted")
		}
		if e := NewEngine(8); e.EnableParallel(10, 8) {
			t.Fatal("a machine of one group accepted")
		}
		// Wire-fault draws must all stay in the barrier replay, so a
		// grouped partition refuses them, whichever is installed first.
		wire := &Faults{Seed: 1, Reorder: 0.1, JitterMax: 5}
		mustPanic(t, "SetFaults(wire) on a grouped engine", func() {
			e := NewEngine(8)
			e.EnableParallel(10, 2)
			e.SetFaults(wire)
		})
		mustPanic(t, "grouped EnableParallel under wire faults", func() {
			e := NewEngine(8)
			e.SetFaults(wire)
			e.EnableParallel(10, 2)
		})
		mustPanic(t, "EnableParallel after scheduling", func() {
			e := NewEngine(8)
			e.Schedule(5, func() {})
			e.EnableParallel(10, 1)
		})
	})
}

// mustPanic fails the test unless fn panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}
