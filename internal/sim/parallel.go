// Conservative parallel execution (PDES) for the discrete-event engine.
//
// The parallel engine partitions the simulated nodes into shards — blocks
// of `group` consecutive node IDs dealt round-robin, node i to shard
// (i/group) mod S, each shard owning its nodes' pending events and a
// private portion of the clock — and alternates two phases:
//
//	window:  every shard concurrently dispatches its events with time below a
//	         horizon that no cross-shard message can land under. The calling
//	         goroutine runs shard 0 and S-1 workers run the rest; they meet
//	         at a spinning barrier of atomic counters (see pool). Side effects
//	         that may cross shards (message transmissions, shared observer
//	         sinks) are not performed; they are appended to a per-shard
//	         commit log, stamped with the key of the generating event.
//	barrier: the shard logs are merged, sorted by event key, and replayed
//	         single-threaded — fault draws, topology latencies, and delivery
//	         pushes happen here, in exactly the total order the serial engine
//	         would have used. Global-context events (workload injection,
//	         service generators) also dispatch here, one at a time, whenever
//	         the next global event is not later than the earliest node event.
//
// The horizon for a window starting when the earliest pending node event is
// at p is min(p + L, g), where L is the lookahead and g is the next global
// event. L is a lower bound on the latency of every transmission that
// leaves its group, supplied by the runtime from the machine cost tables.
// Soundness: any event a window dispatches has time >= p, so any message it
// sends out of its group arrives at >= p + L >= horizon; deferred to the
// barrier, the delivery lands outside the window that created it, never
// inside. The engine asserts lat >= L on every such transmission.
// Intra-shard scheduling (timers, pumps, wakes) is exempt from the
// lookahead: it stays inside the owning shard's queue and may land below
// the horizon.
//
// The group is 1 (an interleave, node i on shard i mod S) unless the
// topology groups nodes under leaf switches (machine.LeafNetwork). Then
// group is the leaf size and L is the cheapest cross-leaf route, three
// switch hops on the fat-tree instead of one. A transmission within a leaf
// may be cheaper than L, but its destination is on the sender's shard and
// its latency is a pure function that touches no link state, so it commits
// inside the window: its delivery goes straight into the shard's queue.
// Wire faults keep group at 1: their draws consume one ordered random
// stream and must all happen at the barrier.
//
// Determinism is not statistical but exact: because every event carries the
// total-order key (at, src, seq) computed from per-context counters, and all
// cross-shard effects commit in key order, the parallel engine dispatches
// the identical event sequence as the serial engine — byte-identical traces
// and tables, checked by golden tests against the serial oracle.
package sim

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
)

// EngineKind selects the execution engine.
type EngineKind int

const (
	// EngineSerial is the oracle: one queue, one loop.
	EngineSerial EngineKind = iota
	// EngineParallel shards nodes across goroutines under conservative
	// window synchronization. Requires the runtime to supply a positive
	// lookahead (EnableParallel); configurations without one fall back to
	// serial dispatch (Workers() reports the truth).
	EngineParallel
)

func (k EngineKind) String() string {
	if k == EngineParallel {
		return "parallel"
	}
	return "serial"
}

var (
	defaultEngine = EngineSerial
	defaultShards = 0 // 0 = GOMAXPROCS, capped by maxShards
)

// maxShards bounds the shard count: windows at our scales hold far too few
// events to feed more workers, and the barrier cost grows with each.
const maxShards = 16

// SetDefaultEngine sets the engine kind used by subsequently constructed
// engines and returns the previous default. It is for process startup (flag
// wiring) and test scoping, not concurrent use.
func SetDefaultEngine(k EngineKind) EngineKind {
	prev := defaultEngine
	defaultEngine = k
	return prev
}

// SetDefaultShards sets the shard count used by subsequently constructed
// parallel engines (0 = one per available CPU, capped at maxShards) and
// returns the previous default.
func SetDefaultShards(n int) int {
	prev := defaultShards
	defaultShards = n
	return prev
}

// EngineByName maps flag spellings to engine kinds.
func EngineByName(name string) (EngineKind, bool) {
	switch strings.ToLower(name) {
	case "serial", "":
		return EngineSerial, true
	case "parallel", "pdes":
		return EngineParallel, true
	}
	return EngineSerial, false
}

// Kind returns the engine kind this engine was constructed with.
func (e *Engine) Kind() EngineKind { return e.kind }

// Workers returns the number of goroutines that will dispatch events: the
// shard count when parallel execution is active, 1 otherwise. Benchmarks
// record this so a serial fallback can never masquerade as a parallel win.
func (e *Engine) Workers() int {
	if e.par {
		return len(e.shards)
	}
	return 1
}

// EnableParallel switches a parallel-kind engine into sharded execution.
// The partition deals blocks of group consecutive node IDs to the shards
// round-robin: node i goes to shard (i/group) mod S, and S is capped at the
// number of blocks. lookahead must be a lower bound on the latency of every
// transmission between two different blocks — the runtime derives it from
// the machine cost tables (min of the network and reply latencies, the
// topology's minimum hop cost, or its cheapest cross-leaf route).
//
// With group 1 the lookahead bounds every transmission. With group > 1 a
// transmission within a block may be cheaper; it commits inside the window
// (see Transmit), so the installed topology hook must be a pure function
// for such pairs, and wire faults (Faults.Wire) are refused. Returns false —
// leaving the engine serial — when the engine is not parallel-kind, the
// lookahead is not positive, or the machine has fewer than two blocks to
// shard. Must be called before any events are scheduled.
func (e *Engine) EnableParallel(lookahead Time, group int) bool {
	blocks := (len(e.nodes) + group - 1) / group
	if e.kind != EngineParallel || e.par || lookahead <= 0 || blocks < 2 {
		return false
	}
	if e.Pending() != 0 {
		panic("sim: EnableParallel after events were scheduled")
	}
	if group > 1 && e.Faults().Wire() {
		panic("sim: EnableParallel with group > 1 under wire faults; their draws must stay in the barrier replay")
	}
	target := e.shardTarget
	if target <= 0 {
		target = runtime.GOMAXPROCS(0)
	}
	// Even on one CPU an explicitly requested parallel engine gets real
	// shards: the point of -engine parallel is the execution model (and
	// exercising it under the race detector), not only the host speedup.
	if target < 2 {
		target = 2
	}
	if target > maxShards {
		target = maxShards
	}
	if target > blocks {
		target = blocks
	}
	shards := make([]*shard, target)
	for i := range shards {
		shards[i] = &shard{eng: e, q: newCalendarQueue()}
	}
	// Blocks are dealt round-robin rather than split into S contiguous
	// ranges: activity that sweeps node IDs (a grid wavefront) would sit on
	// one shard at a time under a range partition. The global context keeps
	// its own queue (e.gsh).
	for i, nd := range e.nodes {
		nd.sh = shards[(i/group)%target]
	}
	e.shards = shards
	e.par = true
	e.lookahead = lookahead
	e.group = group
	return true
}

// runWindow dispatches this shard's events strictly below horizon. Called
// by the window's goroutine (see pool) and directly by Step's
// single-threaded round.
func (sh *shard) runWindow(horizon Time) {
	for sh.q.len() > 0 && sh.q.peekAt() < horizon {
		ev := sh.q.pop()
		sh.dispatch(&ev)
	}
}

// guardedWindow is runWindow with any panic captured into sh.panicked, so
// that a panicking event stops its shard, not the process: the coordinating
// goroutine re-raises it after the barrier (raisePanic).
func (sh *shard) guardedWindow(horizon Time) {
	defer func() {
		if r := recover(); r != nil {
			sh.panicked = r
		}
	}()
	sh.runWindow(horizon)
}

// spinYields is how many times a pool waiter re-checks its counter, yielding
// the processor in between, before it parks: about half a millisecond on an
// idle x86 core, where runtime.Gosched costs some 130 ns. That covers the
// usual barrier (replay plus a few global events) and an unbalanced window,
// so back-to-back windows hand off without a futex sleep and wake-up, while
// a longer serial phase parks the waiter instead of burning a core. On a
// single CPU the yield is what lets the other goroutine run.
const spinYields = 4096

// pool runs the windows of one Run/RunUntil. The coordinating goroutine (the
// caller) dispatches shards[0] itself and every other shard has a worker
// goroutine, so S shards take S-1 workers. A window is released by
// publishing its horizon and bumping gen; each worker adds itself to done
// when its shard reaches the horizon. The atomics carry the happens-before
// edges: everything the coordinator wrote before a release is visible to
// the window, and everything a worker wrote in it is visible at the barrier.
type pool struct {
	gen     atomic.Uint32 // release count; the last one may be the stop
	done    atomic.Uint32 // workers finished with the current window
	horizon Time          // the released window's horizon (set before gen)
	stop    bool          // the release tells the workers to exit (set before gen)

	// Waiters that outlast spinYields sleep on cond; parked counts them so
	// that a release or the window's last finish only locks mu when someone
	// sleeps. A waiter increments parked under mu before re-checking its
	// counter, and a signaller changes the counter before reading parked,
	// so no wake-up is lost.
	mu     sync.Mutex
	cond   sync.Cond
	parked atomic.Int32
}

// await returns once v holds want.
func (p *pool) await(v *atomic.Uint32, want uint32) {
	for i := 0; i < spinYields; i++ {
		if v.Load() == want {
			return
		}
		runtime.Gosched()
	}
	p.mu.Lock()
	p.parked.Add(1)
	for v.Load() != want {
		p.cond.Wait()
	}
	p.parked.Add(-1)
	p.mu.Unlock()
}

// wake rouses the parked waiters after a counter changed.
func (p *pool) wake() {
	if p.parked.Load() > 0 {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// work is a worker's loop: one window of sh per release, until the release
// that stops it. Each release ends with the worker counted into done.
func (p *pool) work(sh *shard, workers uint32) {
	for gen := uint32(1); ; gen++ {
		p.await(&p.gen, gen)
		stop := p.stop
		if !stop {
			sh.guardedWindow(p.horizon)
		}
		if p.done.Add(1) == workers {
			p.wake()
		}
		if stop {
			return
		}
	}
}

// release starts the workers on the next window (or on their exit).
func (p *pool) release() {
	p.done.Store(0)
	p.gen.Add(1)
	p.wake()
}

// window runs one window across all shards and returns at its barrier.
func (p *pool) window(shards []*shard, horizon Time) {
	p.horizon = horizon
	p.release()
	shards[0].guardedWindow(horizon)
	p.await(&p.done, uint32(len(shards)-1))
}

func (e *Engine) startWorkers() {
	p := &pool{}
	p.cond.L = &p.mu
	e.pool = p
	for _, sh := range e.shards[1:] {
		go p.work(sh, uint32(len(e.shards)-1))
	}
}

// stopWorkers releases the workers to exit and returns once each has
// acknowledged, so no worker outlives its run.
func (e *Engine) stopWorkers() {
	p := e.pool
	e.pool = nil
	p.stop = true
	p.release()
	p.await(&p.done, uint32(len(e.shards)-1))
}

// raisePanic re-raises, on the coordinating goroutine, a panic captured in
// the last window: the one from the earliest event when several shards
// panicked, which is the panic the serial engine would have hit.
func (e *Engine) raisePanic() {
	var first *shard
	for _, sh := range e.shards {
		if sh.panicked != nil && (first == nil ||
			keyLess(sh.curAt, sh.curSrc, sh.curSeq, first.curAt, first.curSrc, first.curSeq)) {
			first = sh
		}
	}
	if first == nil {
		return
	}
	r := first.panicked
	for _, sh := range e.shards {
		sh.panicked = nil
	}
	panic(r)
}

// nextTimes returns the time of the earliest pending node event (p) and of
// the earliest global event (g), maxTime when none.
func (e *Engine) nextTimes() (p, g Time) {
	p, g = maxTime, maxTime
	for _, sh := range e.shards {
		if sh.q.len() > 0 {
			if at := sh.q.peekAt(); at < p {
				p = at
			}
		}
	}
	if e.gsh.q.len() > 0 {
		g = e.gsh.q.peekAt()
	}
	return p, g
}

// round performs one synchronization round: a single global event when it is
// due (g <= p: at equal times the global context sorts first, src -1), or
// one parallel window otherwise. seq=true runs the window on the calling
// goroutine (Step); otherwise the worker pool is used. Returns false when no
// events at or below limit remain.
func (e *Engine) round(limit Time, seq bool) bool {
	p, g := e.nextTimes()
	if p == maxTime && g == maxTime {
		return false // both queues empty (limit can itself be maxTime)
	}
	if p > limit && g > limit {
		return false
	}
	if g <= p {
		ev := e.gsh.q.pop()
		e.gsh.dispatch(&ev)
		return true
	}
	horizon := p + e.lookahead
	if g < horizon {
		horizon = g
	}
	if limit != maxTime && limit+1 < horizon {
		horizon = limit + 1
	}
	e.phase = phaseWindow
	if seq {
		for _, sh := range e.shards {
			sh.runWindow(horizon)
		}
	} else {
		e.pool.window(e.shards, horizon)
	}
	e.phase = phaseOrdered
	e.raisePanic()
	e.replay()
	return true
}

// replay is the barrier's commit step: merge the shards' deferred side
// effects by the generating event's total-order key and run them
// single-threaded. Each shard's log is already key-sorted (a shard dispatches
// in key order), no key occurs in two shards' logs (a context's events all
// dispatch on one shard), and entries from the same event are contiguous in
// one shard's log — so a k-way merge on the key reproduces the serial
// engine's order, within-event program order included, without sorting.
func (e *Engine) replay() {
	for {
		var next *shard
		for _, sh := range e.shards {
			if sh.logPos == len(sh.log) {
				continue
			}
			if next == nil || logLess(&sh.log[sh.logPos], &next.log[next.logPos]) {
				next = sh
			}
		}
		if next == nil {
			break
		}
		ent := &next.log[next.logPos]
		next.logPos++
		if ent.fn != nil {
			ent.fn()
		} else {
			e.xmit(&ent.x)
		}
	}
	for _, sh := range e.shards {
		clear(sh.log) // drop the packets' and sinks' references
		sh.log, sh.logPos = sh.log[:0], 0
	}
}

// logLess orders log entries by their generating event's key.
func logLess(a, b *logEntry) bool {
	return keyLess(a.at, a.src, a.seq, b.at, b.src, b.seq)
}

// keyLess orders event keys (at, src, seq).
func keyLess(aAt Time, aSrc int32, aSeq uint64, bAt Time, bSrc int32, bSeq uint64) bool {
	if aAt != bAt {
		return aAt < bAt
	}
	if aSrc != bSrc {
		return aSrc < bSrc
	}
	return aSeq < bSeq
}

// runParallel drives rounds until no events at or below limit remain,
// returning true if later events are still pending.
func (e *Engine) runParallel(limit Time) bool {
	e.startWorkers()
	defer e.stopWorkers()
	for e.round(limit, false) {
	}
	return e.Pending() > 0
}

// stepParallel runs one synchronization round on the calling goroutine.
func (e *Engine) stepParallel() bool {
	return e.round(maxTime, true)
}

// shardOf returns the index of the shard owning node id (tests use it to
// construct cross-shard traffic deliberately).
func (e *Engine) shardOf(id int) int {
	for i, sh := range e.shards {
		if e.nodes[id].sh == sh {
			return i
		}
	}
	panic(fmt.Sprintf("sim: node %d has no shard", id))
}
