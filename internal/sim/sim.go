// Package sim implements a deterministic discrete-event simulator of a
// distributed-memory multicomputer. It stands in for the paper's CM-5 and
// T3D: each node is a sequential processor with its own virtual clock
// (measured in instructions, see package instr), and nodes exchange messages
// over a network with configurable latency.
//
// The engine is fully deterministic: events are totally ordered by
// (time, context, per-context sequence), so identical inputs always produce
// identical virtual executions regardless of the host machine. Two execution
// engines dispatch that identical order: the serial engine (the oracle — one
// event queue, one loop) and a conservative parallel engine (see parallel.go)
// that shards the nodes across goroutines and synchronizes on windows derived
// from the minimum network latency. Results are byte-identical either way;
// the choice is host-side performance only (the -engine flag).
//
// The division of labor with the runtime (internal/core) is: sim owns
// virtual time, event dispatch, and message transport timing; the runtime
// owns what a node *does* when it has work (scheduling contexts, running
// message handlers). The runtime plugs in as a Runner.
package sim

import (
	"fmt"
	"math"

	"repro/internal/instr"
)

// Time is virtual time, in instructions (single-issue processors).
type Time = instr.Instr

// Runner is the per-node work source supplied by the runtime layer.
type Runner interface {
	// RunOne executes the next pending task on node n — a message handler
	// or a ready context — advancing n.Clock and charging n.Counters.
	// It returns false if the node has no pending work.
	RunOne(n *Node) bool
}

// Receiver accepts packet deliveries: the engine calls Deliver once per
// physical arrival of a transmission (see Transmit), at arrival time, in the
// destination's context, and then wakes the destination. A Runner that also
// implements Receiver becomes the engine's receiver when installed with
// SetRunner; a runner that does not — an instrumenting wrapper around the
// runtime's — leaves the installed receiver in place.
type Receiver interface {
	Deliver(n *Node, p Packet)
}

// Packet is what one transmission carries to its destination: the runtime's
// message and the reliable layer's link stamp. The engine never looks inside
// Msg (any pointer-shaped value is carried without allocating); From, the
// sending node, is filled in at delivery.
type Packet struct {
	Msg   any
	Seq   uint64
	Epoch int32
	From  int32
}

// Node is one simulated processor.
type Node struct {
	ID    int
	Clock Time // this processor's virtual time
	// Counters records where this node's instructions went.
	Counters instr.Counters

	// Message statistics.
	MsgsSent  int64
	MsgsRecv  int64
	WordsSent int64

	eng         *Engine
	sh          *shard // the shard owning this node's events
	pumpPending bool

	// ctxSeq numbers events scheduled in this node's context (pumps, wakes,
	// timers); xmitSeq numbers transmissions sent by this node, at the send
	// (see Transmit). Separate per-context counters — instead of one
	// engine-global insertion sequence — make the total event order
	// (at, src, seq) computable identically by the serial and the parallel
	// engine: a context's events are numbered by that context's own
	// progress, which both engines advance at the same points of the total
	// order.
	ctxSeq  uint64
	xmitSeq uint64

	// Fault-injection windows (see faults.go). stallUntil freezes the node
	// until that time; slowUntil/slowFactor multiply every charged
	// instruction during a brown-out; downUntil marks a fail-stop crash
	// window during which every arriving message is lost.
	stallUntil Time
	slowUntil  Time
	slowFactor int
	downUntil  Time
}

// Down reports whether the node is inside a fail-stop crash window at the
// current event time.
func (n *Node) Down() bool { return n.downUntil > n.Now() }

// Now returns the current event time in this node's context: the owning
// shard's clock while a parallel window executes, the engine's global event
// time otherwise. On the serial engine both are the same quantity.
func (n *Node) Now() Time {
	if n.eng.phase == phaseWindow {
		return n.sh.now
	}
	return n.eng.gsh.now
}

// shard owns a partition of the nodes: their pending events, their portion
// of the event-time clock, and the bookkeeping the engine used to keep
// globally. The serial engine is the degenerate case of exactly one shard
// holding every node and the global context.
type shard struct {
	eng *Engine
	q   *calendarQueue
	now Time

	// Key of the event currently dispatching, stamped onto ordered-commit
	// log entries so cross-shard side effects replay in total order.
	curAt  Time
	curSrc int32
	curSeq uint64

	servicePending   int
	cancelledPending int
	eventCount       int64
	crashDrops       int64

	// log accumulates this shard's deferred side effects during a parallel
	// window (message transmissions, observer sinks); the barrier merges the
	// shards' logs by event key and replays them single-threaded. Unused by
	// the serial engine, which executes the same effects inline at the same
	// points of the total order.
	log    []logEntry
	logPos int // the barrier's merge cursor into log

	// panicked holds a panic recovered from this shard's window, for the
	// coordinating goroutine to re-raise after the barrier (see pool).
	panicked any
}

// logEntry is one deferred side effect, stamped with the key of the event
// that generated it: an observer sink deferred by Node.Ordered (fn), or —
// when fn is nil — one transmission, recorded as plain data.
type logEntry struct {
	at  Time
	src int32
	seq uint64
	fn  func()
	x   xmit
}

// xmit is one transmission as captured at the send instruction: the
// endpoints, departure and latency, the sender's transmission number n
// (which orders its deliveries), and the two clocks the ordered half
// needs — base, the event time of the send (the arrival clamp floor), and
// clk, the sender's clock then (the timestamp of any injected fault).
type xmit struct {
	from, to  *Node
	depart    Time
	lat       Time
	base, clk Time
	n         uint64
	words     int
	routed    bool
	p         Packet
}

// Execution phases. The serial engine stays in phaseOrdered forever: every
// event dispatch is already in total order, so side effects run inline. The
// parallel engine alternates phaseWindow (shards dispatching concurrently —
// side effects must defer to the log) with phaseOrdered (global events,
// barrier replay — single-threaded in total order).
const (
	phaseOrdered = iota
	phaseWindow
)

// NetDelayFunc computes the transport latency of one physical transmission:
// the runtime installs its topology model here (SetNetDelay) so the engine
// can evaluate contention-dependent latencies inside the ordered commit
// phase, where shared link state is safe to touch.
type NetDelayFunc func(from, to, words int, depart, flat Time) Time

// Engine is the discrete-event core.
type Engine struct {
	nodes []*Node

	// gsh holds the global context: host-scheduled events (Schedule,
	// AfterFunc, ScheduleService) stamped src = srcGlobal. On the serial
	// engine it is also shards[0] — the single queue holding everything.
	gsh    *shard
	shards []*shard
	gseq   uint64

	runner Runner
	recv   Receiver

	// kind is the requested engine (see SetDefaultEngine); par reports that
	// parallel execution is actually enabled (EnableParallel succeeded).
	kind        EngineKind
	shardTarget int
	par         bool
	phase       uint8
	lookahead   Time
	// group is the parallel partition's block size (see EnableParallel):
	// above 1, a transmission between two nodes of one group commits
	// inside the window on the owning shard.
	group   int
	netHook NetDelayFunc

	// Worker pool of the running parallel Run/RunUntil (see parallel.go).
	pool *pool

	// Fault injection (nil when fault-free; see faults.go).
	faults     *faultState
	faultStats FaultStats

	// chargeObs, if set, observes every clock advance (see SetChargeObserver).
	chargeObs ChargeObserver
}

// NewEngine creates an engine with n nodes, all clocks at zero. The engine
// kind is chosen by SetDefaultEngine; a parallel-kind engine still
// dispatches serially until the runtime calls EnableParallel with a
// positive lookahead.
func NewEngine(n int) *Engine {
	e := &Engine{
		nodes:       make([]*Node, n),
		kind:        defaultEngine,
		shardTarget: defaultShards,
	}
	sh := &shard{eng: e, q: newCalendarQueue()}
	e.gsh = sh
	e.shards = []*shard{sh}
	for i := range e.nodes {
		e.nodes[i] = &Node{ID: i, eng: e, sh: sh}
	}
	return e
}

// SetRunner installs the work source shared by all nodes. It must be set
// before Run. If r also implements Receiver it becomes the packet receiver.
func (e *Engine) SetRunner(r Runner) {
	e.runner = r
	if rc, ok := r.(Receiver); ok {
		e.recv = rc
	}
}

// SetNetDelay installs the topology-latency hook applied to every routed
// transmission (see Transmit). The engine calls it in ordered-commit context —
// serially, in total event order — so implementations may mutate shared
// contention state (link busy times) without synchronization.
func (e *Engine) SetNetDelay(hook NetDelayFunc) { e.netHook = hook }

// ChargeObserver observes one virtual-clock advance on one node: the clock
// value before the advance, the accounting category, and the cost applied
// (post any brown-out multiplier). Every clock mutation — Charge and the
// pump's idle accounting — is reported, so per node the observed costs are
// contiguous and sum exactly to the final clock. Observers must not charge
// or schedule; they exist so an observability layer can attribute cycles
// without perturbing the simulation. Under the parallel engine the observer
// is called from shard goroutines inside windows: implementations that
// record into shared state must defer the recording through Node.Ordered
// (the runtime's metrics installer does).
type ChargeObserver func(node int, op instr.Op, start Time, cost Time)

// SetChargeObserver installs obs (nil removes it). Install before Run.
func (e *Engine) SetChargeObserver(obs ChargeObserver) { e.chargeObs = obs }

// Nodes returns the simulated nodes.
func (e *Engine) Nodes() []*Node { return e.nodes }

// Node returns node i.
func (e *Engine) Node(i int) *Node { return e.nodes[i] }

// NumNodes returns the machine size.
func (e *Engine) NumNodes() int { return len(e.nodes) }

// Now returns the engine's current global event time. Individual node clocks
// may be ahead of it (a node executes a whole task within one event); during
// a parallel window individual shard clocks advance past it — node-context
// code must use Node.Now.
func (e *Engine) Now() Time { return e.gsh.now }

// EventCount returns the total number of events dispatched.
func (e *Engine) EventCount() int64 {
	c := e.gsh.eventCount
	for _, sh := range e.shards {
		if sh != e.gsh {
			c += sh.eventCount
		}
	}
	return c
}

// push inserts one event into the shard's queue.
func (sh *shard) push(ev event) {
	if ev.service {
		sh.servicePending++
	}
	sh.q.push(ev)
}

// dispatch runs one event: advances the shard clock, settles timer and
// service bookkeeping, and performs the event's action with its key current
// (for ordered-log stamping).
func (sh *shard) dispatch(ev *event) {
	if ev.service {
		sh.servicePending--
	}
	sh.now = ev.at
	sh.curAt, sh.curSrc, sh.curSeq = ev.at, ev.src, ev.seq
	sh.eventCount++
	e := sh.eng
	switch ev.kind {
	case evPump:
		e.pump(e.nodes[ev.node])
	case evDeliver:
		e.arrive(e.nodes[ev.node], ev)
	case evTimer:
		if ev.cancelled() {
			// A cancelled timer that escaped compaction: its slot pops here,
			// advancing event time but running nothing.
			sh.cancelledPending--
			return
		}
		ev.timer.fired = true
		ev.timer.fn()
	default:
		ev.fn()
	}
}

// Schedule registers fn to run at virtual time at, in the global context
// (host setup, workload injection, service generators). Scheduling in the
// past is a programming error and panics: it would break determinism. Under
// the parallel engine the global context must not be touched from inside a
// window — node-context code schedules through timers and Wake.
func (e *Engine) Schedule(at Time, fn func()) {
	e.pushGlobal(event{at: at, fn: fn})
}

// ScheduleService registers a service event: a periodic tick (migration
// heartbeat, fault-window generator) that must not keep the machine alive on
// its own. PendingWork excludes service events, so services that reschedule
// only while PendingWork() > 0 cannot sustain each other indefinitely.
func (e *Engine) ScheduleService(at Time, fn func()) {
	e.pushGlobal(event{at: at, fn: fn, service: true})
}

func (e *Engine) pushGlobal(ev event) {
	if e.phase == phaseWindow {
		panic("sim: global-context schedule from inside a parallel window")
	}
	if ev.at < e.gsh.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", ev.at, e.gsh.now))
	}
	e.gseq++
	ev.src, ev.seq = srcGlobal, e.gseq
	e.gsh.push(ev)
}

// schedule queues ev in node n's context: the event is stamped with n's
// identity and n's own sequence counter, which both engines advance at the
// same points of the total order.
func (n *Node) schedule(ev event) {
	if ev.at < n.Now() {
		panic(fmt.Sprintf("sim: node %d schedule at %d before now %d", n.ID, ev.at, n.Now()))
	}
	n.ctxSeq++
	ev.src, ev.seq = int32(n.ID), n.ctxSeq
	n.sh.push(ev)
}

// Timer is a cancellable scheduled callback. Engine.AfterFunc arms a fresh
// global-context timer once; Node.NewTimer makes a reusable node timer that
// its owner re-arms with Reset — the runtime's per-link retransmit and
// delayed-ack timers, which arm and cancel on nearly every frame without
// allocating. Each arm is one timer event in the owner's context; the event
// records the arm's generation, so an event left behind by a cancelled or
// superseded arm is recognizably dead.
type Timer struct {
	sh   *shard
	node *Node // owning node; nil for a global-context timer
	fn   func()
	gen  uint64 // the current arm
	// stopped marks the current arm cancelled; fired marks it run (a new
	// reusable timer starts fired: nothing is pending).
	stopped bool
	fired   bool
}

// Stop cancels the timer. Stopping an already-fired (or already-stopped)
// timer is a no-op. The cancelled event usually stays in the queue until its
// time comes (running nothing, advancing no node clock, and not counting as
// pending work — PendingWork excludes cancelled timers, so a stopped
// retransmit timer cannot spuriously sustain a periodic service past
// quiescence). Once cancelled timers exceed half their shard's queue the
// queue is compacted in place, so at scale dead retransmit timers are
// bounded dead weight, not unbounded.
//
// Compaction is shard-local: the trigger counter, the sweep, and the queue
// all belong to the shard that owns the timer, so one shard compacting
// cannot reorder (or even observe) another shard's pending events. Stop must
// be called from the timer's owning context — the owning node's events or
// the global phase — which is where every runtime call site already lives;
// a cross-shard Stop inside a window would be a data race by construction
// and is caught by the race detector.
func (t *Timer) Stop() {
	if t.stopped || t.fired {
		return
	}
	t.stopped = true
	t.sh.cancelledPending++
	t.sh.maybeCompact()
}

// Pending reports whether the timer is armed: neither fired nor stopped.
func (t *Timer) Pending() bool { return !t.stopped && !t.fired }

// Reset arms the timer to fire after delay (from the current event time)
// in its node's context, cancelling the pending arm first, if any. Only
// node timers (Node.NewTimer) can be reset.
func (t *Timer) Reset(delay Time) {
	t.Stop()
	if delay < 0 {
		delay = 0
	}
	n := t.node
	t.sh = n.sh
	t.gen++
	t.stopped, t.fired = false, false
	n.schedule(event{at: n.Now() + delay, kind: evTimer, timer: t, aux: t.gen})
}

// NewTimer returns an unarmed timer that runs fn in this node's context
// each time an arm fires (see Reset).
func (n *Node) NewTimer(fn func()) *Timer {
	return &Timer{sh: n.sh, node: n, fn: fn, fired: true}
}

// AfterFunc schedules fn to run after delay in the global context. Node-side
// timers (retransmissions, delayed acks, flush windows) use Node timers.
func (e *Engine) AfterFunc(delay Time, fn func()) *Timer {
	if delay < 0 {
		delay = 0
	}
	t := &Timer{sh: e.gsh, fn: fn}
	e.pushGlobal(event{at: e.gsh.now + delay, kind: evTimer, timer: t})
	return t
}

// Ordered defers fn to the engine's next ordered-commit point when called
// from inside a parallel window, and runs it inline otherwise. Deferred
// functions replay single-threaded in total event order, keyed by the event
// that called Ordered — so sinks shared across nodes (trace buffers, metrics
// registries, application-level accounting) observe the identical sequence
// under both engines. On the serial engine this is always an inline call:
// the serial path pays no closure or log cost beyond this method.
func (n *Node) Ordered(fn func()) {
	if n.eng.phase == phaseWindow {
		sh := n.sh
		sh.log = append(sh.log, logEntry{at: sh.curAt, src: sh.curSrc, seq: sh.curSeq, fn: fn})
		return
	}
	fn()
}

// compactMinQueue: below this queue length compaction is not worth the
// rebuild; the dead slots pop out soon enough on their own.
const compactMinQueue = 64

// maybeCompact removes cancelled-timer events from the shard's queue in
// place when they outnumber the live events. The trigger and the removal are
// functions of (queue contents, cancel order) only, so determinism is
// unaffected.
func (sh *shard) maybeCompact() {
	n := sh.q.len()
	if n < compactMinQueue || sh.cancelledPending <= n/2 {
		return
	}
	removed := sh.q.compact((*event).cancelled)
	sh.cancelledPending -= removed
}

// Wake ensures node n will get a chance to run pending work. If a pump is
// already scheduled for n this is a no-op; otherwise a pump event is
// scheduled at the node's current clock (or now, whichever is later), in n's
// own context.
func (e *Engine) Wake(n *Node) {
	if n.pumpPending {
		return
	}
	n.pumpPending = true
	at := n.Now()
	if n.Clock > at {
		at = n.Clock
	}
	n.schedule(event{at: at, kind: evPump, node: int32(n.ID)})
}

// pump runs exactly one task on n, then reschedules itself while work
// remains. Idle time (clock behind event time) is charged to OpIdle.
// A node inside a full-stall window executes nothing until the window ends:
// its pump is deferred to the window edge and arrived work queues up.
func (e *Engine) pump(n *Node) {
	n.pumpPending = false
	now := n.sh.now
	if n.stallUntil > now {
		// Deferred as a service event: the stalled pump will still run at
		// the window edge, but must not count as pending real work (the
		// window generator would see it and keep opening windows forever).
		n.pumpPending = true
		n.schedule(event{at: n.stallUntil, kind: evPump, node: int32(n.ID), service: true})
		return
	}
	if n.Clock < now {
		if e.chargeObs != nil {
			e.chargeObs(n.ID, instr.OpIdle, n.Clock, now-n.Clock)
		}
		n.Counters.Add(instr.OpIdle, now-n.Clock)
		n.Clock = now
	}
	if e.runner.RunOne(n) {
		n.pumpPending = true
		at := n.Clock
		if at < now {
			at = now
		}
		n.schedule(event{at: at, kind: evPump, node: int32(n.ID)})
	}
}

// Transmit sends packet p from node `from` to node `to`: it departs at
// depart and arrives lat later. With routed set, lat is the flat fallback
// and the installed topology hook (SetNetDelay) computes the final latency
// at the ordered-commit point — in total event order, where shared
// link-contention state is safe. Original sends depart at the sender's
// clock; timer-driven NIC-level traffic (acks, retransmissions) departs at
// the current event time, not serialized behind whatever the node's CPU is
// executing. At arrival the installed Receiver gets the packet and the
// destination is woken. Payload words are counted for statistics only;
// serialization costs are charged by the runtime layer.
//
// Sender statistics and the sender's transmission number are charged
// immediately (they are sender-local); the transmission itself — fault
// draws, topology latency, the delivery push — goes through the
// ordered-commit point: inline on the serial engine, deferred to the
// barrier under a parallel window. The one exception is a transmission
// within a partition group of a leaf-aligned parallel engine (group > 1,
// see EnableParallel): its latency is pure and its destination is on the
// sender's shard, so it commits inside the window. The sender's clock, the
// event time and the transmission number are captured here, at the send
// instruction, so deferred processing observes the values the serial
// engine would have, and one sender's in-window and deferred deliveries
// keep its send order.
func (e *Engine) Transmit(from, to *Node, depart, lat Time, words int, routed bool, p Packet) {
	from.MsgsSent++
	from.WordsSent += int64(words)
	from.xmitSeq++
	x := xmit{from: from, to: to, depart: depart, lat: lat, clk: from.Clock, n: from.xmitSeq, words: words, routed: routed, p: p}
	if e.phase == phaseWindow {
		sh := from.sh
		x.base = sh.now
		if e.inGroup(from, to) {
			if to.sh != sh {
				panic(fmt.Sprintf("sim: in-window delivery from node %d would land on node %d's shard, not the sender's", from.ID, to.ID))
			}
			e.xmit(&x)
			return
		}
		sh.log = append(sh.log, logEntry{at: sh.curAt, src: sh.curSrc, seq: sh.curSeq, x: x})
		return
	}
	x.base = e.gsh.now
	e.xmit(&x)
}

// inGroup reports whether a transmission from a to b stays inside one group
// of a leaf-aligned partition (group > 1), where it commits in-window.
func (e *Engine) inGroup(a, b *Node) bool {
	return e.group > 1 && a.ID/e.group == b.ID/e.group
}

// xmit performs the ordered half of one transmission: topology latency,
// fault draws (in total event order, off the single seeded source), and the
// delivery-event push.
func (e *Engine) xmit(x *xmit) {
	lat := x.lat
	if x.routed && e.netHook != nil {
		lat = e.netHook(x.from.ID, x.to.ID, x.words, x.depart, lat)
	}
	if e.par && lat < e.lookahead && !e.inGroup(x.from, x.to) {
		panic(fmt.Sprintf("sim: latency %d of a transmission from node %d to node %d is below the %d-instruction lookahead; the conservative window is unsound",
			lat, x.from.ID, x.to.ID, e.lookahead))
	}
	arrive := x.depart + lat
	if arrive < x.base {
		arrive = x.base
	}
	if f := e.faults; f != nil {
		cfg := f.cfg
		if f.hit(cfg.Drop) {
			e.observeFault(FaultDrop, x.from, x.to, x.words, 0, x.clk)
			return
		}
		if f.hit(cfg.Reorder) {
			j := f.jitter(cfg.JitterMax)
			e.observeFault(FaultJitter, x.from, x.to, x.words, j, x.clk)
			arrive += j
		}
		if f.hit(cfg.Dup) {
			e.observeFault(FaultDup, x.from, x.to, x.words, 0, x.clk)
			dup := arrive + f.jitter(cfg.JitterMax+1)
			e.deliverAt(x.from, x.to, dup, 2*x.n, &x.p)
		}
	}
	e.deliverAt(x.from, x.to, arrive, 2*x.n+1, &x.p)
}

// deliverAt schedules one physical delivery at node `to`. The event is
// stamped in the sender's transmission context, srcXmit(from), with seq
// derived from the sender's n-th transmission: 2n+1 for the original and 2n
// for a wire duplicate, so a duplicate sorts just before its original and
// both before the sender's later transmissions. The number is fixed at the
// send, so delivery events sort identically under either engine, whether a
// transmission commits inline, in-window or at the barrier.
func (e *Engine) deliverAt(from, to *Node, arrive Time, seq uint64, p *Packet) {
	to.sh.push(event{at: arrive, src: srcXmit(from.ID), seq: seq,
		kind: evDeliver, node: int32(to.ID), msg: p.Msg, aux: p.Seq, epoch: p.Epoch})
}

// arrive performs one physical delivery: a packet arriving inside the
// destination's crash window is lost — the node's NIC is down with the rest
// of it.
func (e *Engine) arrive(to *Node, ev *event) {
	if to.downUntil > to.sh.now {
		to.sh.crashDrops++
		return
	}
	to.MsgsRecv++
	// The sender is recovered from its transmission context (srcXmit).
	e.recv.Deliver(to, Packet{Msg: ev.msg, Seq: ev.aux, Epoch: ev.epoch, From: -2 - ev.src})
	e.Wake(to)
}

// Run dispatches events until none remain. The runtime layer keeps nodes
// pumping while they have work, so an empty event queue means global
// quiescence: every node idle with empty queues.
func (e *Engine) Run() {
	e.startFaultClock()
	if e.par {
		e.runParallel(maxTime)
		return
	}
	sh := e.gsh
	for sh.q.len() > 0 {
		ev := sh.q.pop()
		sh.dispatch(&ev)
	}
}

// maxTime is the no-limit sentinel for RunUntil-style bounds.
const maxTime = Time(1)<<62 - 1

// RunUntil dispatches events with time <= t, then stops. It returns true if
// events remain.
func (e *Engine) RunUntil(t Time) bool {
	e.startFaultClock()
	if e.par {
		return e.runParallel(t)
	}
	sh := e.gsh
	for sh.q.len() > 0 && sh.q.peekAt() <= t {
		ev := sh.q.pop()
		sh.dispatch(&ev)
	}
	return sh.q.len() > 0
}

// Pending returns the number of undispatched events.
func (e *Engine) Pending() int {
	p := e.gsh.q.len()
	for _, sh := range e.shards {
		if sh != e.gsh {
			p += sh.q.len()
		}
	}
	return p
}

// PendingWork returns the number of undispatched events that represent real
// work: service events and cancelled timers are excluded. Periodic services
// use it to stop rescheduling themselves once the machine is otherwise idle
// (counting each other — or a dead retransmit timer's queue slot — would
// sustain them forever).
func (e *Engine) PendingWork() int {
	w := e.gsh.q.len() - e.gsh.servicePending - e.gsh.cancelledPending
	for _, sh := range e.shards {
		if sh != e.gsh {
			w += sh.q.len() - sh.servicePending - sh.cancelledPending
		}
	}
	return w
}

// Step dispatches a single event, returning false if none remain. Under the
// parallel engine one "step" is one synchronization round: a single global
// event, or one full window plus its barrier.
func (e *Engine) Step() bool {
	if e.par {
		return e.stepParallel()
	}
	sh := e.gsh
	if sh.q.len() == 0 {
		return false
	}
	ev := sh.q.pop()
	sh.dispatch(&ev)
	return true
}

// MaxClock returns the maximum node clock — the parallel completion time.
func (e *Engine) MaxClock() Time {
	var m Time
	for _, n := range e.nodes {
		if n.Clock > m {
			m = n.Clock
		}
	}
	return m
}

// TotalCounters sums the per-node counters.
func (e *Engine) TotalCounters() instr.Counters {
	var c instr.Counters
	for _, n := range e.nodes {
		c.AddAll(&n.Counters)
	}
	return c
}

// TotalMessages returns the total number of messages sent.
func (e *Engine) TotalMessages() int64 {
	var m int64
	for _, n := range e.nodes {
		m += n.MsgsSent
	}
	return m
}

// Charge advances node n's clock by cost instructions, accounted under op.
// During a brown-out window (see Faults) every instruction costs SlowFactor.
func Charge(n *Node, op instr.Op, cost instr.Instr) {
	if n.slowFactor > 1 && n.Clock < n.slowUntil {
		cost *= instr.Instr(n.slowFactor)
	}
	if n.eng.chargeObs != nil && cost != 0 {
		n.eng.chargeObs(n.ID, op, n.Clock, cost)
	}
	n.Clock += cost
	n.Counters.Add(op, cost)
}

// event is one scheduled action, a typed record dispatched by kind: a node
// pump, a packet delivery, a timer expiry, or a host closure. The
// (at, src, seq) triple is the engine's total order: src identifies the
// scheduling context (srcGlobal the global context, srcXmit(n) deliveries
// transmitted by node n, [0, N) node n's own events) and seq is that
// context's own counter — so any two events compare identically whether
// they were queued by the serial loop or by different shards of the
// parallel engine.
//
// The class ordering (global < transmission < node) is load-bearing for the
// parallel engine: every same-instant child is scheduled in a context that
// sorts at or after its parent's (global events spawn anything; deliveries
// wake node pumps; node events reschedule only their own context at higher
// seq), so dispatch order never inverts key order, and the barrier's
// key-sorted replay of deferred side effects reproduces the serial engine's
// dispatch order exactly.
type event struct {
	at      Time
	seq     uint64
	src     int32
	node    int32 // evPump, evDeliver: the node
	kind    evKind
	service bool
	epoch   int32  // evDeliver: Packet.Epoch
	aux     uint64 // evDeliver: Packet.Seq; evTimer: the arm's generation
	msg     any    // evDeliver: Packet.Msg
	fn      func() // evFunc: the host closure
	timer   *Timer // evTimer
}

// evKind selects an event's action.
type evKind uint8

const (
	evFunc    evKind = iota // run a host closure (Schedule, ScheduleService)
	evPump                  // run one task on a node
	evDeliver               // deliver a packet to a node
	evTimer                 // fire a timer arm
)

// cancelled reports whether ev is a timer event whose arm was stopped or
// superseded: it runs nothing when it pops, and compaction may drop it.
func (ev *event) cancelled() bool {
	t := ev.timer
	return t != nil && (t.stopped || t.gen != ev.aux)
}

// srcGlobal is the global context's src: the minimum, so at any instant
// host-scheduled events dispatch before deliveries and node events (the
// parallel round relies on this when it runs a global event due at the same
// time as the earliest node event).
const srcGlobal int32 = math.MinInt32

// srcXmit is the transmission context of sender node id: below every node
// context (so a delivery's same-instant children — pump wakes — sort after
// it) and above srcGlobal.
func srcXmit(id int) int32 { return int32(-2 - id) }
