package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/instr"
	"repro/internal/machine"
	"repro/internal/obsv"
	"repro/internal/sim"
)

// span is one coarse phase of a workload execution: set-up, its parts, the
// simulation and the verification. Times are nanoseconds since the rep's
// clock base; Parent indexes the enclosing span, -1 at the root.
type span struct {
	Name       string
	Start, End int64
	Parent     int
}

// spanLog keeps the coarse spans of one rep in memory; the parent process
// writes them out with the run's result file when the run ends.
type spanLog struct {
	base  time.Time
	spans []span
	open  []int
}

func newSpanLog(base time.Time) *spanLog { return &spanLog{base: base} }

func (l *spanLog) now() int64 { return int64(time.Since(l.base)) }

// begin opens a span nested in the innermost open one.
func (l *spanLog) begin(name string) {
	l.open = append(l.open, l.add(name, l.now(), 0))
}

// end closes the innermost open span.
func (l *spanLog) end() {
	id := l.open[len(l.open)-1]
	l.open = l.open[:len(l.open)-1]
	l.spans[id].End = l.now()
}

// add records a span whose bounds were stamped elsewhere (the first
// simulated event inside serve.Run), as a child of the innermost open span.
func (l *spanLog) add(name string, start, end int64) int {
	parent := -1
	if len(l.open) > 0 {
		parent = l.open[len(l.open)-1]
	}
	l.spans = append(l.spans, span{Name: name, Start: start, End: end, Parent: parent})
	return len(l.spans) - 1
}

// ns returns the duration in nanoseconds of the first span called name.
func (l *spanLog) ns(name string) int64 {
	for _, s := range l.spans {
		if s.Name == name {
			return s.End - s.Start
		}
	}
	panic("hostbench: no span " + name)
}

func (l *spanLog) seconds(name string) float64 { return float64(l.ns(name)) / 1e9 }

// selfTimes returns each span's self time: its duration minus the
// durations of its direct children. Children never overlap one another, so
// this is the part of the span's interval its children do not cover.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// Hot span kinds: the layer boundaries crossed millions of times per run.
// They are folded into per-lane totals as they close rather than kept one
// by one, which would need hundreds of megabytes and perturb the run being
// measured.
const (
	kRunOne   = iota // sim.Runner.RunOne: the runtime core executing one task
	kDelay           // machine.Network.Delay: the topology model
	kObsv            // core.Tracer.Record and core.MetricsSink.ObserveCharge
	kOnAccess        // core.MigrationPolicy.OnAccess
	kTick            // core.MigrationPolicy.Tick
	numKinds
)

// lane aggregates the hot spans of one thread of execution. A span's self
// time is its duration minus its nested spans; top sums the durations of
// spans opened with nothing else open, which is the part of the enclosing
// RT.Run span the lane spent outside the engine itself.
type lane struct {
	depth int
	stack [4]struct{ kind, start, child int64 }
	count [numKinds]int64
	total [numKinds]int64
	self  [numKinds]int64
	top   int64
}

func (l *lane) begin(kind int, now int64) {
	f := &l.stack[l.depth]
	f.kind, f.start, f.child = int64(kind), now, 0
	l.depth++
}

func (l *lane) end(now int64) {
	l.depth--
	f := &l.stack[l.depth]
	d := now - f.start
	l.count[f.kind]++
	l.total[f.kind] += d
	l.self[f.kind] += d - f.child
	if l.depth > 0 {
		l.stack[l.depth-1].child += d
	} else {
		l.top += d
	}
}

// hot owns the lanes of one traced rep. The serial engine runs everything
// on one goroutine, so it gets a single lane and nesting is exact across
// nodes. The parallel engine runs a node's tasks only on its shard's
// worker, and topology and observer calls only at the single-threaded
// barrier, so one lane per node is written by one goroutine at a time.
type hot struct {
	base  time.Time
	lanes []lane
}

func newHot(base time.Time, lanes int) *hot { return &hot{base: base, lanes: make([]lane, lanes)} }

func (h *hot) now() int64 { return int64(time.Since(h.base)) }

func (h *hot) lane(node int) *lane {
	if len(h.lanes) == 1 {
		return &h.lanes[0]
	}
	return &h.lanes[node]
}

// sum folds every lane into one.
func (h *hot) sum() lane {
	var s lane
	for i := range h.lanes {
		l := &h.lanes[i]
		for k := 0; k < numKinds; k++ {
			s.count[k] += l.count[k]
			s.total[k] += l.total[k]
			s.self[k] += l.self[k]
		}
		s.top += l.top
	}
	return s
}

// tracedRunner wraps the runtime's sim.Runner. When eng is set it also
// samples the event queue length before every task (serial engines only:
// under the parallel engine other shards' queues change concurrently).
type tracedRunner struct {
	inner sim.Runner
	h     *hot
	eng   *sim.Engine
	peak  int
}

func (r *tracedRunner) RunOne(n *sim.Node) bool {
	if r.eng != nil {
		if p := r.eng.Pending(); p > r.peak {
			r.peak = p
		}
	}
	l := r.h.lane(n.ID)
	l.begin(kRunOne, r.h.now())
	ok := r.inner.RunOne(n)
	l.end(r.h.now())
	return ok
}

// tracedNet wraps a machine.Network.
type tracedNet struct {
	inner machine.Network
	h     *hot
}

func (t tracedNet) Delay(src, dst, words int, depart instr.Instr) instr.Instr {
	l := t.h.lane(src)
	l.begin(kDelay, t.h.now())
	d := t.inner.Delay(src, dst, words, depart)
	l.end(t.h.now())
	return d
}

func (t tracedNet) MinDelay() instr.Instr { return t.inner.MinDelay() }

// obsShim sits between the runtime and obsv.Metrics on serve-lossy. It
// stamps the first observer call, which is the first simulated event (the
// first request's arrival records itself before anything else runs), so
// set-up time can be told apart from simulation inside serve.Run. onFirst
// runs at that point, between first and resumed. With h set the shim also
// times every observer call.
type obsShim struct {
	m              *obsv.Metrics
	h              *hot
	base           time.Time
	first, resumed int64
	seen           bool
	onFirst        func()
}

func (s *obsShim) latch() {
	if !s.seen {
		s.seen = true
		s.first = int64(time.Since(s.base))
		if s.onFirst != nil {
			s.onFirst()
		}
		s.resumed = int64(time.Since(s.base))
	}
}

func (s *obsShim) Record(node int, at instr.Instr, kind uint8, method string, aux int64) {
	s.latch()
	if s.h == nil {
		s.m.Record(node, at, kind, method, aux)
		return
	}
	l := s.h.lane(node)
	l.begin(kObsv, s.h.now())
	s.m.Record(node, at, kind, method, aux)
	l.end(s.h.now())
}

func (s *obsShim) ObserveCharge(node int, start instr.Instr, method string, op uint8, cost int64) {
	s.latch()
	if s.h == nil {
		s.m.ObserveCharge(node, start, method, op, cost)
		return
	}
	l := s.h.lane(node)
	l.begin(kObsv, s.h.now())
	s.m.ObserveCharge(node, start, method, op, cost)
	l.end(s.h.now())
}

// tracedPolicy wraps a core.MigrationPolicy. serve.Run builds its engine
// itself; the policy is the first interface that is handed the runtime, so
// the runner wrapper is installed from its first call.
type tracedPolicy struct {
	inner  core.MigrationPolicy
	h      *hot
	rt     *core.RT
	runner *tracedRunner
}

func (p *tracedPolicy) attach(rt *core.RT) {
	if p.rt == nil {
		p.rt = rt
		p.runner = &tracedRunner{inner: rt, h: p.h, eng: rt.Eng}
		rt.Eng.SetRunner(p.runner)
	}
}

func (p *tracedPolicy) OnAccess(rt *core.RT, n *core.NodeRT, o *core.Object, from int) (int, bool) {
	p.attach(rt)
	l := p.h.lane(n.ID)
	l.begin(kOnAccess, p.h.now())
	dest, move := p.inner.OnAccess(rt, n, o, from)
	l.end(p.h.now())
	return dest, move
}

func (p *tracedPolicy) Tick(rt *core.RT, now core.Instr) {
	p.attach(rt)
	l := p.h.lane(0)
	l.begin(kTick, p.h.now())
	p.inner.Tick(rt, now)
	l.end(p.h.now())
}
