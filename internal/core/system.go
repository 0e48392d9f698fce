package core

import (
	"errors"
	"fmt"

	"repro/internal/instr"
	"repro/internal/machine"
	"repro/internal/sim"
)

// System is one simulated machine running one program under one
// execution-model configuration: the run driver every app, command and
// example builds on. It builds the engine and the runtime in one place,
// checks after the run that every root completed and the machine stopped
// cleanly, and reports the run's measurements.
type System struct {
	Eng   *sim.Engine
	RT    *RT
	Model *machine.Model
	Prog  *Program

	results []*Result
}

// NewSystem builds a machine of nodes processors described by model,
// running prog (which must already be Resolved) under cfg. An invalid
// configuration panics with a descriptive error (see ValidateConfig).
func NewSystem(model *machine.Model, nodes int, prog *Program, cfg Config) *System {
	eng := sim.NewEngine(nodes)
	rt := NewRT(eng, model, prog, cfg)
	return &System{Eng: eng, RT: rt, Model: model, Prog: prog}
}

// Nodes returns the machine size.
func (s *System) Nodes() int { return s.Eng.NumNodes() }

// NewObject places state as a new object on node and returns its global
// reference.
func (s *System) NewObject(node int, state any) Ref {
	return s.RT.Node(node).NewObject(state)
}

// State returns the application state of an object (host-side access for
// setup and verification; simulated code goes through the owning node).
// With migration enabled the object may have moved from its birth node;
// StateOf walks forwarding stubs to its current home.
func (s *System) State(ref Ref) any {
	return s.RT.StateOf(ref)
}

// Start seeds a root invocation of m on target (owned by node) and returns
// its result sink, which Run checks for completion. Call before Run;
// multiple roots are allowed.
func (s *System) Start(node int, m *Method, target Ref, args ...Word) *Result {
	res := &Result{}
	s.results = append(s.results, res)
	s.RT.StartOn(node, m, target, res, args...)
	return res
}

// Run drives the machine to quiescence and returns an error if any root
// invocation failed to complete or the machine did not stop cleanly (a
// deadlocked program, or frames leaked).
func (s *System) Run() error {
	s.RT.Run()
	for i, r := range s.results {
		if !r.Done {
			// A deadlocked machine also fails the quiescence check, which
			// says where the work is stuck.
			return errors.Join(fmt.Errorf("core: root invocation %d did not complete", i), s.RT.CheckQuiescence())
		}
	}
	return s.RT.CheckQuiescence()
}

// MustRun is Run, panicking on failure.
func (s *System) MustRun() {
	if err := s.Run(); err != nil {
		panic(err)
	}
}

// Time returns the parallel completion time in virtual instructions.
func (s *System) Time() instr.Instr { return s.Eng.MaxClock() }

// Seconds returns the parallel completion time in seconds on the modeled
// machine — the unit the paper's tables report.
func (s *System) Seconds() float64 { return s.Model.Seconds(s.Eng.MaxClock()) }

// LocalFraction returns the share of invocations whose target was on the
// invoking node: local / (local + remote). It is 0 when the run made no
// invocations.
func (s *System) LocalFraction() float64 {
	st := s.RT.TotalStats()
	total := st.LocalInvokes + st.RemoteInvokes
	if total == 0 {
		return 0
	}
	return float64(st.LocalInvokes) / float64(total)
}

// Stats returns machine-wide execution-model statistics.
func (s *System) Stats() NodeStats { return s.RT.TotalStats() }

// Counters returns machine-wide instruction counters by category.
func (s *System) Counters() instr.Counters { return s.Eng.TotalCounters() }

// Messages returns the total number of messages sent.
func (s *System) Messages() int64 { return s.Eng.TotalMessages() }

// FaultStats returns the machine-wide injected-fault counts (all zero on a
// fault-free network).
func (s *System) FaultStats() sim.FaultStats { return s.Eng.FaultStats() }
