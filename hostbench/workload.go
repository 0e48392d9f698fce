package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"strconv"
	"time"

	"repro/apps/chaos"
	"repro/apps/serve"
	"repro/apps/sor"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/load"
	"repro/internal/machine"
	"repro/internal/obsv"
	"repro/internal/sim"
)

// sorParams is one SOR configuration: a G x G grid, one object per point,
// on a P x P machine under a block-cyclic layout of block B.
type sorParams struct{ G, P, B, Iters int }

// scaleSOR is `make scale`: the million-object grid on 4096 CM-5 nodes.
var scaleSOR = sorParams{G: 1024, P: 64, B: 8, Iters: 1}

// serveParams is one serving configuration: offered load in requests per
// simulated second over a horizon in simulated milliseconds, with Loss the
// message-loss rate of the injected faults.
type serveParams struct {
	Nodes, Keys     int
	Rate, HorizonMS float64
	Loss            float64
}

// lossyServe is `make serve`'s profiled run scaled to 64 nodes.
var lossyServe = serveParams{Nodes: 64, Keys: 65536, Rate: 150_000, HorizonMS: 1000, Loss: 0.01}

// rep is what one execution of a workload reports to the parent process.
type rep struct {
	WallS  float64 // workload start to verified result
	SetupS float64 // workload start to the first simulated event
	SimS   float64 // first simulated event to the end of the run
	Busy   int64   // simulated busy instructions (all but idle)
	// Workers is Engine.Workers(): the goroutines dispatching events. It is
	// 0 where the rep cannot see the engine: serve.Run owns it, and only a
	// traced rep reaches it, through the migration policy.
	Workers int
	// Out holds the simulated outputs, compared against the pinned seed
	// outputs and across reps.
	Out map[string]string
	// Traced reps only: per-layer metrics and the coarse spans.
	Layer map[string]float64 `json:",omitempty"`
	Spans []span             `json:",omitempty"`
}

// memSnap is a point-in-time reading of the Go runtime's allocation and GC
// counters.
type memSnap struct {
	mallocs, bytes uint64
	gcCPU          float64
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	var gc float64
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	return memSnap{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcCPU: gc}
}

// memProbe takes the go.* readings of a traced rep at its phase boundaries:
// start, end of set-up (where it also forces a collection to measure the
// live heap), and end of the simulation.
type memProbe struct {
	start, setup, afterGC, end memSnap
	heapLive                   uint64
}

func (p *memProbe) atSetupEnd() {
	p.setup = readMem()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.heapLive = ms.HeapAlloc
	p.afterGC = readMem()
}

func (p *memProbe) into(layer map[string]float64, events int64) {
	mallocs := p.end.mallocs - p.start.mallocs
	layer["go.mallocs"] = float64(mallocs)
	layer["go.alloc_mb"] = float64(p.end.bytes-p.start.bytes) / (1 << 20)
	layer["go.allocs_per_event"] = float64(p.end.mallocs-p.afterGC.mallocs) / float64(events)
	// The forced collection is the probe's, not the workload's.
	layer["go.gc_cpu_s"] = (p.setup.gcCPU - p.start.gcCPU) + (p.end.gcCPU - p.afterGC.gcCPU)
	layer["go.heap_live_mb"] = float64(p.heapLive) / (1 << 20)
}

// hotLayers derives the hot-span metrics of a traced rep. run is the RT.Run
// span in nanoseconds. On the parallel engine every worker is busy or
// waiting for the whole span, so the engine's self time is counted in
// core-seconds: workers x span, less the time in the wrapped layers.
func hotLayers(layer map[string]float64, h *hot, run int64, workers int, events int64) error {
	s := h.sum()
	cores := int64(workers) * run
	simSelf := cores - s.top
	per := func(ns, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(ns) / float64(n)
	}
	layer["sim.self_s"] = float64(simSelf) / 1e9
	layer["sim.ns_per_event"] = per(simSelf, events)
	layer["sim.pdes_busy_frac"] = float64(s.total[kRunOne]) / float64(cores)
	layer["core.runone_calls"] = float64(s.count[kRunOne])
	layer["core.self_s"] = float64(s.self[kRunOne]) / 1e9
	layer["core.ns_per_runone"] = per(s.self[kRunOne], s.count[kRunOne])
	layer["machine.delay_calls"] = float64(s.count[kDelay])
	layer["machine.delay_s"] = float64(s.self[kDelay]) / 1e9
	layer["machine.ns_per_delay"] = per(s.self[kDelay], s.count[kDelay])
	layer["obsv.calls"] = float64(s.count[kObsv])
	layer["obsv.self_s"] = float64(s.self[kObsv]) / 1e9
	layer["obsv.ns_per_call"] = per(s.self[kObsv], s.count[kObsv])
	layer["migrate.onaccess_calls"] = float64(s.count[kOnAccess])
	layer["migrate.policy_s"] = float64(s.self[kOnAccess]+s.self[kTick]) / 1e9

	// The self times of the wrapped layers sum to s.top, so with the engine's
	// remainder they partition workers x RT.Run exactly. What can fail is a
	// span counted twice, which makes some share negative.
	for k := 0; k < numKinds; k++ {
		if s.self[k] < 0 {
			return fmt.Errorf("span kind %d has negative self time %d ns", k, s.self[k])
		}
	}
	if simSelf < 0 {
		return fmt.Errorf("wrapped spans cover %d ns of a %d ns RT.Run span on %d workers", s.top, run, workers)
	}
	return nil
}

// statsOut adds the simulated outputs both workloads share.
func statsOut(out map[string]string, st core.NodeStats, msgs int64, seconds float64, busy int64) {
	i := func(v int64) string { return strconv.FormatInt(v, 10) }
	out["sim_seconds"] = strconv.FormatFloat(seconds, 'g', -1, 64)
	out["messages"] = i(msgs)
	out["busy_instr"] = i(busy)
	out["invokes"] = i(st.Invokes)
	out["local_invokes"] = i(st.LocalInvokes)
	out["remote_invokes"] = i(st.RemoteInvokes)
	out["heap_contexts"] = i(st.HeapInvokes)
	out["fallbacks"] = i(st.Fallbacks)
	out["suspends"] = i(st.Suspends)
	out["retransmits"] = i(st.Retransmits)
	out["migrations"] = i(st.MigratesOut)
}

// coreLayers adds the runtime's exact counts, the bases of per-layer
// ratios; the goldens fix them, so they must never move.
func coreLayers(layer map[string]float64, st core.NodeStats, msgs int64) {
	layer["core.invokes"] = float64(st.Invokes)
	layer["core.remote_invokes"] = float64(st.RemoteInvokes)
	layer["core.heap_contexts"] = float64(st.HeapInvokes)
	layer["core.suspends"] = float64(st.Suspends)
	layer["core.msgs"] = float64(msgs)
	layer["core.retransmits"] = float64(st.Retransmits)
	layer["core.migrations"] = float64(st.MigratesOut)
}

// sorSetup is a built SOR program, machine and grid, ready to run.
type sorSetup struct {
	mdl   *machine.Model
	eng   *sim.Engine
	rt    *core.RT
	elems []*sor.Elem
	res   core.Result
}

// newSOR builds the SOR workload through the program's public API, in the
// order sor.Run does, so object references and therefore the simulation
// are those of `make scale`. h, when set, wraps the runner and the
// fat-tree; log receives the set-up spans.
func newSOR(p sorParams, pdes bool, h *hot, log *spanLog) (*sorSetup, error) {
	mdl := machine.ByName("cm5")
	cfg := core.DefaultHybrid()
	cfg.Network = func(nodes int) machine.Network {
		ft := machine.NewFatTree(nodes, 0, mdl)
		if h != nil {
			return tracedNet{inner: ft, h: h}
		}
		return ft
	}
	if pdes {
		defer sim.SetDefaultEngine(sim.SetDefaultEngine(sim.EngineParallel))
		defer sim.SetDefaultShards(sim.SetDefaultShards(2))
	}
	m := sor.Build()
	log.begin("analysis.resolve")
	err := m.Prog.Resolve(cfg.Interfaces)
	log.end()
	if err != nil {
		return nil, err
	}
	nodes := p.P * p.P
	log.begin("core.newrt")
	eng := sim.NewEngine(nodes)
	rt := core.NewRT(eng, mdl, m.Prog, cfg)
	log.end()
	if h != nil {
		eng.SetRunner(&tracedRunner{inner: rt, h: h})
	}

	log.begin("apps.build")
	dist := layout.BlockCyclic{G: p.G, P: p.P, B: p.B}
	refs := make([]core.Ref, p.G*p.G)
	elems := make([]*sor.Elem, p.G*p.G)
	chunks := make([]*sor.Chunk, nodes)
	for n := range chunks {
		chunks[n] = &sor.Chunk{}
	}
	for i := 0; i < p.G; i++ {
		for j := 0; j < p.G; j++ {
			node := dist.Node(i, j)
			e := &sor.Elem{V: float64((i*31+j*17)%100) / 100.0}
			elems[i*p.G+j] = e
			refs[i*p.G+j] = rt.Node(node).NewObject(e)
			chunks[node].Elems = append(chunks[node].Elems, refs[i*p.G+j])
		}
	}
	at := func(i, j int) core.Ref {
		if i < 0 || i >= p.G || j < 0 || j >= p.G {
			return core.NilRef
		}
		return refs[i*p.G+j]
	}
	for i := 0; i < p.G; i++ {
		for j := 0; j < p.G; j++ {
			e := elems[i*p.G+j]
			e.Nbr = [4]core.Ref{at(i-1, j), at(i+1, j), at(i, j-1), at(i, j+1)}
		}
	}
	coord := &sor.Coord{}
	for n := 0; n < nodes; n++ {
		coord.Chunks = append(coord.Chunks, rt.Node(n).NewObject(chunks[n]))
	}
	coordRef := rt.Node(0).NewObject(coord)
	log.end()

	s := &sorSetup{mdl: mdl, eng: eng, rt: rt, elems: elems}
	rt.StartOn(0, m.Main, coordRef, &s.res, core.IntW(int64(p.Iters)))
	return s, nil
}

// finish checks the completed run and verifies the grid against sor.Native.
func (s *sorSetup) finish(p sorParams, log *spanLog) (map[string]string, error) {
	if !s.res.Done {
		return nil, fmt.Errorf("sor: did not complete")
	}
	if err := s.rt.CheckQuiescence(); err != nil {
		return nil, err
	}
	log.begin("apps.verify")
	defer log.end()
	var sum float64
	for _, e := range s.elems {
		sum += e.V
	}
	if want := sor.Native(p.G, p.Iters); sum != want {
		return nil, fmt.Errorf("sor: checksum %v, native %v", sum, want)
	}
	busy := s.eng.TotalCounters()
	out := map[string]string{
		"checksum":  strconv.FormatFloat(sum, 'g', -1, 64),
		"max_clock": strconv.FormatInt(int64(s.eng.MaxClock()), 10),
	}
	statsOut(out, s.rt.TotalStats(), s.eng.TotalMessages(), s.mdl.Seconds(s.eng.MaxClock()), int64(busy.Busy()))
	return out, nil
}

// runSOR executes SOR once, timed, and traced when traced is set.
func runSOR(p sorParams, pdes, traced bool) (rep, error) {
	base := time.Now()
	log := newSpanLog(base)
	var h *hot
	var mem memProbe
	if traced {
		lanes := 1
		if pdes {
			lanes = p.P * p.P
		}
		h = newHot(base, lanes)
		mem.start = readMem()
	}
	log.begin("workload")
	log.begin("setup")
	s, err := newSOR(p, pdes, h, log)
	if err != nil {
		return rep{}, err
	}
	log.end()
	if traced {
		mem.atSetupEnd()
	}
	log.begin("RT.Run")
	s.rt.Run()
	log.end()
	if traced {
		mem.end = readMem()
	}
	out, err := s.finish(p, log)
	if err != nil {
		return rep{}, err
	}
	log.end()
	c := s.eng.TotalCounters()
	r := rep{
		WallS: log.seconds("workload"), SetupS: log.seconds("setup"), SimS: log.seconds("RT.Run"),
		Busy: int64(c.Busy()), Workers: s.eng.Workers(), Out: out,
	}
	if !traced {
		return r, nil
	}
	events := s.eng.EventCount()
	r.Layer = map[string]float64{
		"apps.build_s":       log.seconds("apps.build"),
		"apps.objects":       float64(p.G*p.G + p.P*p.P + 1),
		"apps.verify_s":      log.seconds("apps.verify"),
		"analysis.resolve_s": log.seconds("analysis.resolve"),
		"sim.events":         float64(events),
	}
	if err := hotLayers(r.Layer, h, log.ns("RT.Run"), s.eng.Workers(), events); err != nil {
		return rep{}, err
	}
	mem.into(r.Layer, events)
	coreLayers(r.Layer, s.rt.TotalStats(), s.eng.TotalMessages())
	r.Spans = log.spans
	return r, nil
}

// countSOR is the untimed count pass: it drives SOR one Engine.Step at a
// time, recording the peak queue length and the number of steps, which on
// the parallel engine are synchronization rounds (one window plus its
// barrier, or one global event) and on the serial engine single events.
func countSOR(p sorParams, pdes bool) (out map[string]string, steps int64, peak int, err error) {
	log := newSpanLog(time.Now())
	s, err := newSOR(p, pdes, nil, log)
	if err != nil {
		return nil, 0, 0, err
	}
	peak = s.eng.Pending()
	for s.eng.Step() {
		steps++
		if n := s.eng.Pending(); n > peak {
			peak = n
		}
	}
	out, err = s.finish(p, log)
	return out, steps, peak, err
}

// serveSetup returns the machine, configuration and serve.Params of one
// serving run: `make serve`'s profiled configuration (threshold migration,
// injected faults with the reliable layer, obsv.Metrics as tracer and
// metrics sink) at the given scale and seed.
func serveSetup(p serveParams, seed int64) (*machine.Model, core.Config, *obsv.Metrics, serve.Params) {
	mdl := machine.ByName("cm5")
	cfg := core.DefaultHybrid()
	cfg.Migration = serve.ThresholdPolicy()
	cfg.Faults = chaos.Faults(uint64(seed), p.Loss)
	cfg.Reliable = true
	m := obsv.New()
	m.Install(&cfg)
	sp := serve.DefaultParams(seed)
	sp.Nodes, sp.Keys = p.Nodes, p.Keys
	perSec := mdl.MHz * 1e6
	sp.Load.MeanGap = perSec / p.Rate
	sp.Load.Horizon = int64(p.HorizonMS / 1e3 * perSec)
	return mdl, cfg, m, sp
}

// runServe executes the serving workload once, timed, and traced when
// traced is set. serve.Run builds and runs its own engine; set-up ends at
// the first simulated event, which the observer shim stamps.
func runServe(p serveParams, seed int64, traced bool) (rep, error) {
	mdl, cfg, m, sp := serveSetup(p, seed)
	base := time.Now()
	log := newSpanLog(base)
	shim := &obsShim{m: m, base: base}
	cfg.Tracer, cfg.Metrics = shim, shim
	var h *hot
	var pol *tracedPolicy
	var mem memProbe
	if traced {
		h = newHot(base, 1)
		shim.h = h
		shim.onFirst = mem.atSetupEnd
		pol = &tracedPolicy{inner: cfg.Migration, h: h}
		cfg.Migration = pol
		mem.start = readMem()
	}
	log.begin("workload")
	t0 := log.now()
	res := serve.Run(mdl, cfg, sp)
	t1 := log.now()
	if traced {
		mem.end = readMem()
	}
	if !shim.seen {
		return rep{}, fmt.Errorf("serve: no simulated event observed")
	}
	log.add("setup", t0, shim.first)
	log.add("RT.Run", shim.resumed, t1)
	log.begin("apps.verify")
	if err := m.CheckAttribution(); err != nil {
		return rep{}, err
	}
	if res.Applied != res.RMWs {
		return rep{}, fmt.Errorf("serve: %d of %d RMWs applied", res.Applied, res.RMWs)
	}
	if res.Lost != 0 || res.Requests == 0 {
		return rep{}, fmt.Errorf("serve: %d requests, %d lost", res.Requests, res.Lost)
	}
	log.end()
	log.end()

	i := func(v int64) string { return strconv.FormatInt(v, 10) }
	out := map[string]string{
		"requests": i(int64(res.Requests)), "ops": i(res.Ops), "rmws": i(res.RMWs), "applied": i(res.Applied),
		"p50": i(res.P50), "p99": i(res.P99), "p999": i(res.P999),
		"slo_frac": strconv.FormatFloat(res.SLOFrac, 'g', -1, 64),
	}
	statsOut(out, res.Stats, res.Messages, res.Seconds, int64(res.Counters.Busy()))
	r := rep{
		WallS: log.seconds("workload"), SetupS: log.seconds("setup"), SimS: log.seconds("RT.Run"),
		Busy: int64(res.Counters.Busy()), Out: out,
	}
	if !traced {
		return r, nil
	}
	if pol.rt == nil {
		return rep{}, fmt.Errorf("serve: migration policy never consulted")
	}
	eng := pol.rt.Eng
	r.Workers = eng.Workers()
	events := eng.EventCount()
	r.Layer = map[string]float64{
		// serve.Run does not expose its keyspace build apart from the rest of
		// its set-up, so the whole of set-up is reported.
		"apps.build_s":   r.SetupS,
		"apps.objects":   float64(p.Keys + p.Nodes),
		"apps.verify_s":  log.seconds("apps.verify"),
		"sim.events":     float64(events),
		"sim.queue_peak": float64(pol.runner.peak),
		// One event per step on the serial engine that migration forces.
		"sim.pdes_rounds": float64(events),
	}
	if err := hotLayers(r.Layer, h, log.ns("RT.Run"), eng.Workers(), events); err != nil {
		return rep{}, err
	}
	mem.into(r.Layer, events)
	coreLayers(r.Layer, res.Stats, res.Messages)

	// Layers serve.Run calls internally, timed on their own afterwards.
	t := time.Now()
	if err := serve.Build(sp.ReadWork, sp.RMWWork).Prog.Resolve(cfg.Interfaces); err != nil {
		return rep{}, err
	}
	r.Layer["analysis.resolve_s"] = time.Since(t).Seconds()
	lp := sp.Load
	lp.Keys, lp.Frontends = sp.Keys, sp.Nodes
	t = time.Now()
	gen := load.New(lp)
	n := 0
	for _, ok := gen.Next(); ok; _, ok = gen.Next() {
		n++
	}
	r.Layer["load.gen_s"] = time.Since(t).Seconds()
	r.Layer["load.requests"] = float64(n)
	if n != res.Requests {
		return rep{}, fmt.Errorf("serve: generator made %d requests, the run served %d", n, res.Requests)
	}
	r.Spans = log.spans
	return r, nil
}
