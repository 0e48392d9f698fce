package main

import (
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"repro/apps/serve"
	"repro/apps/sor"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sim"
)

// tinySOR and tinyServe exercise the same code paths as the benchmark's
// workloads (fat-tree, both engines; loss, retransmits, migration,
// observers) in well under a second.
var (
	tinySOR   = sorParams{G: 32, P: 4, B: 4, Iters: 2}
	tinyServe = serveParams{Nodes: 8, Keys: 1024, Rate: 55_000, HorizonMS: 20, Loss: 0.01}
)

// TestSORWrappedMatchesProgram: the benchmark's SOR, untraced and with
// every wrapper installed, on both engines and in the Step-driven count
// pass, produces the simulated outputs of the program's own sor.Run.
func TestSORWrappedMatchesProgram(t *testing.T) {
	mdl := machine.ByName("cm5")
	cfg := core.DefaultHybrid()
	cfg.Network = func(nodes int) machine.Network { return machine.NewFatTree(nodes, 0, mdl) }
	want := sor.Run(mdl, cfg, sor.Params{G: tinySOR.G, P: tinySOR.P, B: tinySOR.B, Iters: tinySOR.Iters})

	for _, pdes := range []bool{false, true} {
		plain, err := runSOR(tinySOR, pdes, false)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := runSOR(tinySOR, pdes, true)
		if err != nil {
			t.Fatal(err)
		}
		counted, steps, peak, err := countSOR(tinySOR, pdes)
		if err != nil {
			t.Fatal(err)
		}
		if got := plain.Out["checksum"]; got != strconv.FormatFloat(want.Checksum, 'g', -1, 64) {
			t.Errorf("pdes=%v: checksum %s, sor.Run %v", pdes, got, want.Checksum)
		}
		if got := plain.Out["messages"]; got != strconv.FormatInt(want.Messages, 10) {
			t.Errorf("pdes=%v: messages %s, sor.Run %d", pdes, got, want.Messages)
		}
		if got := plain.Out["invokes"]; got != strconv.FormatInt(want.Stats.Invokes, 10) {
			t.Errorf("pdes=%v: invokes %s, sor.Run %d", pdes, got, want.Stats.Invokes)
		}
		if got := plain.Out["sim_seconds"]; got != strconv.FormatFloat(want.Seconds, 'g', -1, 64) {
			t.Errorf("pdes=%v: simulated seconds %s, sor.Run %v", pdes, got, want.Seconds)
		}
		if !maps.Equal(plain.Out, traced.Out) || !maps.Equal(plain.Out, counted) {
			t.Errorf("pdes=%v: wrapped or counted outputs differ: %s; %s", pdes,
				diffOut(plain.Out, traced.Out), diffOut(plain.Out, counted))
		}
		wantWorkers := 1
		if pdes {
			wantWorkers = 2
		}
		if plain.Workers != wantWorkers || traced.Workers != wantWorkers {
			t.Errorf("pdes=%v: workers %d/%d, want %d", pdes, plain.Workers, traced.Workers, wantWorkers)
		}
		if steps <= 0 || peak <= 0 {
			t.Errorf("pdes=%v: count pass gave %d steps, queue peak %d", pdes, steps, peak)
		}
		if traced.Layer["machine.delay_calls"] != traced.Layer["core.msgs"] {
			t.Errorf("pdes=%v: %v Delay calls for %v messages", pdes,
				traced.Layer["machine.delay_calls"], traced.Layer["core.msgs"])
		}
	}
}

// TestServeWrappedMatchesProgram: the benchmark's serving run, with the
// set-up latch alone and with every wrapper installed, produces the
// simulated outputs of serve.Run called with obsv.Metrics directly.
func TestServeWrappedMatchesProgram(t *testing.T) {
	const seed = 7
	mdl, cfg, _, sp := serveSetup(tinyServe, seed)
	want := serve.Run(mdl, cfg, sp)

	plain, err := runServe(tinyServe, seed, false)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runServe(tinyServe, seed, true)
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(plain.Out, traced.Out) {
		t.Errorf("wrapped outputs differ: %s", diffOut(plain.Out, traced.Out))
	}
	for k, v := range map[string]int64{
		"requests": int64(want.Requests), "messages": want.Messages, "p99": want.P99,
		"migrations": want.Moves, "retransmits": want.Stats.Retransmits,
	} {
		if plain.Out[k] != strconv.FormatInt(v, 10) {
			t.Errorf("%s = %s, serve.Run %d", k, plain.Out[k], v)
		}
	}
	if want.Stats.Retransmits == 0 || want.Moves == 0 {
		t.Errorf("tiny serve run exercises neither loss nor migration: %d retransmits, %d moves",
			want.Stats.Retransmits, want.Moves)
	}
	if traced.Layer["load.requests"] != float64(want.Requests) {
		t.Errorf("generator timed on its own made %v requests, run served %d", traced.Layer["load.requests"], want.Requests)
	}
	if traced.Layer["sim.queue_peak"] <= 0 || traced.Layer["core.runone_calls"] <= 0 {
		t.Errorf("queue peak %v, RunOne calls %v: runner wrapper not installed",
			traced.Layer["sim.queue_peak"], traced.Layer["core.runone_calls"])
	}
	if traced.Layer["obsv.calls"] == 0 || traced.Layer["migrate.onaccess_calls"] != float64(want.Ops) {
		t.Errorf("observer calls %v, policy calls %v for %d operations",
			traced.Layer["obsv.calls"], traced.Layer["migrate.onaccess_calls"], want.Ops)
	}
}

// TestSelfTimes: a span's self time is its duration minus its children's.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{"root", 0, 100, -1},
		{"a", 10, 40, 0},
		{"b", 50, 90, 0},
		{"c", 15, 25, 1},
		{"d", 60, 70, 2},
		{"e", 72, 80, 2},
	}
	want := []int64{30, 20, 22, 10, 10, 8}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: self %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

// TestHotLayersPartitionRun: lane aggregation on a synthetic span tree
// agrees with selfTimes, and the engine, core, topology and observer
// shares partition the RT.Run span.
func TestHotLayersPartitionRun(t *testing.T) {
	// Under a 100 ns RT.Run span: two tasks, the first calling the
	// topology once, the second an observer and the topology; then one
	// observer call outside any task.
	type ev struct {
		begin bool
		kind  int
		at    int64
	}
	evs := []ev{
		{true, kRunOne, 10}, {true, kDelay, 15}, {false, 0, 25}, {false, 0, 40},
		{true, kRunOne, 50}, {true, kObsv, 60}, {false, 0, 70}, {true, kDelay, 72}, {false, 0, 80}, {false, 0, 90},
		{true, kObsv, 92}, {false, 0, 95},
	}
	h := &hot{lanes: make([]lane, 1)}
	l := h.lane(0)
	for _, e := range evs {
		if e.begin {
			l.begin(e.kind, e.at)
		} else {
			l.end(e.at)
		}
	}
	self := selfTimes([]span{
		{"run", 0, 100, -1},
		{"runone", 10, 40, 0}, {"delay", 15, 25, 1},
		{"runone", 50, 90, 0}, {"obsv", 60, 70, 3}, {"delay", 72, 80, 3},
		{"obsv", 92, 95, 0},
	})
	wantSelf := map[int]int64{
		kRunOne: self[1] + self[3],
		kDelay:  self[2] + self[5],
		kObsv:   self[4] + self[6],
	}
	for k, w := range wantSelf {
		if l.self[k] != w {
			t.Errorf("kind %d: self %d, want %d", k, l.self[k], w)
		}
	}
	if l.count[kRunOne] != 2 || l.count[kDelay] != 2 || l.count[kObsv] != 2 {
		t.Errorf("counts %v", l.count)
	}

	layer := map[string]float64{}
	if err := hotLayers(layer, h, 100, 1, 4); err != nil {
		t.Fatal(err)
	}
	sum := layer["sim.self_s"] + layer["core.self_s"] + layer["machine.delay_s"] + layer["obsv.self_s"]
	if d := sum - 100e-9; d > 1e-18 || d < -1e-18 {
		t.Errorf("layer self times sum to %g s, RT.Run span is 1e-7 s", sum)
	}
	if layer["sim.self_s"]*1e9 != float64(self[0]) {
		t.Errorf("sim.self_s %g s, want %d ns", layer["sim.self_s"], self[0])
	}

	// Spans covering more than the run mean a span was counted twice.
	if err := hotLayers(map[string]float64{}, h, 50, 1, 4); err == nil {
		t.Error("wrapped spans longer than RT.Run: want an error")
	}
}

// TestCheckRejectsSerialFallback: a parallel workload whose engine fell
// back to serial dispatch fails, as does any output mismatch.
func TestCheckRejectsSerialFallback(t *testing.T) {
	w := workload{name: "par", workers: 2, pinned: func(int64) map[string]string { return map[string]string{"x": "1"} }}
	cases := []struct {
		name string
		rec  repRecord
		ref  map[string]string
		ok   bool
	}{
		{"good", repRecord{Rep: rep{Workers: 2, Out: map[string]string{"x": "1"}}}, nil, true},
		{"serial fallback", repRecord{Rep: rep{Workers: 1, Out: map[string]string{"x": "1"}}}, nil, false},
		{"pinned mismatch", repRecord{Rep: rep{Workers: 2, Out: map[string]string{"x": "2"}}}, nil, false},
		{"rep mismatch", repRecord{Rep: rep{Workers: 2, Out: map[string]string{"x": "1"}}}, map[string]string{"x": "3"}, false},
		{"child error", repRecord{Err: "panic: boom", Rep: rep{Workers: 2, Out: map[string]string{"x": "1"}}}, nil, false},
	}
	for _, c := range cases {
		rec := c.rec
		check(w, 1, &rec, c.ref)
		if rec.OK != c.ok {
			t.Errorf("%s: ok=%v (%s), want %v", c.name, rec.OK, rec.Err, c.ok)
		}
	}
}

// The engine defaults are process-global; the workloads restore them.
func TestEngineDefaultsRestored(t *testing.T) {
	if _, err := runSOR(tinySOR, true, false); err != nil {
		t.Fatal(err)
	}
	if k := sim.NewEngine(4).Kind(); k != sim.EngineSerial {
		t.Errorf("default engine after a parallel run: %v", k)
	}
}

// TestBenchmarkJSONMatches: BENCHMARK.json at the repository root lists
// exactly the metrics the benchmark prints, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !slices.Equal(names, have) {
		t.Errorf("workloads %v, benchmark runs %v", names, have)
	}
	same := func(kind string, spec []struct{ Name, Unit string }, ms []metric) {
		got := map[string]string{}
		for _, m := range spec {
			got[m.Name] = m.Unit
		}
		want := map[string]string{}
		for _, m := range ms {
			want[m.name] = m.unit
		}
		if !maps.Equal(got, want) {
			t.Errorf("%s metrics: BENCHMARK.json %v, printed %v", kind, got, want)
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	var inJSON []metric
	for _, m := range perLayer {
		if m.inJSON {
			inJSON = append(inJSON, m)
		}
	}
	same("per_layer", spec.PerLayer, inJSON)
}
