// Command hostbench is the repository's benchmark of host cost: the wall
// time, set-up time, simulation throughput and memory it takes to produce
// the simulator's results, whose simulated values the goldens already fix.
// It runs three workloads (see README.md for why these three) and checks
// every run's simulated outputs against the values the code produced when
// the benchmark was written.
//
// Usage, from the repository root:
//
//	bash hostbench/run.sh --workload sor-scale|sor-pdes|serve-lossy|all \
//	    [--seed 1995] [--seconds 10] [--trace 0|1]
//
// Every rep of a workload runs in a fresh child process doing nothing
// else, so its peak resident memory is its own. The run repeats reps for
// --seconds and reports medians. --trace 1 instead runs the traced
// protocol: wrapped layer boundaries, an untraced rep to price the
// tracing, and a second traced rep whose exact counts must repeat. The
// last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workload is one benchmark input set and the check of its outputs.
type workload struct {
	name string
	// gogc is the collector setting the rep runs under: `make scale` raises
	// it for the million-object grid, `make serve` leaves the default.
	gogc string
	// workers is the Engine.Workers() the run must report.
	workers int
	run     func(seed int64, traced bool) (rep, error)
	// pinned returns the simulated outputs the seed code produced for seed,
	// nil where none were recorded.
	pinned func(seed int64) map[string]string
}

var workloads = []workload{
	{name: "sor-scale", gogc: "300", workers: 1, run: sorWorkload(false), pinned: sorPinned},
	{name: "sor-pdes", gogc: "300", workers: 2, run: sorWorkload(true), pinned: sorPinned},
	{name: "serve-lossy", gogc: "100", workers: 1, run: serveWorkload, pinned: servePinned},
}

func sorWorkload(pdes bool) func(int64, bool) (rep, error) {
	return func(_ int64, traced bool) (rep, error) {
		if !traced {
			return runSOR(scaleSOR, pdes, false)
		}
		return tracedSOR(scaleSOR, pdes)
	}
}

func serveWorkload(seed int64, traced bool) (rep, error) {
	return runServe(lossyServe, seed, traced)
}

// tracedSOR is the wrapped pass followed by the count pass, in one
// process: the wrapped pass comes first so that, like an untraced rep, it
// starts from a fresh heap.
func tracedSOR(p sorParams, pdes bool) (rep, error) {
	r, err := runSOR(p, pdes, true)
	if err != nil {
		return rep{}, err
	}
	runtime.GC()
	out, steps, peak, err := countSOR(p, pdes)
	if err != nil {
		return rep{}, fmt.Errorf("count pass: %w", err)
	}
	if !maps.Equal(out, r.Out) {
		return rep{}, fmt.Errorf("count pass outputs differ from the traced pass: %s", diffOut(out, r.Out))
	}
	r.Layer["sim.queue_peak"] = float64(peak)
	r.Layer["sim.pdes_rounds"] = float64(steps)
	return r, nil
}

// The seed code's simulated outputs. SOR takes no seed: its grid is fixed.
func sorPinned(int64) map[string]string {
	return map[string]string{
		"checksum": "518588.9130002939", "max_clock": "3329899", "sim_seconds": "0.1009060303030303",
		"messages": "1056764", "busy_instr": "729486244", "invokes": "6295552",
		"local_invokes": "5767170", "remote_invokes": "528382", "heap_contexts": "1",
		"fallbacks": "459772", "suspends": "287332", "retransmits": "0", "migrations": "0",
	}
}

func servePinned(seed int64) map[string]string {
	if seed != 1995 {
		return nil
	}
	return map[string]string{
		"requests": "149736", "ops": "598944", "rmws": "150070", "applied": "150070",
		"p50": "4288", "p99": "24320", "p999": "37376", "slo_frac": "0.9786691243254795",
		"sim_seconds": "1.0002976666666668", "messages": "1766132", "busy_instr": "767744803",
		"invokes": "598944", "local_invokes": "168255", "remote_invokes": "430689",
		"heap_contexts": "149736", "fallbacks": "0", "suspends": "145595",
		"retransmits": "19504", "migrations": "1573",
	}
}

// metric describes one reported figure. Exact metrics are counts the
// simulation fixes: every traced rep must give the same value. inJSON marks
// the per-layer metrics of BENCHMARK.json; the others are time spent in a
// layer that some workload never calls, printed in the report only.
type metric struct {
	name, unit string
	exact      bool
	inJSON     bool
}

var endToEnd = []metric{
	{name: "wall_s", unit: "s"},
	{name: "setup_s", unit: "s"},
	{name: "sim_s", unit: "s"},
	{name: "sim_instr_per_s", unit: "instr/s"},
	{name: "peak_rss_mb", unit: "MB"},
}

var perLayer = []metric{
	{"apps.build_s", "s", false, true},
	{"apps.objects", "count", true, true},
	{"apps.verify_s", "s", false, true},
	{"analysis.resolve_s", "s", false, true},
	{"sim.events", "count", true, true},
	{"sim.self_s", "s", false, true},
	{"sim.ns_per_event", "ns", false, true},
	{"sim.queue_peak", "count", true, true},
	{"sim.pdes_workers", "count", true, true},
	{"sim.pdes_rounds", "count", true, true},
	{"sim.pdes_events_per_round", "events/round", true, true},
	{"sim.pdes_busy_frac", "share", false, true},
	{"core.runone_calls", "count", true, true},
	{"core.self_s", "s", false, true},
	{"core.ns_per_runone", "ns", false, true},
	{"core.invokes", "count", true, true},
	{"core.remote_invokes", "count", true, true},
	{"core.heap_contexts", "count", true, true},
	{"core.suspends", "count", true, true},
	{"core.msgs", "count", true, true},
	{"core.retransmits", "count", true, true},
	{"core.migrations", "count", true, true},
	{"machine.delay_calls", "count", true, true},
	{"machine.delay_s", "s", false, false},
	{"machine.ns_per_delay", "ns", false, false},
	{"obsv.calls", "count", true, true},
	{"obsv.self_s", "s", false, false},
	{"obsv.ns_per_call", "ns", false, false},
	{"migrate.onaccess_calls", "count", true, true},
	{"migrate.policy_s", "s", false, false},
	{"load.requests", "count", true, true},
	{"load.gen_s", "s", false, false},
	{"go.alloc_mb", "MB", false, true},
	{"go.mallocs", "count", false, true},
	{"go.allocs_per_event", "allocs/event", false, true},
	{"go.gc_cpu_s", "s", false, true},
	{"go.heap_live_mb", "MB", false, true},
	{"trace.wall_s", "s", false, true},
	{"trace.overhead_s", "s", false, true},
}

// mallocTolerance is how far go.mallocs may differ between two traced reps
// of the same code: the runtime allocates a little on its own (timers,
// profiling buckets, goroutine stacks) independent of the workload.
const mallocTolerance = 0.001

const (
	minReps    = 3
	runTimeout = 170 * time.Second
)

func main() {
	name := flag.String("workload", "", "sor-scale, sor-pdes, serve-lossy, or all")
	seed := flag.Int64("seed", 1995, "workload seed (serve-lossy's traffic and faults; SOR's grid is fixed)")
	seconds := flag.Int("seconds", 10, "how long one run keeps starting reps")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	child := flag.String("child", "", "run one rep in this process (timed or traced) and print it as JSON")
	flag.Parse()

	if *child != "" {
		w, ok := lookup(*name)
		if !ok {
			fatalf("unknown workload %q", *name)
		}
		os.Exit(childMain(w, *seed, *child == "traced"))
	}
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if *seconds < 1 {
		fatalf("--seconds must be positive")
	}
	var sel []workload
	if *name == "all" {
		sel = workloads
	} else if w, ok := lookup(*name); ok {
		sel = []workload{w}
	} else {
		fatalf("unknown workload %q (want sor-scale, sor-pdes, serve-lossy or all)", *name)
	}

	var results []summary
	for _, w := range sel {
		if w.workers > 1 && runtime.NumCPU() < w.workers {
			fmt.Printf("%s: skipped: %d cpu, needs %d\n", w.name, runtime.NumCPU(), w.workers)
			if len(sel) == 1 {
				os.Exit(3)
			}
			continue
		}
		s, err := measure(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		s.print()
		if err := s.save(); err != nil {
			fmt.Fprintf(os.Stderr, "hostbench: %v\n", err)
		}
		results = append(results, s)
	}
	if len(results) == 0 {
		os.Exit(3)
	}
	line := resultLine{Correct: true, Metrics: map[string]value{}}
	for _, s := range results {
		line.Correct = line.Correct && s.Correct
		line.Attempted += s.Attempted
		line.Failed += s.Failed
		for k, v := range s.Metrics {
			if len(results) > 1 {
				k = s.Workload + "." + k
			}
			line.Metrics[k] = v
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(b))
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// childResult is a child process's report: one rep, or why it failed.
type childResult struct {
	Rep rep
	Err string
}

func childMain(w workload, seed int64, traced bool) int {
	var res childResult
	func() {
		defer func() {
			if p := recover(); p != nil {
				res.Err = fmt.Sprintf("panic: %v", p)
			}
		}()
		r, err := w.run(seed, traced)
		if err != nil {
			res.Err = err.Error()
			return
		}
		if traced {
			r.Layer["sim.pdes_workers"] = float64(r.Workers)
			r.Layer["sim.pdes_events_per_round"] = r.Layer["sim.events"] / r.Layer["sim.pdes_rounds"]
		}
		res.Rep = r
	}()
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "hostbench: %v\n", err)
		return 1
	}
	return 0
}

// repRecord is one child run as the parent saw it.
type repRecord struct {
	Traced    bool
	OK        bool
	Err       string `json:",omitempty"`
	PeakRSSMB float64
	Rep       rep
}

// host records what the numbers were measured on.
type host struct {
	NumCPU     int
	GOMAXPROCS int
	GOARCH     string
	GoVersion  string
	GOGC       string
}

// resultLine is the last line of standard output. With several workloads
// their metrics are prefixed with the workload name.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the result of one run of one workload.
type summary struct {
	Workload  string
	Seed      int64
	Traced    bool
	Host      host
	Correct   bool
	Attempted int
	Failed    int
	// Runs counts the good reps the reported metrics come from: untraced
	// ones for end-to-end metrics, traced ones for per-layer metrics.
	Runs    int
	Metrics map[string]value
	Report  []metric `json:"-"`
	Values  map[string]float64
	Reps    []repRecord
}

// spawn runs one rep in a child process and returns it with the child's
// peak resident memory.
func spawn(ctx context.Context, w workload, seed int64, traced bool) repRecord {
	rec := repRecord{Traced: traced}
	exe, err := os.Executable()
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	mode := "timed"
	if traced {
		mode = "traced"
	}
	cmd := exec.CommandContext(ctx, exe, "-child", mode, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10))
	cmd.Env = append(os.Environ(), "GOGC="+w.gogc)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	if ps := cmd.ProcessState; ps != nil {
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			rec.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	if runErr != nil {
		rec.Err = fmt.Sprintf("child: %v", runErr)
		return rec
	}
	var res childResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		rec.Err = fmt.Sprintf("child output: %v", err)
		return rec
	}
	rec.Rep, rec.Err = res.Rep, res.Err
	return rec
}

// check validates one rep: no error or panic, the engine the workload
// needs wherever the rep could see it, and simulated outputs equal to the
// pinned seed outputs and to the run's first good rep.
func check(w workload, seed int64, rec *repRecord, ref map[string]string) {
	switch {
	case rec.Err != "":
	case rec.Rep.Workers != 0 && rec.Rep.Workers != w.workers:
		rec.Err = fmt.Sprintf("engine ran %d workers, want %d", rec.Rep.Workers, w.workers)
	case w.pinned(seed) != nil && !maps.Equal(w.pinned(seed), rec.Rep.Out):
		rec.Err = "outputs differ from the pinned seed outputs: " + diffOut(w.pinned(seed), rec.Rep.Out)
	case ref != nil && !maps.Equal(ref, rec.Rep.Out):
		rec.Err = "outputs differ from the run's first rep: " + diffOut(ref, rec.Rep.Out)
	}
	rec.OK = rec.Err == ""
}

func diffOut(want, got map[string]string) string {
	var d []string
	for k, v := range want {
		if got[k] != v {
			d = append(d, fmt.Sprintf("%s=%q want %q", k, got[k], v))
		}
	}
	for k, v := range got {
		if _, ok := want[k]; !ok {
			d = append(d, fmt.Sprintf("%s=%q unexpected", k, v))
		}
	}
	sort.Strings(d)
	return strings.Join(d, ", ")
}

// measure runs one workload for about budget: untraced, reps repeat until
// the next could overrun it (at least minReps); traced, the protocol
// alternates traced and untraced reps, at least two traced and one
// untraced.
func measure(w workload, seed int64, budget time.Duration, traced bool) (summary, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	s := summary{
		Workload: w.name, Seed: seed, Traced: traced,
		Host: host{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.GOARCH, runtime.Version(), w.gogc},
	}
	start := time.Now()
	var ref map[string]string
	var longest time.Duration
	nTraced, nPlain := 0, 0
	for {
		enough := nPlain >= minReps
		if traced {
			enough = nTraced >= 2 && nPlain >= 1
		}
		if enough && time.Since(start)+longest > budget {
			break
		}
		if ctx.Err() != nil {
			break
		}
		t := traced && (nTraced == 0 || nTraced <= nPlain)
		repStart := time.Now()
		rec := spawn(ctx, w, seed, t)
		longest = max(longest, time.Since(repStart))
		check(w, seed, &rec, ref)
		if rec.OK && ref == nil {
			ref = rec.Rep.Out
		}
		if t {
			nTraced++
		} else {
			nPlain++
		}
		status := "ok"
		if !rec.OK {
			status = "FAILED: " + rec.Err
		}
		kind := "timed"
		if t {
			kind = "traced"
		}
		fmt.Printf("%s rep %d (%s): wall_s %.4f setup_s %.4f sim_s %.4f peak_rss_mb %.1f %s\n",
			w.name, len(s.Reps)+1, kind, rec.Rep.WallS, rec.Rep.SetupS, rec.Rep.SimS, rec.PeakRSSMB, status)
		s.Reps = append(s.Reps, rec)
	}
	var plain, tr []repRecord
	for _, r := range s.Reps {
		s.Attempted++
		if !r.OK {
			s.Failed++
			continue
		}
		if r.Traced {
			tr = append(tr, r)
		} else {
			plain = append(plain, r)
		}
	}
	s.Values = map[string]float64{"failed_frac": float64(s.Failed) / float64(s.Attempted)}
	if len(plain) > 0 {
		s.Values["wall_s"] = median(plain, func(r repRecord) float64 { return r.Rep.WallS })
		s.Values["setup_s"] = median(plain, func(r repRecord) float64 { return r.Rep.SetupS })
		s.Values["sim_s"] = median(plain, func(r repRecord) float64 { return r.Rep.SimS })
		s.Values["sim_instr_per_s"] = median(plain, func(r repRecord) float64 { return float64(r.Rep.Busy) / r.Rep.SimS })
		s.Values["peak_rss_mb"] = median(plain, func(r repRecord) float64 { return r.PeakRSSMB })
	}
	s.Correct = s.Failed == 0
	s.Runs = len(plain)
	if !traced {
		s.Report = append(endToEnd, metric{name: "failed_frac", unit: "share"})
		if len(plain) == 0 {
			return s, errors.New("no rep succeeded")
		}
		s.Metrics = pick(s.Values, endToEnd)
		return s, nil
	}

	if len(tr) < 2 || len(plain) < 1 {
		return s, errors.New("traced protocol incomplete: need two good traced reps and one untraced")
	}
	for _, m := range perLayer {
		if strings.HasPrefix(m.name, "trace.") {
			continue
		}
		first := tr[0].Rep.Layer[m.name]
		for _, r := range tr[1:] {
			v := r.Rep.Layer[m.name]
			drift := m.exact && v != first
			if m.name == "go.mallocs" {
				drift = math.Abs(v-first) > mallocTolerance*first
			}
			if drift {
				s.Correct = false
				fmt.Fprintf(os.Stderr, "hostbench: %s: %s drifted between traced reps: %v vs %v\n", w.name, m.name, first, v)
			}
		}
		if m.exact {
			s.Values[m.name] = first
		} else {
			s.Values[m.name] = median(tr, func(r repRecord) float64 { return r.Rep.Layer[m.name] })
		}
	}
	s.Values["trace.wall_s"] = median(tr, func(r repRecord) float64 { return r.Rep.WallS })
	s.Values["trace.overhead_s"] = s.Values["trace.wall_s"] - s.Values["wall_s"]
	s.Report = perLayer
	s.Runs = len(tr)
	var inJSON []metric
	for _, m := range perLayer {
		if m.inJSON {
			inJSON = append(inJSON, m)
		}
	}
	s.Metrics = pick(s.Values, inJSON)
	return s, nil
}

func pick(vals map[string]float64, ms []metric) map[string]value {
	out := map[string]value{}
	for _, m := range ms {
		out[m.name] = value{vals[m.name], m.unit}
	}
	return out
}

func median(rs []repRecord, f func(repRecord) float64) float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = f(r)
	}
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

func (s summary) print() {
	h := s.Host
	fmt.Printf("host: num_cpu=%d gomaxprocs=%d goarch=%s go=%s gogc=%s\n", h.NumCPU, h.GOMAXPROCS, h.GOARCH, h.GoVersion, h.GOGC)
	fmt.Printf("%s seed=%d traced=%v: %d runs, %d failed\n", s.Workload, s.Seed, s.Traced, s.Attempted, s.Failed)
	fmt.Printf("  %-28s %-13s %-18s %s\n", "metric", "unit", "value", "runs")
	for _, m := range s.Report {
		runs := s.Runs
		if m.name == "failed_frac" {
			runs = s.Attempted
		}
		fmt.Printf("  %-28s %-13s %-18s %d\n", m.name, m.unit, strconv.FormatFloat(s.Values[m.name], 'g', 8, 64), runs)
	}
}

// save writes the run, every rep and its spans, under .bench_build.
func (s summary) save() error {
	dir := filepath.Join(".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v.json", s.Workload, s.Seed, s.Traced)
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hostbench: "+format+"\n", args...)
	os.Exit(2)
}
