// Command perfbench is the repository's performance benchmark. One
// invocation runs one seeded workload against the simulator's public
// APIs for a fixed time, checks every output, and prints the metrics
// by name and unit; the last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
//	go run . --workload tasks --seed 1 --seconds 15 --trace 0
//
// Workloads (README.md says why each exists and which layer metric
// should move which end-to-end metric):
//
//	tasks    fine-grained, coordinator-bound programs (bfs, tri)
//	streams  coarse-grained, bandwidth-bound programs (spmv, sort, kmeans, gemm)
//	serve    closed-loop HTTP traffic against an in-process delta-serve
//	suite    one full regeneration of the experiment registry
//
// With --trace 0 the metrics are the end-to-end set, measured untraced.
// With --trace 1 the run is split: an untraced half, then a traced half
// that records a span around every call into a layer; the per-layer set
// comes from the traced half, and the difference between the halves is
// printed as the tracing overhead.
//
// Every timing is host time unless its name says simulated. The model
// has no real-hardware reference in this repository, so it is
// unvalidated and the benchmark reports no accuracy figure. Every
// simulated run starts with empty scratchpads and multicast tables, as
// the simulator's users run it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, reported by
// every workload from untraced runs. "op" is the workload's unit of
// work: one program op (tasks, streams), one HTTP request (serve), one
// spec resolve inside the regeneration (suite).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_mcycles_per_s", "Mcycle/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"alloc_bytes_per_cycle", "B/cycle"},
	{"allocs_per_cycle", "allocs/cycle"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim_cycles", "cycles"},
		{"error_rate", "ratio"},
		{"serve_warm_ms_p50", "ms"},
		{"serve_warm_ms_p99", "ms"},
		{"serve_cold_ms_p50", "ms"},
		{"serve_cold_ms_p90", "ms"},
		{"serve_rps", "req/s"},
		{"suite_s", "s"},
		{"peak_rss_mb", "MiB"},
		{"trace.overhead_frac", "ratio"},
		{"workload.build_ms", "ms"},
		{"workload.verify_ms", "ms"},
		{"analysis.analyze_ms", "ms"},
		{"core.new_machine_ms", "ms"},
		{"core.run_ms", "ms"},
		{"core.run_ns_per_task", "ns/task"},
	}
	for _, p := range append(tasksPrograms(0), streamsPrograms(0)...) {
		defs = append(defs, metricDef{"core.ns_per_cycle." + p.name, "ns/cycle"})
	}
	for _, c := range simCounters {
		defs = append(defs, metricDef{c.metric, "count"})
	}
	defs = append(defs,
		metricDef{"noc.run_ns_per_flit_cycle", "ns/flit-cycle"},
		metricDef{"sim.executed_cycles", "cycles"},
		metricDef{"sim.skipped_cycles", "cycles"},
		metricDef{"sim.skip_frac", "ratio"},
		metricDef{"go.gc_cycles", "gc/op"},
		metricDef{"go.gc_cpu_frac", "ratio"},
		metricDef{"go.alloc_bytes", "B/op"},
		metricDef{"runplan.executed", "count"},
		metricDef{"runplan.memory_hits", "count"},
		metricDef{"runplan.disk_hits", "count"},
		metricDef{"runplan.dedups", "count"},
		metricDef{"runplan.hit_ratio", "ratio"},
		metricDef{"runplan.memory_resolve_us_p50", "us"},
		metricDef{"runplan.executed_resolve_ms_p50", "ms"},
		metricDef{"store.load_ms_p50", "ms"},
		metricDef{"store.save_ms_p50", "ms"},
		metricDef{"store.saves", "count"},
		metricDef{"store.load_hits", "count"},
		metricDef{"store.bytes", "B"},
		metricDef{"store.http_self_us_mean", "us"},
	)
	for _, id := range experimentIDs() {
		defs = append(defs, metricDef{"experiments." + id + "_s", "s"})
	}
	return append(defs,
		metricDef{"experiments.requested_runs", "count"},
		metricDef{"parallel.busy_frac", "ratio"},
		metricDef{"infer.infer_ms", "ms"},
	)
}()

// workloadFigures are end-to-end figures that cannot carry a bound: they
// exist on only some workloads (the bounded set must be measured on
// every one), never leave 0 (error_rate), read the same on every suite
// run (sim_cycles), or swing with GC timing (peak_rss_mb spans 18–32
// MiB over runs of one tasks seed). They are reported as per-layer
// metrics, and untraced runs print them too.
var workloadFigures = map[string][]string{
	"tasks":   {"sim_cycles", "error_rate", "peak_rss_mb"},
	"streams": {"sim_cycles", "error_rate", "peak_rss_mb"},
	"serve":   {"serve_warm_ms_p50", "serve_warm_ms_p99", "serve_cold_ms_p50", "serve_cold_ms_p90", "serve_rps", "error_rate", "peak_rss_mb"},
	"suite":   {"suite_s", "sim_cycles", "error_rate", "peak_rss_mb"},
}

// outcome is what one measured phase of a workload produced.
type outcome struct {
	attempted, failed int64
	setup             time.Duration
	e2e, layer        map[string]float64
	// opMS holds every op's latency; its mean against the untraced
	// phase's is the tracing overhead.
	opMS []float64
	// fingerprint digests every simulated counter of the phase; the
	// untraced and traced phases of one seed must agree.
	fingerprint string
	errs        []error
	notes       []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// maxReportedErrors bounds how many failures are printed; all are
// counted.
const maxReportedErrors = 10

func (o *outcome) fail(err error) {
	o.failed++
	if len(o.errs) < maxReportedErrors {
		o.errs = append(o.errs, err)
	}
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// goLayer records the Go runtime's share of a phase of n ops.
func (o *outcome) goLayer(g goStats, n float64) {
	o.layer["go.gc_cycles"] = float64(g.gcCycles) / n
	o.layer["go.gc_cpu_frac"] = g.gcFrac()
	o.layer["go.alloc_bytes"] = float64(g.allocBytes) / n
}

// A run repeats its set-up at least minSetupReps times and until
// setupBudget has passed, at most maxSetupReps times; setup_s is the
// median, so a few slow repetitions do not move it, and a cheap set-up
// gets more of them.
const (
	minSetupReps = 5
	maxSetupReps = 25
	setupBudget  = time.Second
)

// medianSetup repeats fn, each time after one reference kernel sample,
// and returns the median wall time at reference speed (speed.go).
func medianSetup(fn func() error) (time.Duration, error) {
	var p speedProbe
	var ds []float64
	start := time.Now()
	for len(ds) < minSetupReps || (len(ds) < maxSetupReps && time.Since(start) < setupBudget) {
		p.sample()
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(quantile(ds, 0.5) * p.scale()), nil
}

// workloads maps each workload name to its measured phase.
var workloads = map[string]func(seed uint64, budget time.Duration, tr *Tracer) (*outcome, error){
	"tasks": func(seed uint64, b time.Duration, tr *Tracer) (*outcome, error) {
		return runPrograms(tasksPrograms(seed), b, tr)
	},
	"streams": func(seed uint64, b time.Duration, tr *Tracer) (*outcome, error) {
		return runPrograms(streamsPrograms(seed), b, tr)
	},
	"serve": runServe,
	"suite": runSuite,
}

// traceDir is where traced runs dump their spans, relative to the
// directory the benchmark runs in.
const traceDir = ".bench_build/perfbench-trace"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: tasks, streams, serve or suite")
	seed := flag.Int64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Float64("seconds", 15, "measured time per run, in seconds (the suite always regenerates once)")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if err := run(os.Stdout, *name, uint64(*seed), time.Duration(*seconds*float64(time.Second)), *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one benchmark invocation and writes the report, ending
// with the JSON result line.
func run(w io.Writer, name string, seed uint64, budget time.Duration, traced bool) error {
	fn, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want tasks, streams, serve or suite)", name)
	}
	if budget <= 0 {
		return errors.New("--seconds must be positive")
	}
	host := newHostRecord(seed)
	hb, _ := json.Marshal(host)
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g trace=%v\n", name, seed, budget.Seconds(), traced)
	fmt.Fprintf(w, "host %s\n", hb)
	fmt.Fprintln(w, "model: unvalidated (no real-hardware reference in the repository; no accuracy figure);"+
		" every simulated run starts with empty scratchpads and multicast tables")

	if !traced {
		o, err := fn(seed, budget, nil)
		if err != nil {
			return err
		}
		o.e2e["setup_s"] = o.setup.Seconds()
		o.layer["peak_rss_mb"] = peakRSSMiB()
		o.layer["error_rate"] = float64(o.failed) / float64(o.attempted)
		printOutcome(w, o)
		for _, d := range perLayer {
			if slices.Contains(workloadFigures[name], d.name) {
				fmt.Fprintf(w, "  %-36s %16.6g %s (unbounded)\n", d.name, o.layer[d.name], d.unit)
			}
		}
		return printResult(w, o, endToEnd, o.e2e)
	}

	base, err := fn(seed, budget/2, nil)
	if err != nil {
		return err
	}
	tr := NewTracer()
	o, err := fn(seed, budget/2, tr)
	if err != nil {
		return err
	}
	o.attempted += base.attempted
	o.failed += base.failed
	o.errs = append(base.errs, o.errs...)
	if base.fingerprint != o.fingerprint {
		o.fail(errors.New("simulated counters differ between the untraced and traced phases"))
	}
	overhead := mean(o.opMS)/mean(base.opMS) - 1
	o.layer["trace.overhead_frac"] = overhead
	o.layer["error_rate"] = float64(o.failed) / float64(o.attempted)
	o.layer["peak_rss_mb"] = peakRSSMiB()
	spans := tr.Spans()
	if name == "serve" {
		AdoptByKey(spans, "serve.request", "store.load")
		AdoptByKey(spans, "serve.request", "store.save")
	}
	path, err := DumpSpans(traceDir, fmt.Sprintf("%s-seed%d.json", name, seed), host, spans)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "traced: %d spans dumped to %s\n", len(spans), path)
	WriteSelfTable(w, Layers(spans))
	fmt.Fprintf(w, "tracing overhead: %+.2f%% mean op time (untraced %.3f ms, traced %.3f ms)\n",
		100*overhead, mean(base.opMS), mean(o.opMS))
	printOutcome(w, o)
	return printResult(w, o, perLayer, o.layer)
}

func printOutcome(w io.Writer, o *outcome) {
	for _, n := range o.notes {
		fmt.Fprintln(w, n)
	}
	fmt.Fprintf(w, "ops: attempted=%d failed=%d error_rate=%g\n", o.attempted, o.failed,
		float64(o.failed)/float64(max(o.attempted, 1)))
	for _, err := range o.errs {
		fmt.Fprintln(w, "  failed:", err)
	}
}

// printResult prints defs by name and unit, then the JSON line.
// Metrics a workload did not produce read 0, and so do metrics left
// undefined by failed ops (a run whose every Run failed has no cycles).
func printResult(w io.Writer, o *outcome, defs []metricDef, vals map[string]float64) error {
	res := result{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			if o.failed == 0 {
				return fmt.Errorf("metric %s is not a number (%v)", d.name, v)
			}
			v = 0
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "  %-36s %16.6g %s\n", d.name, v, d.unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// repoFile resolves a path relative to the repository root: the
// benchmark runs from the root, its tests from perfbench/.
func repoFile(rel string) string {
	if _, err := os.Stat(rel); err == nil {
		return rel
	}
	return filepath.Join("..", rel)
}
