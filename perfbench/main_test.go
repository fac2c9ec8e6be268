package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"taskstream/internal/hostobs"
	"taskstream/internal/runplan"
	"taskstream/internal/workload"
)

// lastResult runs one invocation and decodes its final stdout line.
func lastResult(t *testing.T, name string, budget time.Duration, traced bool) (result, string) {
	t.Helper()
	var out bytes.Buffer
	if err := run(&out, name, 3, budget, traced); err != nil {
		t.Fatalf("%s: %v\n%s", name, err, out.String())
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", name, err, out.String())
	}
	return res, out.String()
}

// checkMetrics asserts res holds exactly defs, each with its unit, and
// that every end-to-end value is a positive measurement.
func checkMetrics(t *testing.T, name string, res result, defs []metricDef, positive bool) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", name, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", name, d.name)
		case m.Unit != d.unit:
			t.Errorf("%s: metric %s unit %q, want %q", name, d.name, m.Unit, d.unit)
		case positive && !(m.Value > 0):
			t.Errorf("%s: metric %s = %v, want > 0", name, d.name, m.Value)
		}
	}
}

// TestWorkloadsReportEveryMetric runs each workload at minimal size:
// untraced it prints every end-to-end metric, traced every per-layer
// metric, and the layers each workload exists to exercise are non-zero.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	exercised := map[string][]string{
		"tasks":   {"core.run_ms", "core.ns_per_cycle.bfs13-static", "core.run_ns_per_task", "workload.build_ms", "analysis.analyze_ms", "go.gc_cycles", "sim.executed_cycles", "sim_cycles"},
		"streams": {"core.ns_per_cycle.spmv-delta", "noc.run_ns_per_flit_cycle", "noc.flit_cycles", "stream.spad_accesses", "mem.dram_lines_read"},
		"serve":   {"serve_warm_ms_p50", "serve_cold_ms_p90", "serve_rps", "runplan.disk_hits", "runplan.memory_resolve_us_p50", "store.save_ms_p50", "store.load_ms_p50", "store.http_self_us_mean"},
		"suite":   {"suite_s", "experiments.E16_s", "experiments.requested_runs", "parallel.busy_frac", "infer.infer_ms", "runplan.memory_hits", "runplan.hit_ratio"},
	}
	for _, name := range sortedKeys(workloads) {
		t.Run(name, func(t *testing.T) {
			if name == "suite" && testing.Short() {
				t.Skip("a suite run regenerates every experiment")
			}
			res, _ := lastResult(t, name, time.Millisecond, false)
			checkMetrics(t, name, res, endToEnd, true)
			res, out := lastResult(t, name, 2*time.Millisecond, true)
			checkMetrics(t, name+" traced", res, perLayer, false)
			for _, m := range exercised[name] {
				if !(res.Metrics[m].Value > 0) {
					t.Errorf("%s traced: %s = %v, want > 0", name, m, res.Metrics[m].Value)
				}
			}
			for _, want := range []string{"host {\"seed\":3,", "self_ms", "tracing overhead:", "unvalidated"} {
				if !strings.Contains(out, want) {
					t.Errorf("%s traced: report lacks %q", name, want)
				}
			}
		})
	}
}

// TestBenchmarkJSONMatches pins BENCHMARK.json to the metrics and
// workloads this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(repoFile("BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), "tasks,streams,serve,suite"; got != want {
		t.Errorf("workloads %s, want %s", got, want)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", what, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d] = %s %s, want %s %s", what, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// TestBrokenInputsCountAsFailures feeds deliberately broken inputs
// through the benchmark's own checks; each must count as failed.
func TestBrokenInputsCountAsFailures(t *testing.T) {
	t.Run("unresolvable wire spec", func(t *testing.T) {
		d, err := startDaemon(t.TempDir(), 1)
		if err != nil {
			t.Fatal(err)
		}
		defer d.stop()
		cl := newClient(d.url)
		defer cl.close()
		env := &serveEnv{d: d, want: map[string][]byte{}}
		bad := runplan.WireSpec{Workload: "no-such-workload"}
		r := env.request(cl, bad, true, nil)
		if r.err == nil || !strings.Contains(r.err.Error(), "HTTP 400") {
			t.Fatalf("unresolvable spec: err = %v, want an HTTP 400 failure", r.err)
		}
		hot, _, err := serveSpecs(1)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := cl.run(hot[0])
		if err != nil {
			t.Fatal(err)
		}
		env.want[resp.Key] = append([]byte(nil), resp.Report...)
		env.want[resp.Key][len(resp.Report)/2] ^= 1
		if r := env.request(cl, hot[0], false, nil); r.err == nil {
			t.Fatal("a cached answer that differs from the executed report was not counted")
		}
	})
	t.Run("failed verify", func(t *testing.T) {
		p := tasksPrograms(1)[4] // tri10, the cheapest
		build := p.build
		p.build = func() *workload.Workload {
			w := build()
			w.Verify = func() error { return errors.New("deliberately wrong result") }
			return w
		}
		o, err := runPrograms([]program{p}, time.Millisecond, nil)
		if err != nil {
			t.Fatal(err)
		}
		if o.failed != o.attempted || o.attempted == 0 {
			t.Fatalf("failed %d of %d ops, want all", o.failed, o.attempted)
		}
		var out bytes.Buffer
		if err := printResult(&out, o, endToEnd, o.e2e); err != nil {
			t.Fatalf("a failing run printed no result: %v", err)
		}
		if !strings.Contains(out.String(), `{"correct":false,`) {
			t.Fatalf("failing run's result:\n%s", out.String())
		}
	})
	t.Run("suite render", func(t *testing.T) {
		golden, err := readGolden()
		if err != nil {
			t.Fatal(err)
		}
		if renderMatches(nil, golden) {
			t.Fatal("an empty render matched the committed tables")
		}
	})
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a
		{ID: 4, Parent: 3, Name: "c", Start: 50, End: 70}, // runs past its parent
	}
	self := SelfTimes(spans)
	for id, want := range map[int64]time.Duration{1: 50, 2: 30, 3: 20, 4: 20} {
		if self[id] != want {
			t.Errorf("span %d self = %d, want %d", id, self[id], want)
		}
	}
}

func TestAdoptByKey(t *testing.T) {
	spans := []Span{
		{ID: 1, Group: 1, Name: "serve.request", Key: "k", Start: 0, End: 100},
		{ID: 2, Group: 2, Name: "serve.request", Key: "j", Start: 0, End: 100},
		{ID: 3, Group: 3, Name: "store.save", Key: "k", Start: 10, End: 20},
		{ID: 4, Group: 4, Name: "store.save", Key: "k", Start: 90, End: 120}, // outlives every request
	}
	AdoptByKey(spans, "serve.request", "store.save")
	if spans[2].Parent != 1 || spans[2].Group != 1 {
		t.Errorf("enclosed save: parent %d group %d, want 1 1", spans[2].Parent, spans[2].Group)
	}
	if spans[3].Parent != 0 {
		t.Errorf("unenclosed save adopted by %d", spans[3].Parent)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 2.5}, {0.9, 3.7}, {1, 4}} {
		if got := quantile(xs, c.p); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	for _, c := range []struct {
		xs      []float64
		p, want float64
	}{
		{[]float64{7}, 0.9, 7},
		{[]float64{2, 2, 2, 2}, 0.5, 2},
		{[]float64{5, 1, 4, 2, 3}, 0.5, 3}, // symmetric about 3
	} {
		if got := hdQuantile(c.xs, c.p); math.Abs(got-c.want) > 1e-6 {
			t.Errorf("hdQuantile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	// Two clusters with a gap: the estimate moves little when two ops
	// change sides of the median, the linear one crosses the gap.
	var gap []float64
	for i := 0; i < 51; i++ {
		gap = append(gap, 100+float64(i), 200+float64(i))
	}
	moved := append(append([]float64(nil), gap[:len(gap)-1]...), 150)
	if d := math.Abs(hdQuantile(moved, 0.5) - hdQuantile(gap, 0.5)); d > 10 {
		t.Errorf("Harrell–Davis median moved by %v when one op entered the gap", d)
	}
	h := hostobs.NewHistogram([]float64{1, 3})
	for _, s := range []float64{0.5, 0.5, 2, 2} {
		h.ObserveSeconds(s)
	}
	if got := histQuantile(h, 0.75); got != 2 {
		t.Errorf("histogram p75 = %v, want 2", got)
	}
}

func TestSpeedProbe(t *testing.T) {
	var p speedProbe
	if got := p.scale(); got != 1 {
		t.Errorf("scale with no samples = %v, want 1", got)
	}
	for _, d := range []float64{refKernelMS, 2 * refKernelMS, 4 * refKernelMS} {
		p.record(d, 0, 0)
	}
	if got := p.scale(); got != 0.5 {
		t.Errorf("scale at half the reference speed = %v, want 0.5", got)
	}
	// The host halves its speed after ten samples: an op's local scale
	// follows, the phase's scale does not.
	var d speedProbe
	for i := 0; i < 20; i++ {
		d.record(refKernelMS*float64(1+i/10), 0, 0)
	}
	if got := d.scaleAt(2); got != 1 {
		t.Errorf("local scale before the change = %v, want 1", got)
	}
	if got := d.scaleAt(17); got != 0.5 {
		t.Errorf("local scale after the change = %v, want 0.5", got)
	}
	if got, none := d.scaleAt(99), (&speedProbe{}).scaleAt(0); got != 0.5 || none != 1 {
		t.Errorf("scaleAt past the end = %v, with no samples = %v; want 0.5, 1", got, none)
	}
	var bg speedProbe
	stop := bg.background()
	time.Sleep(50 * time.Millisecond)
	stop()
	n := bg.count()
	if n == 0 || bg.kernelCPU() <= 0 {
		t.Fatalf("background sampler took %d samples, %v CPU", n, bg.kernelCPU())
	}
	time.Sleep(probePeriod + 50*time.Millisecond)
	if bg.count() != n {
		t.Error("background sampler still running after stop")
	}
}

func TestKernelAllocSubtracted(t *testing.T) {
	k := kernelAlloc()
	if k.allocBytes == 0 || k.allocObjects == 0 {
		t.Fatalf("kernel allocation %+v, want > 0", k)
	}
	g := goStats{allocBytes: 10 * k.allocBytes, allocObjects: 10 * k.allocObjects}
	if got := withoutKernel(g, 3); got.allocBytes != 7*k.allocBytes || got.allocObjects != 7*k.allocObjects {
		t.Errorf("withoutKernel(10 calls' allocation, 3) = %+v", got)
	}
}
