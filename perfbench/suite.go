package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"taskstream/internal/analysis/infer"
	"taskstream/internal/baseline"
	"taskstream/internal/config"
	"taskstream/internal/core"
	"taskstream/internal/experiments"
	"taskstream/internal/hostobs"
	"taskstream/internal/parallel"
	"taskstream/internal/runplan"
	"taskstream/internal/workload"
)

// The suite workload is the researcher's end-to-end job: regenerate
// every experiment in the registry at one simulation worker per CPU
// (delta-bench -j nproc), in process, with no disk store, so runplan
// dedups specs across concurrently running experiments. Its inputs are
// the committed defaults — the rendered tables must equal
// bench_results.txt — so the seed does not change them.

// goldenFile holds the committed suite render above its "# ---" line.
const goldenFile = "bench_results.txt"

func readGolden() (string, error) {
	raw, err := os.ReadFile(repoFile(goldenFile))
	if err != nil {
		return "", err
	}
	g := string(raw)
	if i := strings.Index(g, "# ---"); i >= 0 {
		g = g[:i]
	}
	return strings.TrimRight(g, "\n"), nil
}

func experimentIDs() []string {
	var ids []string
	for _, e := range experiments.Registry() {
		ids = append(ids, e.ID)
	}
	return ids
}

// setupSuite reads the golden render and generates and wires every
// suite program once, the inputs the regeneration simulates.
func setupSuite() error {
	if _, err := readGolden(); err != nil {
		return err
	}
	for _, nb := range workload.Suite() {
		w := nb.Build()
		cfg, opts := baseline.Delta.Configure(config.Default8())
		if _, err := core.NewMachine(cfg, w.Prog, w.Storage, opts); err != nil {
			return fmt.Errorf("%s: %w", nb.Name, err)
		}
	}
	return nil
}

// suiteResolver counts every spec resolve the experiments make and
// times the ones that execute, in the CPU time of the worker's thread;
// the others are answered from memory or wait on another worker's
// execution, and take microseconds of CPU. A resolve runs on one
// goroutine, which is locked to its thread for the span, so the figure
// leaves out the time the resolve waited for a CPU or the vCPU was
// stolen: with nproc workers on nproc shared vCPUs, that wait is most
// of the wall-time noise.
type suiteResolver struct {
	tr       *Tracer
	mu       sync.Mutex
	resolves int
	opMS     []float64 // executed resolves
	cycles   int64
	layer    map[string]float64
	errs     []error
}

func (r *suiteResolver) resolve(s runplan.Spec) (core.Report, error) {
	sp := r.tr.Root("runplan.resolve")
	runtime.LockOSThread()
	c0 := threadCPUTime()
	rep, src, err := runplan.Shared.RunInfo(s)
	d := ms(threadCPUTime() - c0)
	runtime.UnlockOSThread()
	r.tr.End(sp)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.resolves++
	if err != nil {
		r.errs = append(r.errs, err)
	} else if src == runplan.SourceExecuted {
		r.opMS = append(r.opMS, d)
		r.cycles += rep.Cycles
		addCounters(r.layer, rep)
	}
	return rep, err
}

// regenerate runs every experiment as experiments.All schedules them.
// Traced, it records one span per registry entry.
func regenerate(tr *Tracer) ([]experiments.Result, map[string]time.Duration, error) {
	if tr == nil {
		res, err := experiments.All()
		return res, nil, err
	}
	regs := experiments.Registry()
	expWorkers := 1
	if experiments.Workers() > 1 {
		expWorkers = len(regs)
	}
	var mu sync.Mutex
	spans := map[string]time.Duration{}
	res, err := parallel.Map(expWorkers, regs, func(_ int, e experiments.Named) (experiments.Result, error) {
		sp := tr.Root("experiments." + e.ID)
		t0 := time.Now()
		r, err := e.Fn()
		d := time.Since(t0)
		tr.End(sp)
		mu.Lock()
		spans[e.ID] = d
		mu.Unlock()
		if err != nil {
			return experiments.Result{}, fmt.Errorf("%s: %w", e.ID, err)
		}
		return r, nil
	})
	return res, spans, err
}

// runSuite regenerates the registry until budget has elapsed (at least
// once), checking each render against the committed tables. A
// background reference kernel samples the host's speed throughout, and
// the op times and sim_mcycles_per_s are scaled to reference speed by
// the median of all its samples (speed.go); suite_s keeps the raw wall
// time.
func runSuite(_ uint64, budget time.Duration, tr *Tracer) (*outcome, error) {
	golden, err := readGolden()
	if err != nil {
		return nil, err
	}
	setup, err := medianSetup(setupSuite)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	o.setup = setup
	workers := runtime.NumCPU()
	defer experiments.SetWorkers(experiments.Workers())
	experiments.SetWorkers(workers)
	reg := hostobs.NewRegistry()
	runplan.Shared.InstrumentHost(reg)
	if tr != nil {
		o.attempted++
		if o.layer["infer.infer_ms"], err = timeInfer(tr); err != nil {
			o.fail(err)
		}
	}

	var (
		walls      []float64
		opMS       []float64
		cpu        time.Duration
		res        *suiteResolver
		allocBytes uint64
		allocObjs  uint64
		cycles     int64
		spans      map[string]time.Duration
		probe      speedProbe
	)
	kernelAlloc()
	stopProbe := probe.background()
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < budget {
		res = &suiteResolver{tr: tr, layer: map[string]float64{}}
		experiments.SetResolver(res.resolve)
		runplan.Shared.Reset()
		g0, n0 := readGoStats(), probe.count()
		t0 := time.Now()
		results, sp, err := regenerate(tr)
		wall := time.Since(t0)
		g := withoutKernel(readGoStats().sub(g0), probe.count()-n0)
		cpu += g.cpu
		experiments.SetResolver(nil)
		walls = append(walls, wall.Seconds())
		spans = sp
		allocBytes += g.allocBytes
		allocObjs += g.allocObjects
		cycles += res.cycles
		opMS = append(opMS, res.opMS...)
		o.attempted += int64(res.resolves) + 1 // every resolve, plus the render check
		for _, e := range res.errs {
			o.fail(e)
		}
		if err != nil {
			o.fail(err)
			continue
		}
		if !renderMatches(results, golden) {
			o.fail(fmt.Errorf("suite render differs from %s", goldenFile))
		}
		o.goLayer(g, float64(res.resolves))
	}
	stopProbe()
	k := probe.scale()
	for _, x := range opMS {
		o.opMS = append(o.opMS, x*k)
	}
	o.fingerprint = fmt.Sprint(res.layer)
	// Per CPU second of the process, less the kernel's, for the reason
	// suiteResolver gives; suite_s keeps the wall time, idle workers at
	// the tail included.
	o.e2e["sim_mcycles_per_s"] = float64(cycles) / ((cpu - probe.kernelCPU()).Seconds() * k) / 1e6
	o.e2e["op_ms_p50"] = hdQuantile(o.opMS, 0.5)
	o.e2e["op_ms_p90"] = hdQuantile(o.opMS, 0.9)
	o.e2e["alloc_bytes_per_cycle"] = float64(allocBytes) / float64(cycles)
	o.e2e["allocs_per_cycle"] = float64(allocObjs) / float64(cycles)
	L := o.layer
	for name, v := range res.layer {
		L[name] = v
	}
	L["suite_s"] = quantile(walls, 0.5)
	c := runplan.Shared.Counters()
	L["runplan.executed"] = float64(c.Misses)
	L["runplan.memory_hits"] = float64(c.Hits)
	L["runplan.disk_hits"] = float64(c.DiskHits)
	L["runplan.dedups"] = float64(c.Dedups)
	requested := c.Misses + c.Hits + c.DiskHits + c.Dedups + c.Bypasses
	L["experiments.requested_runs"] = float64(requested)
	if requested > 0 {
		L["runplan.hit_ratio"] = float64(c.Hits+c.DiskHits+c.Dedups) / float64(requested)
	}
	L["runplan.memory_resolve_us_p50"] = 1e6 * histQuantile(resolveHistogram(reg, "memory"), 0.5)
	exe := resolveHistogram(reg, "miss")
	L["runplan.executed_resolve_ms_p50"] = 1e3 * histQuantile(exe, 0.5)
	L["parallel.busy_frac"] = exe.SumSeconds() / (walls[len(walls)-1] * float64(workers))
	for id, d := range spans {
		L["experiments."+id+"_s"] = d.Seconds()
	}
	o.notef("suite: %d regeneration(s) at %d workers, %.2fs median; %s; host speed %.3f of reference (%d kernel samples)",
		len(walls), workers, L["suite_s"], c, k, len(probe.samples))
	return o, nil
}

// renderMatches reports whether results render, as delta-bench prints
// them, to the golden tables.
func renderMatches(results []experiments.Result, golden string) bool {
	var b strings.Builder
	for _, r := range results {
		b.WriteString(r.Render())
	}
	return strings.TrimRight(b.String(), "\n") == golden
}

// timeInfer times annotation inference on every stripped suite program
// (the E15 path) and returns the mean per program.
func timeInfer(tr *Tracer) (float64, error) {
	var total time.Duration
	suite := workload.Suite()
	for _, nb := range suite {
		stripped := infer.Strip(nb.Build().Prog)
		sp := tr.Root("infer.infer")
		t0 := time.Now()
		_, _, err := infer.Infer(stripped, infer.DefaultOptions())
		total += time.Since(t0)
		tr.End(sp)
		if err != nil {
			return 0, fmt.Errorf("infer %s: %w", nb.Name, err)
		}
	}
	return ms(total) / float64(len(suite)), nil
}

// resolveHistogram returns the runner_resolve_seconds series of one
// tier from a metrics registry the runner was instrumented into.
func resolveHistogram(reg *hostobs.Registry, tier string) *hostobs.Histogram {
	return reg.Histogram("runner_resolve_seconds", "", nil, "tier", tier)
}

// histQuantile interpolates linearly inside the bucket holding rank
// q·count (the Prometheus histogram_quantile estimate), in seconds. A
// rank in the +Inf bucket reads as the last finite bound.
func histQuantile(h *hostobs.Histogram, q float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	bounds, cum := h.Bounds(), h.Cumulative()
	lo, prev := 0.0, int64(0)
	for i, hi := range bounds {
		if float64(cum[i]) >= rank {
			if cum[i] == prev {
				return hi
			}
			return lo + (hi-lo)*(rank-float64(prev))/float64(cum[i]-prev)
		}
		lo, prev = hi, cum[i]
	}
	return lo
}
