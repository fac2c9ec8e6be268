package main

import (
	"fmt"
	"time"

	"taskstream/internal/analysis"
	"taskstream/internal/baseline"
	"taskstream/internal/config"
	"taskstream/internal/core"
	"taskstream/internal/sim"
	"taskstream/internal/workload"
)

// program is one seeded input of the tasks or streams workload: a
// generator call and the execution model it runs under.
type program struct {
	name    string // metric suffix, e.g. "bfs13-static"
	variant baseline.Variant
	build   func() *workload.Workload
}

// tasksPrograms is the fine-grained, coordinator-bound set: thousands
// of small tasks and wide pending queues. Two scales per generator make
// a cost that grows faster than the queue show as a slope.
func tasksPrograms(seed uint64) []program {
	var out []program
	gens := []struct {
		name string
		mk   func(seed uint64) *workload.Workload
	}{
		{"bfs12", func(s uint64) *workload.Workload {
			p := workload.DefaultBFS()
			p.Scale, p.Seed = 12, s
			return workload.BFS(p)
		}},
		{"bfs13", func(s uint64) *workload.Workload {
			p := workload.DefaultBFS()
			p.Scale, p.Seed = 13, s
			return workload.BFS(p)
		}},
		{"tri10", func(s uint64) *workload.Workload {
			p := workload.DefaultTri()
			p.Scale, p.Seed = 10, s
			return workload.Tri(p)
		}},
		{"tri11", func(s uint64) *workload.Workload {
			p := workload.DefaultTri()
			p.Scale, p.Seed = 11, s
			return workload.Tri(p)
		}},
	}
	for i, g := range gens {
		s, mk := subSeed(seed, i), g.mk
		for _, v := range []baseline.Variant{baseline.Delta, baseline.Static} {
			out = append(out, program{
				name:    g.name + "-" + v.String(),
				variant: v,
				build:   func() *workload.Workload { return mk(s) },
			})
		}
	}
	return out
}

// streamsPrograms is the coarse-grained, bandwidth-bound set under
// Delta: 16–128 tasks each, so the stream engines, NoC, memory and the
// tick loop do the work and the coordinator idles.
func streamsPrograms(seed uint64) []program {
	mk := []struct {
		name  string
		build func(s uint64) *workload.Workload
	}{
		{"spmv", func(s uint64) *workload.Workload {
			p := workload.DefaultSpMV()
			p.Seed = s
			return workload.SpMV(p)
		}},
		{"sort", func(s uint64) *workload.Workload {
			p := workload.DefaultSort()
			p.Seed = s
			return workload.MergeSort(p)
		}},
		{"kmeans", func(s uint64) *workload.Workload {
			p := workload.DefaultKMeans()
			p.Seed = s
			return workload.KMeans(p)
		}},
		{"gemm", func(s uint64) *workload.Workload {
			p := workload.DefaultGEMM()
			p.Seed = s
			return workload.GEMM(p)
		}},
	}
	out := make([]program, len(mk))
	for i, m := range mk {
		s, b := subSeed(seed, i), m.build
		out[i] = program{
			name:    m.name + "-" + baseline.Delta.String(),
			variant: baseline.Delta,
			build:   func() *workload.Workload { return b(s) },
		}
	}
	return out
}

// simCounters are the Report.Stats names the per-layer metrics expose,
// keyed by metric name. Each is a simulated work count: any host-speed
// change must leave it identical.
var simCounters = []struct{ metric, stat string }{
	{"core.tasks_dispatched", "tasks_dispatched"},
	{"core.fwd_pairs", "fwd_pairs"},
	{"core.mcast_lines_saved", "mcast_lines_saved"},
	{"core.fire_cycles", "fire_cycles"},
	{"core.stall_in_dram", "stall_in_dram"},
	{"core.config_stalls", "config_stalls"},
	{"stream.dram_line_reads", "lane_dram_line_reads"},
	{"stream.spad_accesses", "spad_accesses"},
	{"stream.fwd_msgs", "fwd_msgs"},
	{"noc.msgs", "noc_msgs"},
	{"noc.flit_cycles", "noc_flit_cycles"},
	{"noc.replicas", "noc_replicas"},
	{"mem.dram_lines_read", "dram_lines_read"},
	{"mem.dram_lines_written", "dram_lines_written"},
	{"mem.dram_busy_cycles", "dram_busy_cycles"},
}

// fingerprint renders every simulated counter of a report; two runs of
// one program must produce the same string.
func fingerprint(rep core.Report) string {
	return fmt.Sprintf("cycles=%d busy=%v %s", rep.Cycles, rep.LaneBusy, rep.Stats.String())
}

// addCounters sums rep's simulated counters into layer.
func addCounters(layer map[string]float64, rep core.Report) {
	layer["sim_cycles"] += float64(rep.Cycles)
	for _, c := range simCounters {
		layer[c.metric] += float64(rep.Stats.Get(c.stat))
	}
}

// setupPrograms is the tasks/streams set-up: generate every input of
// the set and wire its machine, as a user does before the first run.
func setupPrograms(progs []program) error {
	for _, p := range progs {
		w := p.build()
		cfg, opts := p.variant.Configure(config.Default8())
		if _, err := core.NewMachine(cfg, w.Prog, w.Storage, opts); err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
	}
	return nil
}

// opResult is one program op as measured: the wall time of the op and
// of each step.
type opResult struct {
	total, build, newMachine, run, verify time.Duration
	alloc                                 goStats // during Machine.Run
	rep                                   core.Report
	err                                   error
}

// runOp builds the program fresh, wires a machine, runs it and checks
// its results: one op, on the calling goroutine. Traced and untraced
// ops make the same calls; only span recording differs.
func runOp(p program, tr *Tracer) (r opResult) {
	t0 := time.Now()
	op := tr.Root("op")
	defer func() {
		tr.End(op)
		r.total = time.Since(t0)
	}()
	sp := tr.Child(op, "workload.build")
	w := p.build()
	tr.End(sp)
	r.build = time.Since(t0)
	cfg, opts := p.variant.Configure(config.Default8())
	t1 := time.Now()
	sp = tr.Child(op, "core.new_machine")
	m, err := core.NewMachine(cfg, w.Prog, w.Storage, opts)
	tr.End(sp)
	r.newMachine = time.Since(t1)
	if err != nil {
		r.err = fmt.Errorf("%s: %w", p.name, err)
		return r
	}
	a0 := readGoStats()
	t2 := time.Now()
	sp = tr.Child(op, "core.run")
	r.rep, err = m.Run()
	tr.End(sp)
	r.run = time.Since(t2)
	r.alloc = readGoStats().sub(a0)
	if err != nil {
		r.err = fmt.Errorf("%s: run: %w", p.name, err)
		return r
	}
	t3 := time.Now()
	sp = tr.Child(op, "workload.verify")
	err = w.Verify()
	tr.End(sp)
	r.verify = time.Since(t3)
	if err != nil {
		r.err = fmt.Errorf("%s: verify: %w", p.name, err)
	}
	return r
}

// timeAnalysis calls analysis.Analyze once on every program of the set,
// each freshly built, under its own root span, and returns the mean time
// per program. It runs before a traced phase's measured ops, so the op
// times and the Go runtime meters of both phases cover the same calls.
func timeAnalysis(progs []program, tr *Tracer, o *outcome) float64 {
	var total time.Duration
	for _, p := range progs {
		w := p.build()
		sp := tr.Root("analysis.analyze")
		t0 := time.Now()
		rep := analysis.Analyze(w.Prog)
		total += time.Since(t0)
		tr.End(sp)
		o.attempted++
		if n := rep.Errors(); n > 0 {
			o.fail(fmt.Errorf("%s: analysis: %d errors", p.name, n))
		}
	}
	return ms(total) / float64(len(progs))
}

// runPrograms is the tasks and streams workloads: set up, then whole
// passes over the program set, one op at a time, until budget has
// elapsed (at least one pass). Every pass of a program must repeat the
// simulated counters of its first pass. A reference kernel sample
// precedes every op; op times and sim_mcycles_per_s are wall times
// scaled to reference speed by the samples around each op, set-up by
// the set-up's samples (speed.go).
func runPrograms(progs []program, budget time.Duration, tr *Tracer) (*outcome, error) {
	setup, err := medianSetup(func() error { return setupPrograms(progs) })
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	o.setup = setup
	ref := make([]string, len(progs))
	var (
		buildT, newT, runT, verT time.Duration
		cycles, tasks            int64
		alloc, g                 goStats
		probe                    speedProbe
		perRun                   = make([]time.Duration, len(progs))
		perCycles                = make([]int64, len(progs))
		perOp                    = make([][]float64, len(progs)) // ms
		perAt                    = make([][]int, len(progs))     // kernel sample before the op
	)
	if tr != nil {
		o.layer["analysis.analyze_ms"] = timeAnalysis(progs, tr, o)
		sim.ResetHostProf()
		sim.SetHostProf(true)
		defer sim.SetHostProf(false)
	}
	start := time.Now()
	passes := 0
	for passes == 0 || time.Since(start) < budget {
		for i, p := range progs {
			probe.sample()
			g0 := readGoStats()
			r := runOp(p, tr)
			g = g.add(readGoStats().sub(g0))
			o.attempted++
			perOp[i] = append(perOp[i], ms(r.total))
			perAt[i] = append(perAt[i], probe.count()-1)
			if r.err != nil {
				o.fail(r.err)
				continue
			}
			fp := fingerprint(r.rep)
			if passes == 0 {
				ref[i] = fp
				addCounters(o.layer, r.rep)
			} else if fp != ref[i] {
				o.fail(fmt.Errorf("%s: simulated counters differ from the first pass", p.name))
			}
			buildT += r.build
			newT += r.newMachine
			runT += r.run
			verT += r.verify
			alloc.allocBytes += r.alloc.allocBytes
			alloc.allocObjects += r.alloc.allocObjects
			cycles += r.rep.Cycles
			tasks += r.rep.Stats.Get("tasks_dispatched")
			perRun[i] += r.run
			perCycles[i] += r.rep.Cycles
		}
		passes++
	}
	wall := time.Since(start)
	o.fingerprint = fmt.Sprint(ref)
	var totalMS float64
	for i, xs := range perOp {
		for j := range xs {
			xs[j] *= probe.scaleAt(perAt[i][j])
			totalMS += xs[j]
		}
		o.opMS = append(o.opMS, xs...)
	}

	n := float64(len(o.opMS))
	o.e2e["sim_mcycles_per_s"] = float64(cycles) / (totalMS / 1e3) / 1e6
	// Each program weighs the same: a percentile of the pooled ops
	// would sit on the edge between two programs' latency clusters and
	// jump with one slow op.
	var p50, p90 float64
	for _, xs := range perOp {
		p50 += quantile(xs, 0.5) / float64(len(perOp))
		p90 += quantile(xs, 0.9) / float64(len(perOp))
	}
	o.e2e["op_ms_p50"] = p50
	o.e2e["op_ms_p90"] = p90
	o.e2e["alloc_bytes_per_cycle"] = float64(alloc.allocBytes) / float64(cycles)
	o.e2e["allocs_per_cycle"] = float64(alloc.allocObjects) / float64(cycles)

	// Per-layer times are raw wall times: they explain where an op's
	// time goes within one run, not across runs.
	L := o.layer
	L["workload.build_ms"] = ms(buildT) / n
	L["workload.verify_ms"] = ms(verT) / n
	L["core.new_machine_ms"] = ms(newT) / n
	L["core.run_ms"] = ms(runT) / n
	L["core.run_ns_per_task"] = float64(runT.Nanoseconds()) / float64(tasks)
	for i, p := range progs {
		L["core.ns_per_cycle."+p.name] = float64(perRun[i].Nanoseconds()) / float64(perCycles[i])
	}
	if flits := L["noc.flit_cycles"] * float64(passes); flits > 0 {
		L["noc.run_ns_per_flit_cycle"] = float64(runT.Nanoseconds()) / flits
	}
	L["parallel.busy_frac"] = ms(runT+buildT+newT+verT) / ms(wall)
	o.goLayer(g, n)
	if tr != nil {
		hp := sim.HostProfSnapshot()
		L["sim.executed_cycles"] = float64(hp.ExecutedCycles) / float64(passes)
		L["sim.skipped_cycles"] = float64(hp.SkippedCycles) / float64(passes)
		if tot := hp.ExecutedCycles + hp.SkippedCycles; tot > 0 {
			L["sim.skip_frac"] = float64(hp.SkippedCycles) / float64(tot)
		}
	}
	o.notef("ops: %d in %d passes over %d programs, %.2fs measured; host speed %.3f of reference (%d kernel samples)",
		len(o.opMS), passes, len(progs), wall.Seconds(), probe.scale(), probe.count())
	return o, nil
}
