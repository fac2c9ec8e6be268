// delta-bench regenerates every table and figure of the evaluation
// (experiments E1–E14 in DESIGN.md) and prints them as aligned text
// tables. Select a subset with -only; fan independent simulations out
// across CPUs with -j; write machine-readable per-experiment metrics
// with -json. Tables always appear on stdout in experiment order and
// are byte-identical at any -j and with the run cache on or off
// (timing and cache-counter lines go to stderr), so
// `delta-bench > bench_results.txt` is reproducible however the run
// was parallelized or memoized. Duplicate simulations across
// experiments resolve through the shared run-plan cache
// (internal/runplan, DESIGN.md §12); set TASKSTREAM_NO_RUNCACHE=1 to
// force every spec to execute.
//
// Usage:
//
//	delta-bench            # everything, one simulation per CPU
//	delta-bench -j 1       # strictly serial, today's single-core behavior
//	delta-bench -only E3,E4
//	delta-bench -json bench.json                 # also dump {id,title,metrics}
//	delta-bench -only E6 -cpuprofile cpu.pprof   # profile the hot loop
//	delta-bench -server http://localhost:8177    # resolve runs via delta-serve
//
// With -server, every simulation resolves through a delta-serve
// daemon instead of executing in-process: a warm daemon answers the
// whole suite from its content-addressed store at memory speed, and
// stdout stays byte-identical to a local run (the client-side cache
// tally goes to stderr).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"taskstream/internal/core"
	"taskstream/internal/experiments"
	"taskstream/internal/obs"
	"taskstream/internal/parallel"
	"taskstream/internal/runplan"
	"taskstream/internal/sim"
	"taskstream/internal/store"
)

func main() {
	only := flag.String("only", "", "comma-separated experiment ids (e.g. E3,E10)")
	jsonPath := flag.String("json", "", "write per-experiment {id, title, metrics} JSON to this file")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "max concurrent simulations (1 = serial)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	server := flag.String("server", "", "resolve simulations through the delta-serve daemon at this URL")
	policy := flag.String("policy", "",
		"dispatch policy for every dynamic-dispatch run ("+strings.Join(core.PolicyNames(), ", ")+"); empty reads TASKSTREAM_POLICY")
	hostprof := flag.Bool("hostprof", false,
		"profile host wall-clock time inside the engines; run totals to stderr (stdout unchanged)")
	flag.Parse()
	if *jobs < 1 {
		fmt.Fprintf(os.Stderr, "delta-bench: -j must be >= 1 (got %d)\n", *jobs)
		os.Exit(1)
	}
	if *policy != "" {
		if _, err := core.ParsePolicy(*policy); err != nil {
			fmt.Fprintf(os.Stderr, "delta-bench: %v\n", err)
			os.Exit(2)
		}
	}
	if *policy != "" {
		// The experiment definitions build their own core.Options, and
		// the run-time-dispatch baseline variants resolve their
		// scheduler via core.AmbientPolicy, so the flag rides the
		// environment. The policy lands in every cache key (distinct
		// policies never share entries). E16 pins its own policies
		// explicitly and is unaffected.
		os.Setenv("TASKSTREAM_POLICY", *policy)
	}
	experiments.SetWorkers(*jobs)
	if *hostprof {
		sim.SetHostProf(true)
	}

	var client *store.Client
	if *server != "" {
		client = store.NewClient(*server)
		if err := client.WaitReady(10 * time.Second); err != nil {
			fmt.Fprintf(os.Stderr, "delta-bench: -server: %v\n", err)
			os.Exit(1)
		}
		experiments.SetResolver(client.Resolve)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "delta-bench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "delta-bench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "delta-bench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // get up-to-date allocation statistics
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "delta-bench: -memprofile: %v\n", err)
			}
		}()
	}

	sel, unknown := selectExperiments(*only)
	if len(unknown) > 0 {
		for _, id := range unknown {
			fmt.Fprintf(os.Stderr, "delta-bench: unknown experiment id %q\n", id)
		}
		os.Exit(1)
	}

	// Experiments run concurrently when -j allows; the worker budget
	// inside the experiments package bounds simulations in flight.
	// Results print in experiment order regardless.
	expWorkers := 1
	if *jobs > 1 {
		expWorkers = len(sel)
	}
	start := time.Now()
	results, err := parallel.Map(expWorkers, sel, func(_ int, e experiments.Named) (experiments.Result, error) {
		t0 := time.Now()
		r, err := e.Fn()
		if err != nil {
			return experiments.Result{}, fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", e.ID, time.Since(t0).Round(time.Millisecond))
		return r, nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "delta-bench: %v\n", err)
		os.Exit(1)
	}
	for _, r := range results {
		fmt.Print(r.Render())
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, results); err != nil {
			fmt.Fprintf(os.Stderr, "delta-bench: -json: %v\n", err)
			os.Exit(1)
		}
	}
	if client != nil {
		fmt.Fprintf(os.Stderr, "[server %s: %s]\n", *server, client.CountsLine())
	} else {
		cacheState := "on"
		if runplan.Shared.Disabled() {
			cacheState = "off"
		}
		fmt.Fprintf(os.Stderr, "[run cache %s: %s]\n", cacheState, runplan.Shared.Counters())
	}
	if !obs.Global.Empty() {
		// Fast-forward cycle accounting (TASKSTREAM_FF_DEBUG), routed
		// through the process-wide observability registry.
		fmt.Fprintf(os.Stderr, "[ffstats: %s]\n", obs.Global.Line())
	}
	if *hostprof {
		// Stderr only: the suite's stdout stays byte-identical with and
		// without profiling (the feedback-free contract, DESIGN.md §18).
		snap := sim.HostProfSnapshot()
		fmt.Fprint(os.Stderr, snap.Report())
	}
	fmt.Fprintf(os.Stderr, "[all done in %v, -j %d]\n", time.Since(start).Round(time.Millisecond), *jobs)
}

// jsonResult is one experiment in the -json dump. Metrics marshal with
// sorted keys (encoding/json's map behavior), so the file is
// deterministic and diffable across runs — the BENCH_*.json perf
// trajectory future PRs compare against.
type jsonResult struct {
	ID      string             `json:"id"`
	Title   string             `json:"title"`
	Metrics map[string]float64 `json:"metrics"`
}

// writeJSON dumps every result's headline metrics to path. When the
// process-wide observability registry collected anything (the
// TASKSTREAM_FF_DEBUG fast-forward meters flow through it), it is
// appended as a synthetic "ffstats" entry so the accounting rides the
// same machine-readable surface as the experiments.
func writeJSON(path string, results []experiments.Result) error {
	out := make([]jsonResult, len(results))
	for i, r := range results {
		out[i] = jsonResult{ID: r.ID, Title: r.Title, Metrics: r.Metrics}
	}
	if !obs.Global.Empty() {
		snap := obs.Global.Snapshot()
		m := make(map[string]float64)
		for _, n := range snap.Names() {
			m[n] = float64(snap.Get(n))
		}
		out = append(out, jsonResult{
			ID: "ffstats", Title: "fast-forward cycle accounting", Metrics: m,
		})
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// selectExperiments resolves the -only flag (comma-separated ids,
// case-insensitive, empty = everything) against the registry. The
// returned selection preserves E-number order; ids that match no
// experiment come back in unknown, sorted.
func selectExperiments(only string) (sel []experiments.Named, unknown []string) {
	want := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			want[strings.ToUpper(id)] = true
		}
	}
	all := len(want) == 0
	for _, e := range experiments.Registry() {
		if all || want[e.ID] {
			sel = append(sel, e)
			delete(want, e.ID)
		}
	}
	for id := range want {
		unknown = append(unknown, id)
	}
	sort.Strings(unknown)
	return sel, unknown
}
