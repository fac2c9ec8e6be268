package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the p-quantile of xs by linear interpolation between
// closest ranks (p=0.5 of an even count is the mean of the middle two).
// xs need not be sorted; it is not modified.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// hdQuantile is the Harrell–Davis estimate of the p-quantile of xs: a
// mean of all order statistics, the i-th of n weighted by the mass that
// Beta(p(n+1), (1-p)(n+1)) puts on ((i-1)/n, i/n]. The suite's resolves
// fall in clusters of similar size with gaps between them, and its
// median lies in such a gap; when a few resolves change places there,
// the linear estimate jumps across the gap while this one moves a
// little. With the gaps of one regeneration's 205 resolves and 10%
// independent noise per resolve, it halves the spread of the median.
func hdQuantile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	a, b := p*float64(n+1), (1-p)*float64(n+1)
	lab, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	// The Beta CDF on a grid, by the midpoint rule.
	const grid = 1 << 14
	cdf := make([]float64, grid+1)
	for k := 0; k < grid; k++ {
		x := (float64(k) + 0.5) / grid
		cdf[k+1] = cdf[k] + math.Exp(lab-la-lb+(a-1)*math.Log(x)+(b-1)*math.Log1p(-x))/grid
	}
	at := func(i int) float64 { return cdf[int(math.Round(float64(i)/float64(n)*grid))] }
	var sum, wsum float64
	for i, v := range s {
		w := at(i+1) - at(i)
		sum += w * v
		wsum += w
	}
	return sum / wsum
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// cpuTime returns the CPU time the process has used, user plus system,
// over all its threads. Unlike wall time it leaves out the time the
// hypervisor gives this vCPU to other guests (steal), which on a shared
// VM comes and goes from one minute to the next and took up to 15% of
// an op's wall time on a 2-vCPU Xeon VM.
func cpuTime() time.Duration { return rusage(syscall.RUSAGE_SELF) }

// threadCPUTime returns the CPU time of the calling OS thread. The
// caller holds runtime.LockOSThread across the span it measures.
func threadCPUTime() time.Duration { return rusage(syscall.RUSAGE_THREAD) }

func rusage(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// goStats is a snapshot of the Go runtime's cumulative allocation and
// GC meters, read without stopping the world, and of the process's CPU
// time.
type goStats struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU, totalCPU                    float64
	cpu                                time.Duration // cpuTime
}

var goSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// readGoStats samples the runtime meters. Not safe for concurrent use
// (it reuses one sample slice); the benchmark calls it from one
// goroutine.
func readGoStats() goStats {
	metrics.Read(goSamples)
	return goStats{
		allocBytes:   goSamples[0].Value.Uint64(),
		allocObjects: goSamples[1].Value.Uint64(),
		gcCycles:     goSamples[2].Value.Uint64(),
		gcCPU:        goSamples[3].Value.Float64(),
		totalCPU:     goSamples[4].Value.Float64(),
		cpu:          cpuTime(),
	}
}

// sub returns the meters accumulated between o and g.
func (g goStats) sub(o goStats) goStats {
	return goStats{
		allocBytes:   g.allocBytes - o.allocBytes,
		allocObjects: g.allocObjects - o.allocObjects,
		gcCycles:     g.gcCycles - o.gcCycles,
		gcCPU:        g.gcCPU - o.gcCPU,
		totalCPU:     g.totalCPU - o.totalCPU,
		cpu:          g.cpu - o.cpu,
	}
}

// add returns the sum of two sets of accumulated meters.
func (g goStats) add(o goStats) goStats {
	return goStats{
		allocBytes:   g.allocBytes + o.allocBytes,
		allocObjects: g.allocObjects + o.allocObjects,
		gcCycles:     g.gcCycles + o.gcCycles,
		gcCPU:        g.gcCPU + o.gcCPU,
		totalCPU:     g.totalCPU + o.totalCPU,
		cpu:          g.cpu + o.cpu,
	}
}

// gcFrac is the share of the process's CPU time spent in GC.
func (g goStats) gcFrac() float64 {
	if g.totalCPU <= 0 {
		return 0
	}
	return g.gcCPU / g.totalCPU
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	v, _ := procField("/proc/self/status", "VmHWM:")
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return math.NaN()
	}
	return kb / 1024
}

// procField returns the trimmed value after the first line starting
// with prefix in a /proc text file.
func procField(path, prefix string) (string, bool) {
	f, err := os.Open(path)
	if err != nil {
		return "", false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), prefix); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":")), true
		}
	}
	return "", false
}

// hostRecord describes the machine a result was measured on.
type hostRecord struct {
	Seed       uint64 `json:"seed"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func newHostRecord(seed uint64) hostRecord {
	model, ok := procField("/proc/cpuinfo", "model name")
	if !ok {
		model = "unknown"
	}
	return hostRecord{
		Seed:       seed,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   model,
	}
}

// splitmix64 derives well-mixed sub-seeds from the benchmark seed, so
// neighbouring seeds still give unrelated inputs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// subSeed is the seed for input i of a run seeded with seed.
func subSeed(seed uint64, i int) uint64 { return splitmix64(splitmix64(seed) + uint64(i)) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
