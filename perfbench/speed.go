package main

import (
	"runtime"
	"sync"
	"time"
)

// Host times are scaled to a reference host speed. The benchmark runs
// on shared VMs whose speed drifts with other guests' load: over four
// minutes of one fixed streams input on a 2-vCPU Xeon VM, the median op
// time of 10-second windows ranged from 0.86 to 1.36 of its overall
// median, in steps of seconds to minutes, in wall and CPU time alike.
// A fixed reference kernel timed beside the ops slows with them, so
// every end-to-end host time is multiplied by
//
//	refKernelMS / (median of the kernel times around it)
//
// which reads as the time the op would take on the host at reference
// speed. The kernel uses no repository code, so a change to the program
// under test moves the scaled time by the same factor as the raw time.
// It shares the Go heap with the program, though, so its garbage
// collection costs less beside a larger live heap; and it follows other
// guests' load, not load inside the VM. README.md ("Host speed") has
// the measurements.

// refKernelMS is the reference kernel's median time on the reference
// host, a 2-vCPU Intel Xeon (Sapphire Rapids) KVM guest at 2.0 GHz,
// go1.24. It fixes the unit only: scaled times are host milliseconds
// at that speed.
const refKernelMS = 8.0

type kernelNode struct {
	key  int
	next *kernelNode
	val  [4]int
}

// refKernel is the fixed work: small heap objects linked by pointers
// and indexed by a map, so it allocates, hashes and collects garbage as
// the simulator's hot paths do, then a branchy integer loop. Of the
// kernels tried (this allocating half, the integer half, an 8 MiB
// pointer chase), the allocating half tracked the simulator's slowdowns
// best and the pointer chase worst; the integer half steadies it.
func refKernel() int {
	const n = 20000
	m := make(map[int]*kernelNode)
	var head *kernelNode
	for i := 0; i < n; i++ {
		nd := &kernelNode{key: i, next: head}
		nd.val[i&3] = i
		head = nd
		m[i*7919%100003] = nd
	}
	s := 0
	for i := 0; i < n; i++ {
		if nd, ok := m[i*31%100003]; ok {
			s += nd.key
		}
	}
	x := uint64(1)
	for i := 0; i < 750000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x&7 == 3 {
			s++
		} else if x&5 == 1 {
			s += 2
		}
	}
	return s
}

// speedProbe collects reference kernel times over one measured phase.
type speedProbe struct {
	mu      sync.Mutex
	samples []float64 // ms
	cpu     time.Duration
	sink    int // keeps the kernel's result live, so no loop is dropped
}

// sample runs the kernel once on the calling goroutine, timed in wall
// time: the phase's ops run on that goroutine too, one at a time, and
// are timed the same way.
func (p *speedProbe) sample() {
	t0 := time.Now()
	s := refKernel()
	p.record(ms(time.Since(t0)), 0, s)
}

func (p *speedProbe) record(d float64, cpu time.Duration, s int) {
	p.mu.Lock()
	p.samples = append(p.samples, d)
	p.cpu += cpu
	p.sink += s
	p.mu.Unlock()
}

// probePeriod is how often the background sampler runs the kernel:
// about 4% of one CPU.
const probePeriod = 200 * time.Millisecond

// background samples the kernel every probePeriod on its own goroutine,
// locked to its own thread and timed in that thread's CPU time, so the
// figure leaves out the time it waits for a CPU the workload holds. It
// serves the suite, whose work runs on several threads at once. Its
// samples are noisier than the sequential ones, so the suite takes their
// median over the whole phase: scaling each resolve by the samples
// around it spread the suite's op_ms_p50 wider on a steady host. (Running
// the kernel on the worker threads instead, before each resolve, spread
// the suite's op_ms_p90 and sim_mcycles_per_s wider.) The returned stop
// ends the sampling and waits for the goroutine.
func (p *speedProbe) background() (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(probePeriod)
		defer tick.Stop()
		for {
			c0 := threadCPUTime()
			s := refKernel()
			d := threadCPUTime() - c0
			p.record(ms(d), d, s)
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// localWindow is how many kernel samples on each side of an op its
// local scale (scaleAt) takes the median of.
const localWindow = 4

// scaleAt is the factor for an op that ran next to sample i:
// refKernelMS over the median of the samples within localWindow of i.
// The host's speed also drifts within a run, in steps of seconds, so a
// local median follows it where the phase's median cannot; one sample
// alone is too noisy. Replayed over four minutes of streams ops, each
// preceded by a kernel sample, local scales spread the 15-second
// medians 0.05 against 0.08 for the phase's median.
func (p *speedProbe) scaleAt(i int) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	i = min(max(i, 0), len(p.samples)-1)
	if i < 0 {
		return 1
	}
	lo, hi := max(0, i-localWindow), min(len(p.samples), i+localWindow+1)
	return refKernelMS / quantile(p.samples[lo:hi], 0.5)
}

// scale is the factor that turns a host time measured in this phase
// into one at reference speed; 1 when nothing was sampled.
func (p *speedProbe) scale() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.samples) == 0 {
		return 1
	}
	return refKernelMS / quantile(p.samples, 0.5)
}

// sampledMS is the time the samples took, in ms.
func (p *speedProbe) sampledMS() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var t float64
	for _, d := range p.samples {
		t += d
	}
	return t
}

// kernelCPU is the CPU time the background sampler spent in the kernel;
// throughput figures taken from process CPU time leave it out.
func (p *speedProbe) kernelCPU() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cpu
}

var (
	kernelAllocOnce sync.Once
	kernelAllocated goStats
)

// kernelAlloc is the Go heap the kernel allocates per call, the median
// of a few calls measured when first asked. Process-wide allocation
// figures subtract it once per sample. Ask first while nothing else
// runs.
func kernelAlloc() goStats {
	kernelAllocOnce.Do(func() {
		var bytes, objs []float64
		for i := 0; i < 5; i++ {
			g0 := readGoStats()
			refKernel()
			g := readGoStats().sub(g0)
			bytes = append(bytes, float64(g.allocBytes))
			objs = append(objs, float64(g.allocObjects))
		}
		kernelAllocated = goStats{allocBytes: uint64(quantile(bytes, 0.5)), allocObjects: uint64(quantile(objs, 0.5))}
	})
	return kernelAllocated
}

// count is the number of samples taken so far.
func (p *speedProbe) count() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.samples)
}

// withoutKernel returns g less the allocation of n kernel samples.
func withoutKernel(g goStats, n int) goStats {
	k := kernelAlloc()
	g.allocBytes -= min(g.allocBytes, uint64(n)*k.allocBytes)
	g.allocObjects -= min(g.allocObjects, uint64(n)*k.allocObjects)
	return g
}
