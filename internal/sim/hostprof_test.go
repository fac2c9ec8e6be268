package sim

import (
	"strings"
	"testing"
)

// profiledPulsers runs a small pulser machine and returns the engine,
// its cycle count, and the pulsers' time-linear accounting.
func profiledPulsers(t *testing.T, ff bool) (*Engine, Cycle, []int64) {
	t.Helper()
	e := NewEngine()
	e.FastForward = ff
	var ps []*pulser
	for _, s := range [][2]int{{3, 5}, {7, 4}, {50, 2}} {
		p := &pulser{period: Cycle(s[0]), count: s[1]}
		ps = append(ps, p)
		e.Register("pulser", p)
	}
	c, err := e.Run(nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var busy []int64
	for _, p := range ps {
		busy = append(busy, p.busy)
	}
	return e, c, busy
}

// TestHostProfIdentity pins the feedback-free contract at the engine
// level: a profiled run produces exactly the cycle count and component
// accounting of an unprofiled one.
func TestHostProfIdentity(t *testing.T) {
	for _, ff := range []bool{false, true} {
		_, cPlain, busyPlain := profiledPulsers(t, ff)

		SetHostProf(true)
		ResetHostProf()
		_, cProf, busyProf := profiledPulsers(t, ff)
		SetHostProf(false)

		if cPlain != cProf {
			t.Fatalf("ff=%v: profiled run cycles %d != plain %d", ff, cProf, cPlain)
		}
		for i := range busyPlain {
			if busyPlain[i] != busyProf[i] {
				t.Fatalf("ff=%v: component %d busy %d != plain %d", ff, i, busyProf[i], busyPlain[i])
			}
		}
	}
}

// TestHostProfSerialEngine checks a run contributes exactly its
// engine's meters and its wall time to the aggregate, and nothing
// while profiling is off.
func TestHostProfSerialEngine(t *testing.T) {
	ResetHostProf()
	profiledPulsers(t, true)
	if snap := HostProfSnapshot(); snap != (HostProf{}) {
		t.Fatalf("unprofiled run reached the aggregate: %+v", snap)
	}

	SetHostProf(true)
	defer SetHostProf(false)
	e, _, _ := profiledPulsers(t, true)
	snap := HostProfSnapshot()
	if snap.Runs != 1 || snap.TotalNS <= 0 {
		t.Fatalf("snapshot = %+v, want 1 run with wall time", snap)
	}
	if snap.ExecutedCycles != e.ExecutedCycles || snap.SkippedCycles != e.SkippedCycles {
		t.Fatalf("snapshot cycles %d/%d, engine %d/%d", snap.ExecutedCycles, snap.SkippedCycles,
			e.ExecutedCycles, e.SkippedCycles)
	}
	if snap.SkippedCycles == 0 {
		t.Fatal("fast-forwarded run recorded no skipped cycles")
	}
}

// TestHostProfReportShape checks the -hostprof rendering carries the
// run totals.
func TestHostProfReportShape(t *testing.T) {
	p := HostProf{Runs: 3, ExecutedCycles: 120, SkippedCycles: 45, TotalNS: 2_500_000}
	rep := p.Report()
	for _, want := range []string{"host profile: 3 runs", "2.50ms", "120 executed", "45 fast-forwarded"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

// TestHostProfMerge checks the aggregate sums every run's totals and
// that ResetHostProf clears it.
func TestHostProfMerge(t *testing.T) {
	ResetHostProf()
	mergeHostProf(HostProf{Runs: 1, ExecutedCycles: 10, SkippedCycles: 1, TotalNS: 10})
	mergeHostProf(HostProf{Runs: 1, ExecutedCycles: 20, SkippedCycles: 2, TotalNS: 20})
	want := HostProf{Runs: 2, ExecutedCycles: 30, SkippedCycles: 3, TotalNS: 30}
	if got := HostProfSnapshot(); got != want {
		t.Fatalf("merged aggregate = %+v, want %+v", got, want)
	}
	ResetHostProf()
	if got := HostProfSnapshot(); got != (HostProf{}) {
		t.Fatalf("aggregate after reset = %+v", got)
	}
}
