package core

import (
	"fmt"
	"os"
	"strings"

	"taskstream/internal/config"
	"taskstream/internal/sim"
)

// Policy selects how the machine distributes tasks over lanes. Each
// value names one Scheduler implementation (DESIGN.md §17); the policy
// participates in Options.CacheKey, so runs under distinct policies
// never share a memoized result.
type Policy uint8

const (
	// PolicyDynamic is the TaskStream coordinator: run-time dispatch,
	// work-aware when the config enables it, round-robin otherwise.
	PolicyDynamic Policy = iota
	// PolicyStatic is the equivalent static-parallel design: tasks are
	// block-partitioned over lanes before each phase begins and strict
	// phase barriers apply.
	PolicyStatic
	// PolicyStreamGraph is the De Matteis-style streaming task-graph
	// scheduler: lanes are spatially partitioned among task types in
	// proportion to their pending work, with temporal re-balancing when
	// observed lane load skews past the configured threshold.
	PolicyStreamGraph
	// PolicyPipeline is the Pipeflow-style pipeline scheduler:
	// stage-affine dispatch that prices fabric reconfiguration into the
	// lane choice and keeps repeated producer→consumer forward groups
	// on stable lanes, scanning past the queue head to form groups the
	// head-only dynamic policy misses.
	PolicyPipeline
	// NumPolicies counts the registered policies.
	NumPolicies
)

// policyNames holds the canonical CLI/wire spelling of each policy.
var policyNames = [NumPolicies]string{"dynamic", "static", "streamgraph", "pipeline"}

// String returns the policy's canonical name.
func (p Policy) String() string {
	if int(p) < len(policyNames) {
		return policyNames[p]
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// PolicyNames returns the canonical names in enum order, for usage
// strings and sweeps.
func PolicyNames() []string {
	return append([]string(nil), policyNames[:]...)
}

// ParsePolicy resolves a canonical policy name. Unknown names error
// with the full valid set so CLIs can surface it verbatim.
func ParsePolicy(name string) (Policy, error) {
	for i, n := range policyNames {
		if n == name {
			return Policy(i), nil
		}
	}
	return 0, fmt.Errorf("core: unknown policy %q (valid: %s)",
		name, strings.Join(policyNames[:], ", "))
}

// AmbientPolicy resolves the process-wide default dispatch policy for
// the dynamic-dispatch baseline variants: TASKSTREAM_POLICY names one
// of the registered policies (delta-bench -policy sets it); unset or
// unparseable values mean PolicyDynamic. The resolved policy lands in
// Options.Policy and so in every spec's cache key — distinct policies
// never share cache entries.
func AmbientPolicy() Policy {
	if v := os.Getenv("TASKSTREAM_POLICY"); v != "" {
		if p, err := ParsePolicy(v); err == nil {
			return p
		}
	}
	return PolicyDynamic
}

// Scheduler is the pluggable dispatch policy behind the coordinator
// (DESIGN.md §17). The coordinator owns everything every policy
// shares — phase queues and barriers, control pipes, the outstanding-
// work load model, forward-group formation, obs/trace emission — and
// delegates only the decisions: which pending task goes to which lane,
// and when to form a forward group.
//
// Contract:
//   - Dispatch is called only when the current phase has pending
//     tasks; it either dispatches exactly one task (or one whole
//     forward group) through SchedState and returns true, or returns
//     false meaning no dispatch is possible this cycle.
//   - All methods run inside the coordinator's Tick on the engine's
//     single goroutine, so policies need no locking.
//   - §11 fast-forwarding: policy decisions must be event-driven.
//     State may change on Dispatch, PhaseStart, and TaskCompleted —
//     all of which fire identically with fast-forwarding on or off —
//     never as a function of how often Tick happens to run. A policy
//     with a genuine time-based deadline must expose it via NextEvent
//     and replay skipped-cycle accounting in Skip.
type Scheduler interface {
	// Name returns the policy's canonical name (Policy.String).
	Name() string
	// Dispatch attempts to dispatch one task (or forward group) from
	// the current phase queue, reporting success. The coordinator calls
	// it up to DispatchPerCycle times per cycle, stopping at the first
	// false.
	Dispatch(s *SchedState, now sim.Cycle) bool
	// PhaseStart announces that the coordinator advanced to phase p;
	// per-phase policy state (partitions, assignments) resets here.
	PhaseStart(s *SchedState, p int)
	// TaskCompleted announces one task completion on lane, after the
	// load model dropped its hint — the event-driven trigger for
	// temporal re-balancing.
	TaskCompleted(s *SchedState, lane int, hint int64)
	// NextEvent contributes the policy's next self-scheduled deadline
	// to the coordinator's forecast (sim.Never if none). The
	// coordinator already wakes for control-pipe maturities and
	// dispatch opportunities; only genuinely time-based policy logic
	// needs this.
	NextEvent(now sim.Cycle) sim.Cycle
	// Skip replays any per-cycle policy accounting for the skipped
	// range [from, to) (§11). Policies without per-cycle state no-op.
	Skip(from, to sim.Cycle)
}

// newScheduler constructs the policy's scheduler. NewMachine validates
// the policy value first, so an unknown one here is an internal error.
func newScheduler(p Policy) (Scheduler, error) {
	switch p {
	case PolicyDynamic:
		return &dynamicSched{}, nil
	case PolicyStatic:
		return &staticSched{}, nil
	case PolicyStreamGraph:
		return &streamGraphSched{}, nil
	case PolicyPipeline:
		return newPipelineSched(), nil
	default:
		return nil, fmt.Errorf("core: unknown policy %d (valid: %s)",
			uint8(p), strings.Join(policyNames[:], ", "))
	}
}

// SchedState is the machine view a Scheduler decides over: the current
// phase's task queue, the per-lane load model (queue occupancy plus
// outstanding-work estimates), the mechanism toggles, and the two
// actions — dispatching one task and forming a forward group. It is a
// facade over the coordinator; policies hold no machine references of
// their own, which is what keeps them portable to per-chip
// coordinators later.
type SchedState struct {
	c *coordinator
}

// NumLanes returns the lane count.
func (s *SchedState) NumLanes() int { return s.c.m.cfg.Lanes }

// NumTypes returns the number of task types in the program.
func (s *SchedState) NumTypes() int { return len(s.c.m.prog.Types) }

// Phase returns the current phase index.
func (s *SchedState) Phase() int { return s.c.phase }

// Pending returns the current phase's undispatched task FIFO. The
// slice is the coordinator's live queue: read-only for policies, and
// invalidated by Dispatch/TryForwardGroup.
func (s *SchedState) Pending() []Task { return s.c.pending[s.c.phase] }

// QueueFree returns the lane's remaining hardware task-queue slots.
func (s *SchedState) QueueFree(lane int) int { return s.c.m.lanes[lane].QueueSpace() }

// LaneWork returns the lane's outstanding work estimate: the sum of
// effective hints of dispatched-but-incomplete tasks.
func (s *SchedState) LaneWork(lane int) int64 { return s.c.laneWork[lane] }

// LaneConfigured returns the task type the lane's fabric currently
// holds, or -1 before the first task — dispatching a matching type
// skips the ConfigCycles reconfiguration stall.
func (s *SchedState) LaneConfigured(lane int) int { return s.c.m.lanes[lane].curType }

// WorkAware reports whether the config enables work-aware load
// balancing (false means round-robin preference).
func (s *SchedState) WorkAware() bool { return s.c.m.cfg.Task.EnableWorkAwareLB }

// ForwardingEnabled reports whether forward-group formation is on.
func (s *SchedState) ForwardingEnabled() bool { return s.c.m.cfg.Task.EnableForwarding }

// Sched returns the policy-tuning config block.
func (s *SchedState) Sched() config.Sched { return s.c.m.cfg.Sched }

// ConfigPenalty returns a fabric reconfiguration stall expressed in
// work-hint units: ConfigCycles at the fabric's full per-port pump
// rate. Affinity-aware policies price a type switch into the lane
// choice with it.
func (s *SchedState) ConfigPenalty() int64 {
	f := s.c.m.cfg.Fabric
	return int64(f.ConfigCycles) * int64(f.PortWidth)
}

// Hint returns the task's effective work hint under the run's
// configured hint fidelity (E12) — the same estimate the load model
// books on dispatch.
func (s *SchedState) Hint(t *Task) int64 { return s.c.m.effectiveHint(t) }

// LaneDistance returns the NoC Manhattan hop distance between two
// lanes' mesh nodes. Forwarded streams pay per-hop latency and flit
// occupancy, so placement policies use this to keep producer→consumer
// pairs close.
func (s *SchedState) LaneDistance(a, b int) int {
	return s.c.m.mesh.Dist(s.c.m.lanes[a].node, s.c.m.lanes[b].node)
}

// Dispatch pops the idx-th task of the current phase queue and sends
// it to lane, booking the load model, obs dispatch event, and trace
// record. The lane must have queue space.
func (s *SchedState) Dispatch(idx, lane int) {
	c := s.c
	t := c.pending[c.phase][idx]
	c.removePending(c.phase, idx)
	r, err := c.m.resolve(t, lane, resolveOpts{})
	if err != nil {
		panic(err)
	}
	c.send(r, lane)
}

// TryForwardGroup attempts to co-dispatch the forward group seeded by
// the idx-th pending task (which must produce a forward tag): the
// consumer of its tag plus every other still-pending producer that
// consumer needs. The group-formation mechanics — membership, queue
// removal, start gate, destination patching — live in the
// coordinator; the policy supplies only choose, which is handed the
// group members' effective work hints (producers in order, consumer
// last) and returns one distinct lane with queue space per member,
// aligned to the weights (or nil to refuse). Reports whether the group
// dispatched.
func (s *SchedState) TryForwardGroup(idx int, choose func(weights []int64) []int) bool {
	return s.c.tryForwardGroup(idx, choose)
}
