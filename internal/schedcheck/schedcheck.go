// Package schedcheck statically verifies execution plans before any
// task runs. Harmony's correctness hinges on properties of the
// *schedule*, not just the code: harmonylint (internal/analyzers)
// proves source-level invariants, and this package proves the matching
// plan-level ones — without executing a single kernel:
//
//  1. Deadlock-freedom: the happens-before graph woven from per-device
//     queues, task dependencies and collective rendezvous points must
//     let every task complete. Precedence violations (a task queued
//     before its same-device dependency) and cross-device rendezvous
//     cycles (two devices meeting the same pair of collectives in
//     opposite orders) are rejected with a Gantt counterexample.
//  2. Residency: per-device peak pinned bytes — the largest single
//     task's inputs+outputs+workspace, or a collective's parked
//     demand — must fit under the device capacity the memory manager
//     enforces at runtime. The prefetch byte budget is reported on top
//     as the expected steady-state peak (prefetch itself only ever
//     uses spare capacity, so it cannot make a feasible plan
//     infeasible).
//  3. Swap volume: the per-iteration weight / gradient / optimizer
//     traffic implied by the queue order (computed structurally from
//     pin-adjacency runs) must agree with internal/analytic's closed
//     forms for the canonical plan shapes. A divergence means either
//     the planner or the formulas are wrong — both are bugs.
//  4. DMA claim discipline: a bounded exhaustive exploration of the
//     claim/commit/settle state machine over the plan's opening
//     transfer sequence proves the every-resident-claim-committed
//     invariant (DESIGN.md §9) for all interleavings of the device
//     workers and their DMA engines.
//
// The executor runs Check as a preflight gate (exec.TrainerConfig
// .NoVerify opts out); cmd/schedcheck exposes it as a CLI.
package schedcheck

import (
	"fmt"
	"strings"

	"harmony/internal/graph"
	"harmony/internal/hw"
	"harmony/internal/sched"
	"harmony/internal/sim"
	"harmony/internal/trace"
)

// Topology describes the machine a plan is checked against.
type Topology struct {
	// Devices is the number of physical devices; DeviceBytes each
	// one's memory capacity (the memory.Manager / exec.VM budget).
	Devices     int
	DeviceBytes int64
	// PrefetchBudgetBytes caps prefetched bytes per device. 0 means
	// half the device capacity when the plan enables prefetch,
	// mirroring exec.VM.StartEngine's default.
	PrefetchBudgetBytes int64

	// MaxModelDevices and MaxModelTasks bound the DMA state-machine
	// exploration: the first MaxModelDevices device queues, the first
	// MaxModelTasks tasks of each (0 means 2 and 2). MaxStates caps
	// the explored state count (0 means 200000).
	MaxModelDevices int
	MaxModelTasks   int
	MaxStates       int

	// Mutation seeds a deliberate bug into the DMA model to prove the
	// checker catches it (the analyzers' seeded-violation pattern):
	// "skip-commit" makes the modeled sync swap-in path mark a buffer
	// resident without committing its claim.
	Mutation string
}

func (t Topology) prefetchBudget() int64 {
	if t.PrefetchBudgetBytes > 0 {
		return t.PrefetchBudgetBytes
	}
	return t.DeviceBytes / 2
}

// Violation is one verified defect in the plan.
type Violation struct {
	// Rule is the invariant class: "plan", "deadlock", "capacity",
	// "swap-volume" or "dma-claim".
	Rule string
	Msg  string
	// Trace, when non-nil, is a counterexample timeline: the completed
	// prefix plus the blocked or offending state, rendered per device.
	Trace *trace.Trace
}

// Report is the outcome of one Check.
type Report struct {
	Violations []Violation

	// PeakPinBytes[d] is device d's worst-case concurrently pinned
	// bytes (one task in flight per stream, collectives parked).
	PeakPinBytes []int64
	// PeakResidentBytes[d] adds the prefetch budget, clamped to
	// capacity: the steady-state residency the async engine aims for.
	PeakResidentBytes []int64

	// Structural per-iteration swap volumes implied by the queue
	// order, summed over devices (in + out bytes).
	WeightSwapBytes   int64
	GradSwapBytes     int64
	OptStateSwapBytes int64
	// AnalyticWeightBytes is the closed-form prediction the weight
	// volume was compared against; -1 when the plan shape has no
	// closed form (the cross-check was skipped).
	AnalyticWeightBytes int64

	// DMAStates is how many distinct claim-machine states the bounded
	// exploration visited.
	DMAStates int
	// TasksChecked counts tasks proven completable by the replay.
	TasksChecked int
}

// OK reports whether the plan passed every check.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Err returns nil for a passing plan, or an error describing the
// first violation with its counterexample trace rendered as a Gantt
// chart (one lane per device).
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	v := r.Violations[0]
	msg := fmt.Sprintf("schedcheck: %s: %s", v.Rule, v.Msg)
	if v.Trace != nil {
		if g := v.Trace.Gantt(72); g != "" {
			msg += "\ncounterexample ('!' marks the blocked or offending step):\n" + g
		}
	}
	if len(r.Violations) > 1 {
		msg += fmt.Sprintf("\n(%d further violations)", len(r.Violations)-1)
	}
	return fmt.Errorf("%s", msg)
}

func (r *Report) addf(rule string, tr *trace.Trace, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{Rule: rule, Msg: fmt.Sprintf(format, args...), Trace: tr})
}

// Check statically verifies a plan against a topology. It never
// executes tasks; all findings are returned as Violations (a
// malformed plan yields "plan" violations rather than an error so
// callers have one result path).
func Check(s *sched.Schedule, topo Topology) *Report {
	r := &Report{AnalyticWeightBytes: -1}
	if s == nil {
		r.addf("plan", nil, "nil schedule")
		return r
	}
	if topo.Devices <= 0 {
		topo.Devices = s.NGPUs
	}
	if topo.Devices < s.NGPUs {
		r.addf("plan", nil, "plan needs %d devices, topology has %d", s.NGPUs, topo.Devices)
		return r
	}
	if !checkShape(s, r) {
		return r // coverage broken: downstream checks would mislead
	}
	entries, parties, ok := weave(s, r)
	if ok {
		replay(s, entries, parties, r)
	}
	checkResidency(s, topo, r)
	checkVolume(s, entries, r)
	exploreDMA(s, topo, r)
	return r
}

// checkShape validates task coverage and device assignment: every
// graph task appears exactly once (in one queue or as a collective),
// queue tasks are assigned to their queue's device, collectives to
// hw.Host, and the dependency graph is acyclic.
func checkShape(s *sched.Schedule, r *Report) bool {
	pre := len(r.Violations)
	if len(s.Assign) != len(s.Graph.Tasks) {
		r.addf("plan", nil, "Assign covers %d tasks, graph has %d", len(s.Assign), len(s.Graph.Tasks))
		return false
	}
	if len(s.Queues) != s.NGPUs {
		r.addf("plan", nil, "%d queues for %d devices", len(s.Queues), s.NGPUs)
		return false
	}
	seen := make([]int, len(s.Graph.Tasks))
	for d, q := range s.Queues {
		for _, t := range q {
			seen[t.ID]++
			if dev := s.Assign[t.ID]; dev != hw.DeviceID(d) {
				r.addf("plan", nil, "%s queued on gpu%d but assigned to %v", t, d, dev)
			}
		}
	}
	for _, c := range s.Collectives {
		seen[c.ID]++
		if s.Assign[c.ID] != hw.Host {
			r.addf("plan", nil, "collective %s assigned to %v, want host", c, s.Assign[c.ID])
		}
	}
	for _, t := range s.Graph.Tasks {
		if seen[t.ID] != 1 {
			r.addf("plan", nil, "%s scheduled %d times", t, seen[t.ID])
		}
	}
	if _, err := s.Graph.CheckAcyclic(); err != nil {
		r.addf("plan", nil, "%v", err)
	}
	checkComm(s, r)
	return len(r.Violations) == pre
}

// checkComm validates a chunked plan's comm structure (nil Comm is the
// monolithic path and trivially passes): every collective belongs to
// exactly one bucket, each member's element range is covered exactly
// once by contiguous chunks, and every reducer is a real device. The
// executor trusts these properties — a gap would silently skip
// gradient elements, a bad reducer would orphan chunks — so they are
// proven here, before anything runs.
func checkComm(s *sched.Schedule, r *Report) {
	if s.Comm == nil {
		return
	}
	inBucket := make([]int, len(s.Collectives))
	for bi, b := range s.Comm {
		for _, ci := range b.Members {
			if ci < 0 || ci >= len(s.Collectives) {
				r.addf("plan", nil, "comm bucket %d member index %d out of range (%d collectives)", bi, ci, len(s.Collectives))
				return
			}
			inBucket[ci]++
		}
		next := make([]int, len(b.Members))
		for _, c := range b.Chunks {
			if c.Member < 0 || c.Member >= len(b.Members) {
				r.addf("plan", nil, "comm bucket %d chunk member %d out of range (%d members)", bi, c.Member, len(b.Members))
				return
			}
			if c.Reducer < 0 || c.Reducer >= s.NGPUs {
				r.addf("plan", nil, "comm bucket %d chunk reducer gpu%d out of range (%d devices)", bi, c.Reducer, s.NGPUs)
			}
			if c.Lo != next[c.Member] || c.Hi <= c.Lo {
				r.addf("plan", nil, "comm bucket %d member %d chunk [%d,%d) not contiguous from element %d",
					bi, c.Member, c.Lo, c.Hi, next[c.Member])
			}
			next[c.Member] = c.Hi
		}
		for mi, ci := range b.Members {
			elems := int(s.Collectives[ci].CommBytes) / 4 // float32 elements
			if next[mi] != elems {
				r.addf("plan", nil, "comm bucket %d member %s chunks cover %d of %d elements",
					bi, s.Collectives[ci], next[mi], elems)
			}
		}
	}
	for ci, n := range inBucket {
		if n != 1 {
			r.addf("plan", nil, "collective %s appears in %d comm buckets, want exactly 1", s.Collectives[ci], n)
		}
	}
}

// entry is one slot of a device's woven stream: a queue task or a
// collective rendezvous (coll indexes the rendezvous list, -1 for
// compute). A rendezvous covers one collective on monolithic plans or
// one comm bucket's members on chunked plans (Schedule.Comm); members
// holds the covered collectives in plan order and t is the first of
// them (the label used in counterexamples). The weave mirrors the
// executor's buildStreams but is maintained independently — schedcheck
// is the check on the executor, not a re-export of it.
type entry struct {
	t       *graph.Task
	coll    int
	members []*graph.Task
}

// weave inserts each collective rendezvous into every participating
// device's stream, anchored immediately before the rendezvous's first
// successor on that device (across all members, for bucketed plans —
// the planner regroups the members' updates after the deepest member's
// backward precisely so this single anchor precedes every one of
// them). Participant i of a rendezvous is device i (replica and shard
// i's tensors live there — the executor's binding rule).
func weave(s *sched.Schedule, r *Report) ([][]entry, []int, bool) {
	type qpos struct{ dev, idx int }
	pos := make(map[int]qpos, len(s.Graph.Tasks))
	for d, q := range s.Queues {
		for i, t := range q {
			pos[t.ID] = qpos{d, i}
		}
	}
	var rdv [][]*graph.Task
	if s.Comm != nil {
		for _, b := range s.Comm {
			members := make([]*graph.Task, len(b.Members))
			for i, ci := range b.Members {
				members[i] = s.Collectives[ci]
			}
			rdv = append(rdv, members)
		}
	} else {
		for _, c := range s.Collectives {
			rdv = append(rdv, []*graph.Task{c})
		}
	}
	parties := make([]int, len(rdv))
	anchors := make([]map[int][]int, s.NGPUs)
	for d := range anchors {
		anchors[d] = make(map[int][]int)
	}
	pre := len(r.Violations)
	for ri, members := range rdv {
		n := 0
		bad := false
		for _, c := range members {
			if len(c.Inputs) == 0 || len(c.Inputs) > s.NGPUs {
				r.addf("plan", nil, "collective %s has %d inputs for %d devices", c, len(c.Inputs), s.NGPUs)
				bad = true
			}
			if n != 0 && len(c.Inputs) != n {
				r.addf("plan", nil, "rendezvous %d members disagree on party count (%d vs %d)", ri, n, len(c.Inputs))
				bad = true
			}
			n = len(c.Inputs)
		}
		if bad {
			continue
		}
		parties[ri] = n
		for d := 0; d < n; d++ {
			// Mirror the executor's anchor rule exactly: chunked
			// rendezvous at the earliest legal point (right after the
			// last member dependency on the device, so workers depart
			// into later backwards while other chunks reduce);
			// monolithic at the latest (right before the earliest
			// member successor).
			var anchor int
			if s.Comm != nil {
				anchor = 0
				for _, c := range members {
					for _, dep := range c.Deps {
						if p, ok := pos[dep.ID]; ok && p.dev == d && p.idx+1 > anchor {
							anchor = p.idx + 1
						}
					}
				}
			} else {
				anchor = len(s.Queues[d])
				for _, c := range members {
					for _, succ := range c.Succs {
						if p, ok := pos[succ.ID]; ok && p.dev == d && p.idx < anchor {
							anchor = p.idx
						}
					}
				}
				for _, c := range members {
					for _, dep := range c.Deps {
						if p, ok := pos[dep.ID]; ok && p.dev == d && p.idx >= anchor {
							r.addf("plan", nil, "collective %s on gpu%d depends on %s scheduled after the rendezvous's successors (precedence violation)",
								c, d, dep)
						}
					}
				}
			}
			for _, c := range members {
				for _, succ := range c.Succs {
					if p, ok := pos[succ.ID]; ok && p.dev == d && p.idx < anchor {
						r.addf("plan", nil, "collective %s on gpu%d has successor %s scheduled before the rendezvous anchor (precedence violation)",
							c, d, succ)
					}
				}
			}
			anchors[d][anchor] = append(anchors[d][anchor], ri)
		}
	}
	if len(r.Violations) != pre {
		return nil, nil, false
	}
	streams := make([][]entry, s.NGPUs)
	for d, q := range s.Queues {
		st := make([]entry, 0, len(q))
		for i := 0; i <= len(q); i++ {
			for _, ri := range anchors[d][i] {
				st = append(st, entry{t: rdv[ri][0], coll: ri, members: rdv[ri]})
			}
			if i < len(q) {
				st = append(st, entry{t: q[i], coll: -1})
			}
		}
		streams[d] = st
	}
	return streams, parties, true
}

// replay runs the woven streams to a fixed point without executing
// anything: a cursor advances when its head task's dependencies are
// complete, a rendezvous completes when all participants have parked
// at it AND every member's dependencies are met — completing it
// finishes every member at once. (The chunked executor is weaker: it
// releases each member as its last chunk retires and lets finished
// workers depart early, so a plan that passes this conservative model
// can only complete more easily at runtime.) This is the
// happens-before check: a stuck fixed point is a deadlock (dependency
// precedence violation or rendezvous cycle), and the completed prefix
// plus the blocked heads form the counterexample.
func replay(s *sched.Schedule, streams [][]entry, parties []int, r *Report) {
	depsLeft := make([]int, len(s.Graph.Tasks))
	total := 0
	for _, t := range s.Graph.Tasks {
		depsLeft[t.ID] = len(t.Deps)
		total++
	}
	cursors := make([]int, len(streams))
	arrived := make([]int, len(parties))
	collDone := make([]bool, len(parties))
	marked := make(map[[2]int]bool)
	tl := &trace.Trace{}
	step := 0
	finish := func(t *graph.Task, dev int) {
		for _, succ := range t.Succs {
			depsLeft[succ.ID]--
		}
		if dev >= 0 {
			tl.Add(hw.DeviceID(dev), trace.Compute, t.String(), sim.Time(step), sim.Time(step+1))
		} else {
			// Rendezvous complete once; show the span on every
			// participant so the rendezvous ordering is visible.
			for d := 0; d < len(streams); d++ {
				if cursors[d] < len(streams[d]) && streams[d][cursors[d]].t == t {
					tl.Add(hw.DeviceID(d), trace.Compute, t.String(), sim.Time(step), sim.Time(step+1))
				}
			}
		}
		step++
	}
	membersLeft := func(e entry) int {
		left := 0
		for _, m := range e.members {
			left += depsLeft[m.ID]
		}
		return left
	}
	done := 0
	for done < total {
		progress := false
		for d := range streams {
			for cursors[d] < len(streams[d]) {
				e := streams[d][cursors[d]]
				if e.coll >= 0 {
					key := [2]int{d, cursors[d]}
					if !marked[key] {
						marked[key] = true
						arrived[e.coll]++
						progress = true
					}
					if !collDone[e.coll] {
						if arrived[e.coll] == parties[e.coll] && membersLeft(e) == 0 {
							collDone[e.coll] = true
							// finish the first member before advancing
							// any cursor so the trace span lands on
							// every parked participant.
							finish(e.t, -1)
							for _, m := range e.members[1:] {
								for _, succ := range m.Succs {
									depsLeft[succ.ID]--
								}
							}
							done += len(e.members)
							progress = true
						} else {
							break // parked at the rendezvous
						}
					}
					cursors[d]++
					continue
				}
				if depsLeft[e.t.ID] > 0 {
					break
				}
				finish(e.t, d)
				done++
				cursors[d]++
				progress = true
			}
		}
		if !progress {
			var stuck []string
			for d := range streams {
				if cursors[d] >= len(streams[d]) {
					continue
				}
				e := streams[d][cursors[d]]
				why := fmt.Sprintf("%d deps left", depsLeft[e.t.ID])
				if e.coll >= 0 {
					if left := membersLeft(e); left > 0 {
						why = fmt.Sprintf("%d member deps left", left)
					} else {
						why = fmt.Sprintf("rendezvous %d/%d arrived", arrived[e.coll], parties[e.coll])
					}
				}
				stuck = append(stuck, fmt.Sprintf("gpu%d@%s(%s)", d, e.t, why))
				tl.Add(hw.DeviceID(d), trace.Fault, "!"+e.t.String()+" "+why,
					sim.Time(step), sim.Time(step+1))
			}
			r.addf("deadlock", tl, "%d/%d tasks completable; blocked: %s",
				done, total, strings.Join(stuck, ", "))
			return
		}
	}
	r.TasksChecked = done
}

// checkResidency symbolically computes each device's peak pinned bytes
// and rejects plans that cannot fit. The model mirrors the executor's
// pin-budget rule exactly: one task in flight per stream (its inputs,
// outputs and workspace pinned together) and, during a collective, the
// per-device buffers of all parked participants. Chunked plans
// (Schedule.Comm) use the executor's additive rule instead: collectives
// overlap compute there, so each worker may simultaneously hold either
// its largest task pin or its largest assigned member's replica views —
// per physical device, the demands sum across workers rather than max.
// The prefetch budget is reported as expected steady-state residency
// but never gates — the async engine only ever claims spare capacity.
func checkResidency(s *sched.Schedule, topo Topology, r *Report) {
	peak := make([]int64, s.NGPUs)
	peakTask := make([]*graph.Task, s.NGPUs)
	peakIdx := make([]int, s.NGPUs)
	for d, q := range s.Queues {
		for i, t := range q {
			var pin int64
			for _, in := range t.Inputs {
				pin += in.Bytes
			}
			for _, out := range t.Outputs {
				pin += out.Bytes
			}
			pin += t.WorkspaceBytes
			if pin > peak[d] {
				peak[d], peakTask[d], peakIdx[d] = pin, t, i
			}
		}
	}
	if s.Comm != nil {
		need := make([]int64, s.NGPUs)
		for d := 0; d < s.NGPUs; d++ {
			// chunkPin[p] = worst member view demand worker d can pin
			// on device p at once (a chunk reduction pins all replica
			// views of its member, each on its home device).
			chunkPin := make([]int64, s.NGPUs)
			for _, b := range s.Comm {
				for mi, ci := range b.Members {
					mine := false
					for _, c := range b.Chunks {
						if c.Member == mi && c.Reducer == d {
							mine = true
							break
						}
					}
					if !mine {
						continue
					}
					views := make([]int64, s.NGPUs)
					for i, in := range s.Collectives[ci].Inputs {
						if i < s.NGPUs {
							views[i] += in.Bytes
						}
					}
					for p, v := range views {
						if v > chunkPin[p] {
							chunkPin[p] = v
						}
					}
				}
			}
			for p := range need {
				contrib := chunkPin[p]
				if p == d && peak[d] > contrib {
					contrib = peak[d]
				}
				need[p] += contrib
			}
		}
		for p, b := range need {
			if b > peak[p] {
				peak[p], peakTask[p], peakIdx[p] = b, nil, -1
			}
		}
	} else {
		for _, c := range s.Collectives {
			coll := make([]int64, s.NGPUs)
			for i, in := range c.Inputs {
				if i < s.NGPUs {
					coll[i] += in.Bytes
				}
			}
			if len(c.Outputs) == len(c.Inputs) {
				// Gathers materialize a full output per shard device.
				for i, out := range c.Outputs {
					if i < s.NGPUs {
						coll[i] += out.Bytes
					}
				}
			}
			for d, b := range coll {
				if b > peak[d] {
					peak[d], peakTask[d], peakIdx[d] = b, c, -1
				}
			}
		}
	}
	r.PeakPinBytes = peak
	r.PeakResidentBytes = make([]int64, s.NGPUs)
	budget := int64(0)
	if s.Prefetch {
		budget = topo.prefetchBudget()
	}
	for d, b := range peak {
		resident := b + budget
		if resident > topo.DeviceBytes {
			resident = topo.DeviceBytes
		}
		r.PeakResidentBytes[d] = resident
		if b <= topo.DeviceBytes {
			continue
		}
		tl := &trace.Trace{}
		if t := peakTask[d]; t != nil && peakIdx[d] >= 0 {
			// Counterexample: the queue prefix leading to the peak task,
			// with the offender on the fault lane.
			lo := peakIdx[d] - 24
			if lo < 0 {
				lo = 0
			}
			for i := lo; i < peakIdx[d]; i++ {
				tl.Add(hw.DeviceID(d), trace.Compute, s.Queues[d][i].String(), sim.Time(i-lo), sim.Time(i-lo+1))
			}
			tl.Add(hw.DeviceID(d), trace.Fault,
				fmt.Sprintf("!%s pins %d > capacity %d", t, b, topo.DeviceBytes),
				sim.Time(peakIdx[d]-lo), sim.Time(peakIdx[d]-lo+1))
		}
		what := "collective"
		if s.Comm != nil {
			what = "chunked collectives (additive demand across workers)"
		}
		if peakTask[d] != nil {
			what = peakTask[d].String()
		}
		r.addf("capacity", tl,
			"gpu%d peak pinned bytes %d exceed capacity %d (worst task %s: inputs+outputs+workspace)",
			d, b, topo.DeviceBytes, what)
	}
}
