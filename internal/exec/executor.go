// The parallel executor maps each virtual device to a real worker
// goroutine. Tasks are released by a dependency-count dispatcher the
// moment their last dependency completes (a closed channel per task —
// no polling), each device worker drains its schedule queue in order,
// and collectives rendezvous across the participating device workers:
// every participant parks at the collective's position in its queue
// and the last to arrive performs the reduction, fanned across the
// kernel worker pool.
//
// Determinism: per-task math is bit-identical to the serial path (see
// internal/nn), collectives reduce replicas in fixed order, and losses
// are accumulated in task-ID order by Trainer.Step — so the parallel
// executor produces bit-identical weights and losses to the serial
// one, regardless of interleaving. Only data-movement counters (which
// depend on eviction timing) may differ.
package exec

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"harmony/internal/graph"
	"harmony/internal/sched"
)

// streamEntry is one slot in a device worker's execution stream:
// either a compute task from the schedule queue or a rendezvous (coll
// indexes the rendezvous list returned by buildStreams; -1 for
// compute). A rendezvous covers one collective on the monolithic path
// and one whole bucket of collectives on the chunked path; task is its
// first member (used for labels and anchor bookkeeping).
type streamEntry struct {
	task *graph.Task
	coll int
}

// buildStreams weaves each rendezvous into the queue of every
// participating device. Participants of an AllReduce are devices
// 0..N-1 — replica i's gradients live on device i, exactly as
// runCollective ensures them.
//
// Anchor placement differs by path, and the difference is the whole
// overlap story:
//
//   - monolithic (no comm plan): each collective is its own rendezvous
//     (rdvTasks[i] has one member), anchored just before its earliest
//     successor on the device — the all-park barrier runs as late as
//     the schedule allows;
//   - chunked (Schedule.Comm): each bucket is one rendezvous whose
//     members are its collectives in plan order, anchored just AFTER
//     the last member dependency on the device — the earliest point
//     the member gradients exist. The scheduler defers the bucket's
//     updates past the next bucket's backwards (commUpdateGroups), so
//     the entries after the anchor are compute: a worker that finishes
//     its chunks departs into backward work while other workers still
//     reduce. Both placements validate that every dependency precedes
//     the anchor and every successor follows it.
func buildStreams(s *sched.Schedule) ([][]streamEntry, [][]*graph.Task, []int, error) {
	type qpos struct{ dev, idx int }
	pos := make(map[int]qpos)
	for d, q := range s.Queues {
		for i, t := range q {
			pos[t.ID] = qpos{d, i}
		}
	}
	var rdvTasks [][]*graph.Task
	if s.Comm != nil {
		for _, b := range s.Comm {
			members := make([]*graph.Task, len(b.Members))
			for i, ci := range b.Members {
				members[i] = s.Collectives[ci]
			}
			rdvTasks = append(rdvTasks, members)
		}
	} else {
		for _, c := range s.Collectives {
			rdvTasks = append(rdvTasks, []*graph.Task{c})
		}
	}
	parties := make([]int, len(rdvTasks))
	// anchors[d][i] lists rendezvous to run right before queue index i.
	anchors := make([]map[int][]int, s.NGPUs)
	for d := range anchors {
		anchors[d] = make(map[int][]int)
	}
	for ri, members := range rdvTasks {
		n := 0
		for _, c := range members {
			if c.Kind != graph.AllReduce {
				return nil, nil, nil, fmt.Errorf("exec: unsupported collective kind %v in schedule", c.Kind)
			}
			if len(c.Inputs) == 0 || len(c.Inputs) > s.NGPUs {
				return nil, nil, nil, fmt.Errorf("exec: collective %s has %d inputs for %d devices", c, len(c.Inputs), s.NGPUs)
			}
			if n != 0 && len(c.Inputs) != n {
				return nil, nil, nil, fmt.Errorf("exec: rendezvous %d members disagree on party count", ri)
			}
			n = len(c.Inputs)
		}
		parties[ri] = n
		for d := 0; d < n; d++ {
			var anchor int
			if s.Comm != nil {
				// Earliest legal point: right after the last member
				// dependency scheduled on this device.
				anchor = 0
				for _, c := range members {
					for _, dep := range c.Deps {
						if p, ok := pos[dep.ID]; ok && p.dev == d && p.idx+1 > anchor {
							anchor = p.idx + 1
						}
					}
				}
			} else {
				// Latest legal point: right before the earliest member
				// successor on this device.
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
							return nil, nil, nil, fmt.Errorf("exec: collective %s on gpu%d depends on %s scheduled after its successors",
								c, d, dep)
						}
					}
				}
			}
			for _, c := range members {
				for _, succ := range c.Succs {
					if p, ok := pos[succ.ID]; ok && p.dev == d && p.idx < anchor {
						return nil, nil, nil, fmt.Errorf("exec: collective %s on gpu%d has successor %s scheduled before its dependencies",
							c, d, succ)
					}
				}
			}
			anchors[d][anchor] = append(anchors[d][anchor], ri)
		}
	}
	streams := make([][]streamEntry, s.NGPUs)
	for d, q := range s.Queues {
		st := make([]streamEntry, 0, len(q)+len(anchors[d]))
		for i := 0; i <= len(q); i++ {
			for _, ri := range anchors[d][i] {
				st = append(st, streamEntry{task: rdvTasks[ri][0], coll: ri})
			}
			if i < len(q) {
				st = append(st, streamEntry{task: q[i], coll: -1})
			}
		}
		streams[d] = st
	}
	return streams, rdvTasks, parties, nil
}

// validateStreams proves the woven schedule can complete by running it
// to a fixed point without executing any math: cursors advance when a
// head task's dependencies are met, collectives when all participants
// have arrived. A stuck fixed point is reported as a deadlock with
// each device's blocked head — the dispatcher refuses to launch
// workers that would hang forever on a cyclic schedule.
func validateStreams(tasks []*graph.Task, streams [][]streamEntry, rdvTasks [][]*graph.Task, parties []int) error {
	depsLeft := make([]int, len(tasks))
	total := 0
	for _, t := range tasks {
		depsLeft[t.ID] = len(t.Deps)
		total++
	}
	cursors := make([]int, len(streams))
	arrived := make([]int, len(parties))
	collDone := make([]bool, len(parties))
	collMarked := make(map[[2]int]bool) // (device, stream index) arrival recorded
	finish := func(t *graph.Task) {
		for _, s := range t.Succs {
			depsLeft[s.ID]--
		}
	}
	// A rendezvous completes when every participant has arrived and all
	// member dependencies are met; completing it finishes every member.
	// This is conservative for the chunked path (the real executor
	// releases each member as its last chunk retires, and lets finished
	// workers depart early), so a schedule passing here can only
	// complete more easily at runtime.
	membersReady := func(ri int) bool {
		for _, m := range rdvTasks[ri] {
			if depsLeft[m.ID] > 0 {
				return false
			}
		}
		return true
	}
	done := 0
	for done < total {
		progress := false
		for d := range streams {
			for cursors[d] < len(streams[d]) {
				e := streams[d][cursors[d]]
				if e.coll >= 0 {
					key := [2]int{d, cursors[d]}
					if !collMarked[key] {
						collMarked[key] = true
						arrived[e.coll]++
						progress = true
					}
					if !collDone[e.coll] {
						if arrived[e.coll] == parties[e.coll] && membersReady(e.coll) {
							collDone[e.coll] = true
							for _, m := range rdvTasks[e.coll] {
								finish(m)
								done++
							}
							progress = true
						} else {
							break // parked at the rendezvous
						}
					}
					cursors[d]++
					continue
				}
				if depsLeft[e.task.ID] > 0 {
					break
				}
				finish(e.task)
				done++
				cursors[d]++
				progress = true
			}
		}
		if !progress {
			var stuck []string
			for d := range streams {
				if cursors[d] < len(streams[d]) {
					e := streams[d][cursors[d]]
					stuck = append(stuck, fmt.Sprintf("gpu%d@%s(%d deps left)", d, e.task, depsLeft[e.task.ID]))
				}
			}
			return fmt.Errorf("exec: schedule deadlocked with %d/%d tasks done; blocked: %s",
				done, total, strings.Join(stuck, ", "))
		}
	}
	return nil
}

// rendezvous is one collective's runtime barrier state.
type rendezvous struct {
	arrived atomic.Int32
	parties int32
	done    chan struct{}
}

// executor runs one iteration's streams on worker goroutines.
type executor struct {
	tr     *Trainer
	labels [][][]int

	deps    []int32         // remaining dependencies per task ID
	ready   []chan struct{} // closed when deps hit zero
	losses  []float32       // per task ID, filled by final-layer backwards
	counted []bool

	// commLeft[bi][mi] counts bucket bi member mi's chunks not yet
	// reduced this run; the worker that retires a member's last chunk
	// completes it. Nil on the monolithic path.
	commLeft [][]int32

	abort    chan struct{}
	failOnce sync.Once
	err      error
}

func newExecutor(tr *Trainer, labels [][][]int) *executor {
	n := len(tr.g.Tasks)
	ex := &executor{
		tr:      tr,
		labels:  labels,
		deps:    make([]int32, n),
		ready:   make([]chan struct{}, n),
		losses:  make([]float32, n),
		counted: make([]bool, n),
		abort:   make(chan struct{}),
	}
	for _, b := range tr.comm {
		left := make([]int32, len(b.members))
		copy(left, b.chunksPerMember)
		ex.commLeft = append(ex.commLeft, left)
	}
	for _, t := range tr.g.Tasks {
		ex.deps[t.ID] = int32(len(t.Deps))
		ex.ready[t.ID] = make(chan struct{})
		if len(t.Deps) == 0 {
			close(ex.ready[t.ID])
		}
	}
	return ex
}

func (ex *executor) fail(err error) {
	ex.failOnce.Do(func() {
		ex.err = err
		close(ex.abort)
	})
}

// complete releases every successor whose dependency count reaches
// zero — the event-driven replacement for the serial poll loop.
func (ex *executor) complete(t *graph.Task) {
	for _, s := range t.Succs {
		if atomic.AddInt32(&ex.deps[s.ID], -1) == 0 {
			close(ex.ready[s.ID])
		}
	}
}

// run executes the streams and blocks until every worker has joined.
func (ex *executor) run(streams [][]streamEntry, parties []int) error {
	rdvs := make([]*rendezvous, len(parties))
	for i, p := range parties {
		rdvs[i] = &rendezvous{parties: int32(p), done: make(chan struct{})}
	}
	var wg sync.WaitGroup
	for d := range streams {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			ex.worker(d, streams[d], rdvs)
		}(d)
	}
	wg.Wait()
	return ex.err
}

// worker drains one device's stream in order, blocking on each entry
// until the dispatcher releases it.
func (ex *executor) worker(d int, stream []streamEntry, rdvs []*rendezvous) {
	pos := 0 // queue position of the next compute entry
	for i, e := range stream {
		select {
		case <-ex.abort:
			return
		default:
		}
		if e.coll >= 0 {
			if ex.tr.comm != nil {
				if !ex.reduceBucket(d, e.coll) {
					return
				}
			} else if !ex.arrive(d, rdvs[e.coll], e.task) {
				return
			}
			continue
		}
		t := e.task
		select {
		case <-ex.ready[t.ID]:
		case <-ex.abort:
			return
		}
		ex.tr.cursors[d].Store(int64(pos))
		pos++
		// With the task released and about to compute, overlap the
		// future: async swap-ins for the next tasks' inputs and
		// write-backs of the next victims' dirty pages ride the DMA
		// lanes while the kernel runs.
		if ex.tr.pf != nil {
			ex.tr.pf.issue(d, stream, i)
		}
		loss, counted, err := ex.tr.runTask(d, t, ex.labels)
		if err != nil {
			ex.fail(fmt.Errorf("exec: %s on gpu%d: %w", t, d, err))
			return
		}
		ex.losses[t.ID] = loss
		ex.counted[t.ID] = counted
		ex.complete(t)
	}
}

// runSerial executes the schedule on the calling goroutine with the
// original polling loop: advance each device's queue when its head
// task's dependencies are done; collectives run as they become ready.
// Kept as the reference path (TrainerConfig.Serial) for determinism
// tests and ablation benchmarks.
func (ex *executor) runSerial() error {
	tr := ex.tr
	depsLeft := make([]int, len(tr.g.Tasks))
	for _, t := range tr.g.Tasks {
		depsLeft[t.ID] = len(t.Deps)
	}
	cursors := make([]int, tr.s.NGPUs)
	complete := func(t *graph.Task) {
		for _, s := range t.Succs {
			depsLeft[s.ID]--
		}
	}
	pendingAR := append([]*graph.Task(nil), tr.s.Collectives...)
	done := 0
	total := len(tr.g.Tasks)
	for done < total {
		progress := false
		// Collectives first: they unblock updates on every device.
		for i := 0; i < len(pendingAR); i++ {
			ar := pendingAR[i]
			if depsLeft[ar.ID] > 0 {
				continue
			}
			if err := tr.runCollective(-1, ar); err != nil {
				return err
			}
			complete(ar)
			pendingAR = append(pendingAR[:i], pendingAR[i+1:]...)
			i--
			done++
			progress = true
		}
		for d := 0; d < tr.s.NGPUs; d++ {
			q := tr.s.Queues[d]
			for cursors[d] < len(q) && depsLeft[q[cursors[d]].ID] == 0 {
				t := q[cursors[d]]
				tr.cursors[d].Store(int64(cursors[d]))
				loss, counted, err := tr.runTask(d, t, ex.labels)
				if err != nil {
					return fmt.Errorf("exec: %s on gpu%d: %w", t, d, err)
				}
				ex.losses[t.ID] = loss
				ex.counted[t.ID] = counted
				complete(t)
				cursors[d]++
				done++
				progress = true
			}
		}
		if !progress {
			return fmt.Errorf("exec: schedule deadlocked with %d/%d tasks done", done, total)
		}
	}
	return nil
}

// arrive parks device worker d at a collective's rendezvous. The last
// participant to arrive waits for the collective's own dependencies
// and performs the reduction; everyone else resumes when it finishes.
// Because all participants are parked, per-device pin pressure during
// the collective is identical to the serial executor's. d attributes
// injected collective faults to the worker that hit them.
func (ex *executor) arrive(d int, r *rendezvous, t *graph.Task) bool {
	if r.arrived.Add(1) < r.parties {
		select {
		case <-r.done:
			return true
		case <-ex.abort:
			return false
		}
	}
	defer close(r.done)
	select {
	case <-ex.ready[t.ID]:
	case <-ex.abort:
		return false
	}
	if err := ex.tr.runCollective(d, t); err != nil {
		ex.fail(fmt.Errorf("exec: %s: %w", t, err))
		return false
	}
	ex.complete(t)
	return true
}

// reduceBucket is the chunked rendezvous: device worker d reduces
// exactly the chunks the plan assigned to it (chunk k → worker k mod
// N, fixed at plan time), in member order, waiting only for each
// member's own dependencies — never for other workers. The worker that
// retires a member's last chunk completes it, releasing its updates;
// a worker whose chunks are done departs immediately and continues its
// compute stream while other chunks still reduce. No arrival barrier
// exists, which is the whole point: chunk boundaries, reducer
// assignment and per-element summation order are pure functions of the
// plan, so the overlap costs no determinism.
func (ex *executor) reduceBucket(d int, bi int) bool {
	b := &ex.tr.comm[bi]
	chunks := b.byDev[d]
	idx := 0
	for mi, m := range b.members {
		lo := idx
		for idx < len(chunks) && chunks[idx].Member == mi {
			idx++
		}
		if lo == idx {
			continue // no chunks of this member assigned here
		}
		select {
		case <-ex.ready[m.ID]:
		case <-ex.abort:
			return false
		}
		for _, c := range chunks[lo:idx] {
			if err := ex.tr.runCollectiveChunk(d, m, c.Lo, c.Hi); err != nil {
				ex.fail(fmt.Errorf("exec: %s[%d:%d]: %w", m, c.Lo, c.Hi, err))
				return false
			}
		}
		if atomic.AddInt32(&ex.commLeft[bi][mi], int32(lo-idx)) == 0 {
			ex.complete(m)
		}
	}
	return true
}
