// Package runtime executes a schedule on the simulated hardware: it
// drives tasks through the memory manager (acquire → compute →
// release), launches collectives when their dependencies resolve,
// overlaps prefetch with compute when the schedule asks for it, and
// measures steady-state iteration time and swap traffic.
//
// The runtime is the piece that ties everything together: the task
// graph supplies *what* must run, the schedule supplies *where and in
// what order*, the memory manager supplies *residency*, and the
// topology supplies *time*.
package runtime

import (
	"fmt"
	"strings"

	"harmony/internal/collective"
	"harmony/internal/graph"
	"harmony/internal/hw"
	"harmony/internal/memory"
	"harmony/internal/sched"
	"harmony/internal/sim"
	"harmony/internal/tensor"
	"harmony/internal/trace"
)

// Config describes one measured simulation run.
type Config struct {
	Box      hw.BoxConfig
	Schedule *sched.Schedule

	// WarmupIters run before measurement starts (fills caches and
	// reaches the steady state); MeasureIters are averaged.
	WarmupIters  int
	MeasureIters int

	// CaptureTrace records compute and transfer spans (memory-heavy;
	// keep iterations small when enabled).
	CaptureTrace bool

	// CaptureUsage records each device's resident-bytes timeline
	// (Result.Usage), the Fig. 2(c) memory-usage series.
	CaptureUsage bool

	// EventLimit bounds total simulation events as a runaway
	// backstop. 0 selects a generous default.
	EventLimit uint64

	// PrefetchDepth is how many queue positions ahead to prefetch
	// when the schedule enables prefetching. 0 selects the default
	// of 2 (double buffering).
	PrefetchDepth int
}

// Result reports steady-state metrics.
type Result struct {
	// IterTime is the average steady-state time per iteration;
	// Throughput is samples/second derived from it.
	IterTime   sim.Time
	Throughput float64

	// Per-iteration steady-state swap traffic, summed over devices.
	SwapInBytes  int64
	SwapOutBytes int64
	P2PBytes     int64
	DropBytes    int64

	// PerDev is cumulative per-device statistics over the whole run
	// (including warmup).
	PerDev []memory.DeviceStats
	// PerDevSwapOut is steady-state per-iteration swap-out bytes per
	// device (the Fig. 2(c) imbalance signal).
	PerDevSwapOut []int64
	// PerDevDemand is each device's peak working-set demand in bytes
	// (resident + swapped-out live tensors homed there).
	PerDevDemand []int64

	// ComputeBusy is each device's busy kernel time over the
	// measured window (for utilization).
	ComputeBusy []sim.Time

	// LinkBusy is each link's cumulative busy time over the whole
	// run, keyed by link name (host-up/host-down are the shared
	// bottleneck of Fig. 2(b)).
	LinkBusy map[string]sim.Time

	// Usage is each device's resident-bytes timeline (only when
	// Config.CaptureUsage was set).
	Usage [][]trace.UsagePoint

	TotalTime sim.Time
	Trace     *trace.Trace
}

// Run executes the configured simulation.
func Run(cfg Config) (*Result, error) {
	if cfg.Schedule == nil {
		return nil, fmt.Errorf("runtime: nil schedule")
	}
	if cfg.MeasureIters <= 0 {
		return nil, fmt.Errorf("runtime: MeasureIters must be positive, got %d", cfg.MeasureIters)
	}
	if cfg.WarmupIters < 0 {
		return nil, fmt.Errorf("runtime: negative WarmupIters")
	}
	if cfg.Box.TotalGPUs() < cfg.Schedule.NGPUs {
		return nil, fmt.Errorf("runtime: schedule needs %d GPUs, box has %d", cfg.Schedule.NGPUs, cfg.Box.TotalGPUs())
	}
	eng := sim.NewEngine()
	limit := cfg.EventLimit
	if limit == 0 {
		limit = 200_000_000
	}
	eng.Limit = limit
	top, err := hw.NewBox(eng, cfg.Box)
	if err != nil {
		return nil, err
	}
	r := &runner{
		cfg: cfg,
		eng: eng,
		top: top,
		sch: cfg.Schedule,
		g:   cfg.Schedule.Graph,
	}
	r.mgr = memory.New(eng, top, r.g.Reg, cfg.Schedule.MemPolicy)
	if cfg.Schedule.MemPolicy.Lookahead {
		// Lookahead (Belady) eviction: rank each tensor by its next use
		// in the device queue as seen from the dispatch cursor.
		uses := cfg.Schedule.UseIndex()
		r.mgr.NextUse = func(id int, dev hw.DeviceID) int {
			return uses.Next(int(dev), id, r.cursor[dev])
		}
	}
	if cfg.CaptureUsage {
		r.usage = make([][]trace.UsagePoint, cfg.Schedule.NGPUs)
		for d := 0; d < cfg.Schedule.NGPUs; d++ {
			d := d
			r.mgr.OnUsageChange(hw.DeviceID(d), func(used int64) {
				pts := r.usage[d]
				// Coalesce same-instant samples to the latest value.
				if n := len(pts); n > 0 && pts[n-1].At == r.eng.Now() {
					pts[n-1].Bytes = used
				} else {
					pts = append(pts, trace.UsagePoint{At: r.eng.Now(), Bytes: used})
				}
				r.usage[d] = pts
			})
		}
	}
	if cfg.CaptureTrace {
		r.trace = &trace.Trace{}
		r.mgr.Hook = func(kind string, t *tensor.Tensor, dev hw.DeviceID, start, end sim.Time) {
			lane := trace.SwapIn
			label := "I " + t.String()
			switch kind {
			case "swap-out":
				lane, label = trace.SwapOut, "O "+t.String()
			case "p2p":
				lane, label = trace.P2P, "P "+t.String()
			case "drop":
				lane, label = trace.SwapOut, "D "+t.String()
			}
			r.trace.Add(dev, lane, label, start, end)
		}
	}
	return r.run()
}

// runner holds per-run mutable state.
type runner struct {
	cfg Config
	eng *sim.Engine
	top *hw.Topology
	mgr *memory.Manager
	sch *sched.Schedule
	g   *graph.Graph

	depsLeft []int
	cursor   []int
	running  []bool
	// deferred holds update tasks skipped over because they were
	// still waiting on an AllReduce: Harmony's just-in-time semantics
	// run a task as soon as its inputs are available, so a blocked
	// update must not stall the device queue behind it. Deferred
	// tasks run with priority once their dependencies resolve.
	deferred  [][]*graph.Task
	completed int

	iter      int
	iterStart sim.Time
	iterTimes []sim.Time

	onIterDone func()

	// usage accumulates resident-bytes timelines when CaptureUsage
	// is set.
	usage [][]trace.UsagePoint

	trace *trace.Trace
	fatal error
}

func (r *runner) fail(err error) {
	if r.fatal == nil {
		r.fatal = err
		r.eng.Stop()
	}
}

func (r *runner) run() (*Result, error) {
	total := r.cfg.WarmupIters + r.cfg.MeasureIters

	// Materialize persistent state and the first iteration's inputs
	// in host memory.
	if err := r.mgr.InitHost(r.g.PersistentTensors()...); err != nil {
		return nil, err
	}

	var measStart sim.Time
	var devSnap []memory.DeviceStats
	var busySnap []sim.Time
	snapshot := func() {
		measStart = r.eng.Now()
		devSnap = devSnap[:0]
		busySnap = busySnap[:0]
		for d := 0; d < r.sch.NGPUs; d++ {
			devSnap = append(devSnap, r.mgr.Stats(hw.DeviceID(d)))
			busySnap = append(busySnap, r.top.GPUs[d].Compute.BusyTime)
		}
	}

	var startIter func()
	startIter = func() {
		if r.iter == r.cfg.WarmupIters {
			snapshot()
		}
		if r.iter == total {
			r.eng.Stop()
			return
		}
		r.iterStart = r.eng.Now()
		r.beginIteration(func() {
			r.iterTimes = append(r.iterTimes, r.eng.Now()-r.iterStart)
			r.iter++
			startIter()
		})
	}
	if r.cfg.WarmupIters == 0 {
		snapshot()
	}
	startIter()
	if _, err := r.eng.Run(); err != nil {
		return nil, err
	}
	if r.fatal != nil {
		return nil, r.fatal
	}
	if err := r.mgr.Err(); err != nil {
		return nil, err
	}
	if r.iter < total {
		return nil, fmt.Errorf("runtime: stalled in iteration %d: %s", r.iter, r.stuckReport())
	}

	res := &Result{TotalTime: r.eng.Now(), Trace: r.trace, LinkBusy: map[string]sim.Time{}, Usage: r.usage}
	for _, l := range r.top.Links {
		res.LinkBusy[l.Name] = l.Res.BusyTime
	}
	var sum sim.Time
	for _, t := range r.iterTimes[r.cfg.WarmupIters:] {
		sum += t
	}
	res.IterTime = sum / sim.Time(r.cfg.MeasureIters)
	if res.IterTime > 0 {
		res.Throughput = float64(r.g.Cfg.MiniBatch()) / float64(res.IterTime)
	}
	iters := int64(r.cfg.MeasureIters)
	for d := 0; d < r.sch.NGPUs; d++ {
		cur := r.mgr.Stats(hw.DeviceID(d))
		res.PerDev = append(res.PerDev, cur)
		res.SwapInBytes += (cur.SwapInBytes - devSnap[d].SwapInBytes) / iters
		res.SwapOutBytes += (cur.SwapOutBytes - devSnap[d].SwapOutBytes) / iters
		res.P2PBytes += (cur.P2PInBytes - devSnap[d].P2PInBytes) / iters
		res.DropBytes += (cur.DropBytes - devSnap[d].DropBytes) / iters
		res.PerDevSwapOut = append(res.PerDevSwapOut, (cur.SwapOutBytes-devSnap[d].SwapOutBytes)/iters)
		res.PerDevDemand = append(res.PerDevDemand, cur.HighWaterDemand)
		res.ComputeBusy = append(res.ComputeBusy, r.top.GPUs[d].Compute.BusyTime-busySnap[d])
	}
	_ = measStart
	return res, nil
}

// beginIteration resets per-iteration bookkeeping, materializes the
// input batches, and starts dispatching. onDone fires when every task
// of the iteration has completed and transient state is cleaned up.
func (r *runner) beginIteration(onDone func()) {
	n := len(r.g.Tasks)
	if r.depsLeft == nil {
		r.depsLeft = make([]int, n)
		r.cursor = make([]int, r.sch.NGPUs)
		r.running = make([]bool, r.sch.NGPUs)
		r.deferred = make([][]*graph.Task, r.sch.NGPUs)
	}
	for _, t := range r.g.Tasks {
		r.depsLeft[t.ID] = len(t.Deps)
	}
	for d := range r.cursor {
		r.cursor[d] = 0
		r.running[d] = false
		r.deferred[d] = r.deferred[d][:0]
	}
	r.completed = 0

	if err := r.mgr.InitHost(r.g.InputTensors()...); err != nil {
		r.fail(err)
		return
	}

	finishIter := func() {
		// Input batches are consumed; release their host buffers so
		// the next iteration can load fresh data.
		for _, in := range r.g.InputTensors() {
			if err := r.mgr.FreeTensor(in); err != nil {
				r.fail(err)
				return
			}
		}
		onDone()
	}
	r.onIterDone = finishIter
	r.dispatchAll()
}

func (r *runner) stuckReport() string {
	var stuck []string
	for d := 0; d < r.sch.NGPUs; d++ {
		if r.cursor[d] < len(r.sch.Queues[d]) {
			t := r.sch.Queues[d][r.cursor[d]]
			stuck = append(stuck, fmt.Sprintf("gpu%d at %s (deps left %d, running %v, deferred %d)",
				d, t, r.depsLeft[t.ID], r.running[d], len(r.deferred[d])))
		} else if len(r.deferred[d]) > 0 {
			stuck = append(stuck, fmt.Sprintf("gpu%d drained with %d deferred updates", d, len(r.deferred[d])))
		}
	}
	if len(stuck) == 0 {
		return "all queues drained but collectives incomplete"
	}
	return strings.Join(stuck, "; ")
}

func (r *runner) dispatchAll() {
	for d := 0; d < r.sch.NGPUs; d++ {
		r.dispatch(d)
	}
}

// dispatch starts the next runnable task on device d if it is idle.
// Ready deferred updates take priority; then the queue head; an
// update blocked on its AllReduce is deferred rather than allowed to
// stall the queue (just-in-time semantics: run tasks when their
// inputs become available, don't serialize on collectives).
func (r *runner) dispatch(d int) {
	if r.fatal != nil || r.running[d] {
		return
	}
	var t *graph.Task
	for i, u := range r.deferred[d] {
		if r.depsLeft[u.ID] == 0 {
			t = u
			r.deferred[d] = append(r.deferred[d][:i], r.deferred[d][i+1:]...)
			break
		}
	}
	for t == nil && r.cursor[d] < len(r.sch.Queues[d]) {
		head := r.sch.Queues[d][r.cursor[d]]
		if r.depsLeft[head.ID] == 0 {
			t = head
			r.cursor[d]++
			break
		}
		if head.Kind == graph.Update && r.sch.Opts.DeferBlockedUpdates {
			r.deferred[d] = append(r.deferred[d], head)
			r.cursor[d]++
			continue
		}
		return
	}
	if t == nil {
		return
	}
	r.running[d] = true
	dev := hw.DeviceID(d)
	r.mgr.Acquire(dev, t.Inputs, t.Outputs, t.WorkspaceBytes, func() {
		r.prefetchAhead(d)
		kernel := r.top.Device(dev).KernelTime(t.FLOPs)
		var start sim.Time
		r.top.Device(dev).Compute.Acquire(kernel,
			func(at sim.Time) { start = at },
			func(at sim.Time) {
				if r.trace != nil {
					r.trace.Add(dev, trace.Compute, t.String(), start, at)
				}
				if err := r.mgr.Release(dev, t.Inputs, t.Outputs, t.Mutates, t.Frees, t.WorkspaceBytes); err != nil {
					r.fail(err)
					return
				}
				r.running[d] = false
				r.taskCompleted(t)
			})
	}, func(err error) {
		r.fail(fmt.Errorf("runtime: %s on %s: %w", t, dev, err))
	})
}

// prefetchAhead overlaps upcoming swap-ins with the current compute.
func (r *runner) prefetchAhead(d int) {
	if !r.sch.Prefetch {
		return
	}
	depth := r.cfg.PrefetchDepth
	if depth == 0 {
		depth = 2
	}
	q := r.sch.Queues[d]
	// cursor already points past the task now starting, so cursor+0
	// is the next task in line.
	for k := 0; k < depth; k++ {
		idx := r.cursor[d] + k
		if idx >= len(q) {
			return
		}
		for _, in := range q[idx].Inputs {
			r.mgr.Prefetch(hw.DeviceID(d), in)
		}
	}
}

// taskCompleted propagates completion to dependents and detects the
// end of the iteration.
func (r *runner) taskCompleted(t *graph.Task) {
	r.completed++
	for _, s := range t.Succs {
		r.depsLeft[s.ID]--
		if r.depsLeft[s.ID] == 0 && (s.Kind == graph.AllReduce || s.Kind == graph.Gather) {
			r.launchCollective(s)
		}
	}
	if r.completed == len(r.g.Tasks) {
		r.onIterDone()
		return
	}
	r.dispatchAll()
}

// launchCollective runs an AllReduce or Gather task. By convention
// the i-th input (and output, for gathers) belongs to replica/shard i
// and therefore to GPU i.
//
// AllReduce: pin every replica's gradient buffer, run the ring
// all-reduce, release with the buffers marked dirty (they now hold
// the averaged gradients).
//
// Gather: pin every shard's partial on its device and allocate the
// full replica there, run the ring all-gather, release with replicas
// dirty and partials freed.
func (r *runner) launchCollective(t *graph.Task) {
	n := len(t.Inputs)
	devs := make([]hw.DeviceID, n)
	acquired := 0
	finish := func() {
		for j := range t.Inputs {
			in := []*tensor.Tensor{t.Inputs[j]}
			var out, mut, frees []*tensor.Tensor
			switch t.Kind {
			case graph.AllReduce:
				mut = in
			case graph.Gather:
				out = []*tensor.Tensor{t.Outputs[j]}
				mut = out
				frees = []*tensor.Tensor{t.Frees[j]}
			}
			if err := r.mgr.Release(devs[j], in, out, mut, frees, 0); err != nil {
				r.fail(err)
				return
			}
		}
		r.taskCompleted(t)
	}
	for i := range t.Inputs {
		i := i
		devs[i] = hw.DeviceID(i)
		in := []*tensor.Tensor{t.Inputs[i]}
		var out []*tensor.Tensor
		if t.Kind == graph.Gather {
			out = []*tensor.Tensor{t.Outputs[i]}
		}
		r.mgr.Acquire(devs[i], in, out, 0, func() {
			acquired++
			if acquired < n {
				return
			}
			var err error
			asyncFail := func(err error) {
				r.fail(fmt.Errorf("runtime: collective %s mid-flight: %w", t, err))
			}
			switch t.Kind {
			case graph.AllReduce:
				err = collective.RingAllReduce(r.top, devs, t.CommBytes, func(sim.Time) { finish() }, asyncFail)
			case graph.Gather:
				err = collective.RingAllGather(r.top, devs, t.CommBytes, func(sim.Time) { finish() }, asyncFail)
			default:
				err = fmt.Errorf("runtime: unexpected collective kind %v", t.Kind)
			}
			if err != nil {
				r.fail(err)
			}
		}, func(err error) {
			r.fail(fmt.Errorf("runtime: collective %s: %w", t, err))
		})
	}
}
