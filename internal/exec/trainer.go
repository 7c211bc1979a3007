package exec

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"harmony/internal/fault"
	"harmony/internal/graph"
	"harmony/internal/models"
	"harmony/internal/nn"
	"harmony/internal/sched"
	"harmony/internal/schedcheck"
	"harmony/internal/tensor"
	"harmony/internal/trace"
)

// Optimizer selects the weight-update rule.
type Optimizer int

const (
	// SGD is plain stochastic gradient descent.
	SGD Optimizer = iota
	// Adam keeps two moment buffers per parameter (the optimizer
	// state K of the paper's swap model).
	Adam
)

// TrainerConfig configures real training of a classifier under
// Harmony scheduling on virtual devices.
type TrainerConfig struct {
	// Widths is the MLP shape: input, hidden..., classes. Ignored
	// when Kernels is set.
	Widths []int
	// Kernels, when non-nil, is an explicit layer stack (dense,
	// conv, pool — anything implementing nn.Kernel); the final
	// kernel's OutSize is the class count.
	Kernels []nn.Kernel
	// Mode, Devices and the optimization toggles come from the same
	// scheduler as the simulator.
	Mode    sched.Mode
	Devices int
	// DeviceBytes is each virtual device's memory capacity; pick it
	// below the model's footprint to exercise swapping.
	DeviceBytes int64
	// MicrobatchSize and Microbatches shape one iteration per
	// replica (pipeline mode uses Microbatches as the total stream).
	MicrobatchSize int
	Microbatches   int
	Optimizer      Optimizer
	LR             float32
	Seed           uint64
	// Options overrides sched.DefaultOptions(Mode) when non-nil.
	Options *sched.Options
	// Serial forces the single-threaded reference executor (the
	// original polling loop). The default is the parallel
	// device-worker executor; both produce bit-identical weights
	// and losses — Serial exists for determinism tests and ablation
	// benchmarks.
	Serial bool

	// PrefetchDepth controls schedule-driven prefetch in the parallel
	// executor: before each kernel launches, its device worker issues
	// async swap-ins for the inputs of the next PrefetchDepth compute
	// tasks in its stream and proactive write-backs of the next
	// eviction victims' dirty pages, all overlapped with the kernel by
	// per-device DMA worker goroutines. 0 means the default (2) when
	// the schedule's Prefetch option is on; negative disables prefetch
	// entirely. The serial reference path never prefetches. Prefetch
	// changes only data movement, never math: weights and losses stay
	// bit-identical at every depth.
	PrefetchDepth int
	// LinkBytesPerSec models host-link bandwidth: every swap, p2p
	// copy and collective's remote gradient traffic additionally
	// costs bytes/LinkBytesPerSec of wall time on
	// its transfer lane (outside the VM lock, so concurrent DMAs and
	// compute genuinely overlap). 0 disables modeling — transfers
	// cost only their memcpy time.
	LinkBytesPerSec int64

	// CommChunks splits each gradient AllReduce into that many
	// plan-time chunk rendezvous, each reduced by a deterministically
	// assigned device worker so reduce work spreads across workers and
	// finished workers overlap collective tails with their compute
	// stream. 0 keeps the monolithic rendezvous. Shorthand for
	// Options.CommChunks. Chunked runs are bit-identical to monolithic
	// and serial ones: boundaries, reducers and per-element summation
	// order are pure functions of the plan.
	CommChunks int
	// CommBucketBytes coalesces small per-layer gradients (reverse
	// layer order) into byte-budgeted buckets sharing one rendezvous.
	// Shorthand for Options.CommBucketBytes; implies CommChunks >= 1.
	CommBucketBytes int64

	// Injector, when non-nil, fault-injects kernel launches,
	// swap-in/out and p2p copies, and collective rendezvous (see
	// internal/fault for the spec grammar). Transient faults are
	// retried with backoff; delay faults perturb timing only; fatal
	// faults kill the device worker.
	Injector *fault.Injector
	// MaxRetries bounds retries per faulted operation (0 means the
	// default of 3; negative disables retries).
	MaxRetries int
	// NoVerify skips the schedcheck preflight gate. NewTrainer
	// statically verifies the plan by default — happens-before
	// liveness, pin-budget residency, analytic swap-volume agreement
	// and the DMA claim-machine invariant — and refuses to construct a
	// trainer for a plan that would deadlock or thrash. Opting out is
	// for tests that deliberately build broken plans.
	NoVerify bool
	// Recover enables mid-iteration recovery: after a fatal device
	// fault the trainer retires the device, re-binds its stream to a
	// surviving device, rechecks pin budgets, rolls weights and
	// optimizer state back to the last completed step (an in-memory
	// checkpoint in the exec/checkpoint.go format) and re-runs the
	// step. Training math is unchanged: recovery only remaps where
	// tensors live, so recovered runs stay bit-identical to
	// fault-free ones.
	Recover bool
}

// Trainer runs real training iterations.
type Trainer struct {
	cfg     TrainerConfig
	layers  []nn.Kernel
	inDim   int
	classes int
	g       *graph.Graph
	s       *sched.Schedule
	vm      *VM
	step    int

	// streams are the per-device execution streams with rendezvous
	// woven in at their anchors; rdvTasks[i] lists rendezvous i's
	// member collectives (one on the monolithic path, a whole bucket
	// on the chunked path) and parties[i] is how many device workers
	// meet there. Built once at NewTrainer, checked for liveness once
	// at the first Step.
	streams   [][]streamEntry
	rdvTasks  [][]*graph.Task
	parties   []int
	validated bool
	valErr    error

	// comm is the chunked-collective runtime plan (nil = monolithic);
	// commStats counts chunk reductions, guarded by commMu because
	// chunks retire concurrently on different device workers.
	comm      []commBucketRT
	commMu    sync.Mutex
	commStats CommStats

	// pf, when non-nil, is the schedule-driven prefetcher the device
	// workers call before each kernel; rec, when non-nil, records
	// wall-clock compute/DMA spans (EnableTrace).
	pf  *prefetcher
	rec *runRecorder

	// Eviction oracle (nextUse): uses indexes the plan's queues and
	// cursors[d] is the queue position of virtual device d's current
	// compute task, advanced by whichever executor runs the step. uses
	// changes only between steps (indexUses).
	uses    *sched.UseIndex
	cursors []atomic.Int64

	// Recovery state. Virtual devices are schedule constructs; devMap
	// binds virtual device d to the physical device devMap[d] whose
	// memory it uses. Initially the identity map; when a physical
	// device dies (alive[p]=false) every virtual device bound to it is
	// re-bound to a survivor. Kernels are placement-independent and
	// collectives reduce in fixed order, so remapping never changes
	// the math — only where tensors live.
	devMap     []int
	alive      []bool
	snap       []byte  // last completed step, exec/checkpoint format
	statsBase  VMStats // counters from VMs discarded by recovery
	recoveries int
}

// NewTrainer builds the model, task graph, schedule and virtual
// memory, and initializes weights identically across replicas.
func NewTrainer(cfg TrainerConfig) (*Trainer, error) {
	var layers []nn.Kernel
	if len(cfg.Kernels) > 0 {
		layers = cfg.Kernels
		for i := 0; i+1 < len(layers); i++ {
			if layers[i].OutSize() != layers[i+1].InSize() {
				return nil, fmt.Errorf("exec: kernel %d (%s) out %d != kernel %d (%s) in %d",
					i, layers[i].Name(), layers[i].OutSize(),
					i+1, layers[i+1].Name(), layers[i+1].InSize())
			}
		}
	} else {
		if len(cfg.Widths) < 2 {
			return nil, fmt.Errorf("exec: need at least input and output widths")
		}
		for i := 0; i+1 < len(cfg.Widths); i++ {
			layers = append(layers, nn.Dense{
				In:   cfg.Widths[i],
				Out:  cfg.Widths[i+1],
				ReLU: i+2 < len(cfg.Widths), // all but the final layer
			})
		}
	}
	if cfg.Devices <= 0 {
		return nil, fmt.Errorf("exec: Devices must be positive")
	}
	if cfg.LR <= 0 {
		return nil, fmt.Errorf("exec: LR must be positive")
	}
	model := kernelModel(layers, cfg.Optimizer == Adam)
	replicas := cfg.Devices
	if cfg.Mode.IsPipeline() {
		replicas = 1
	}
	g, err := graph.Build(graph.Config{
		Model:          model,
		MicrobatchSize: cfg.MicrobatchSize,
		Microbatches:   cfg.Microbatches,
		Replicas:       replicas,
	})
	if err != nil {
		return nil, err
	}
	opts := sched.DefaultOptions(cfg.Mode)
	if cfg.Options != nil {
		opts = *cfg.Options
		opts.Mode = cfg.Mode
	}
	if cfg.CommChunks > 0 {
		opts.CommChunks = cfg.CommChunks
	}
	if cfg.CommBucketBytes > 0 {
		opts.CommBucketBytes = cfg.CommBucketBytes
	}
	s, err := sched.Build(g, opts, cfg.Devices)
	if err != nil {
		return nil, err
	}
	streams, rdvTasks, parties, err := buildStreams(s)
	if err != nil {
		return nil, err
	}
	if !cfg.NoVerify {
		if err := schedcheck.Check(s, planTopology(cfg)).Err(); err != nil {
			return nil, fmt.Errorf("exec: plan rejected by preflight verification (-verify=false or NoVerify to skip):\n%w", err)
		}
	}
	tr := &Trainer{
		cfg:      cfg,
		layers:   layers,
		inDim:    layers[0].InSize(),
		classes:  layers[len(layers)-1].OutSize(),
		g:        g,
		s:        s,
		vm:       NewVM(cfg.Devices, cfg.DeviceBytes, s.MemPolicy),
		streams:  streams,
		rdvTasks: rdvTasks,
		parties:  parties,
		comm:     buildCommPlan(s),
		devMap:   make([]int, cfg.Devices),
		alive:    make([]bool, cfg.Devices),
		cursors:  make([]atomic.Int64, cfg.Devices),
	}
	for d := range tr.devMap {
		tr.devMap[d] = d
		tr.alive[d] = true
	}
	tr.indexUses()
	if d := tr.prefetchDepth(); d > 0 {
		tr.pf = &prefetcher{tr: tr, depth: d, clean: 1}
	}
	tr.configureVM()
	// Persistent state: identical weights in every replica, zero
	// optimizer state.
	tr.allocState()
	for r := 0; r < replicas; r++ {
		for l, layer := range tr.layers {
			nn.InitKernel(layer, tr.vm.HostAlloc(g.W[r][l]), cfg.Seed+uint64(l)*7919)
		}
	}
	if cfg.Recover {
		if err := tr.snapshot(); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// allocState materializes the persistent state (W, K) of every
// replica, zero-filled on the host, in a fresh VM. Weight gradients
// are not persistent: each step's first backward allocates dW on its
// device and the update frees it (gradBuffer).
func (tr *Trainer) allocState() {
	for r := 0; r < tr.g.Cfg.Replicas; r++ {
		for l := range tr.layers {
			tr.vm.HostAlloc(tr.g.W[r][l])
			if tr.g.K[r][l].Bytes > 0 {
				tr.vm.HostAlloc(tr.g.K[r][l])
			}
		}
	}
}

// prefetchDepth resolves the configured lookahead: 0 means the
// default of 2 when the schedule asked for prefetch, negative
// disables. The serial reference path never prefetches — it is the
// bit-exactness and data-movement baseline.
func (tr *Trainer) prefetchDepth() int {
	switch {
	case tr.cfg.Serial || tr.cfg.PrefetchDepth < 0:
		return 0
	case tr.cfg.PrefetchDepth > 0:
		return tr.cfg.PrefetchDepth
	case tr.s.Prefetch:
		return 2
	default:
		return 0
	}
}

// configureVM arms the (possibly rebuilt) VM with fault injection,
// link modeling, tracing and — when prefetch is on — the async DMA
// engine. Shared by NewTrainer, recovery and retune.
func (tr *Trainer) configureVM() {
	tr.vm.SetNextUse(tr.nextUse)
	tr.vm.SetFaultInjection(tr.cfg.Injector, tr.maxRetries(), func() int { return tr.step })
	tr.vm.SetLinkBandwidth(tr.cfg.LinkBytesPerSec)
	if tr.rec != nil {
		tr.vm.SetRecorder(tr.rec.add)
	}
	if tr.pf != nil {
		tr.vm.StartEngine(0) // default budget: half the device capacity
	}
}

// indexUses rebuilds the eviction oracle's use index for the current
// plan and rewinds every queue cursor to the start of the step. Called
// between steps wherever the plan or the device binding changes.
func (tr *Trainer) indexUses() {
	tr.uses = tr.s.UseIndex()
	for d := range tr.cursors {
		tr.cursors[d].Store(0)
	}
}

// nextUse is the VM's eviction oracle: how many queue positions ahead
// of its cursor tensor id is next used, nearest over the virtual
// devices devMap binds to physical device dev (sched.NeverUsed when
// none uses it). The trainer owns its streams, so it always ranks by
// next use; the schedule's LookaheadEviction toggle only switches the
// simulator. Runs under a VM shard lock: it only loads cursors and
// reads the index and devMap, which change only between steps.
func (tr *Trainer) nextUse(dev, id int) int {
	best := sched.NeverUsed
	for d, p := range tr.devMap {
		if p != dev {
			continue
		}
		cur := int(tr.cursors[d].Load())
		if n := tr.uses.Next(d, id, cur); n != sched.NeverUsed && n-cur < best {
			best = n - cur
		}
	}
	return best
}

// planTopology is the schedcheck preflight topology for a config.
func planTopology(cfg TrainerConfig) schedcheck.Topology {
	return schedcheck.Topology{Devices: cfg.Devices, DeviceBytes: cfg.DeviceBytes}
}

// maxRetries resolves the configured retry bound: 0 means the default
// of 3, negative disables retries.
func (tr *Trainer) maxRetries() int {
	switch {
	case tr.cfg.MaxRetries > 0:
		return tr.cfg.MaxRetries
	case tr.cfg.MaxRetries < 0:
		return 0
	default:
		return 3
	}
}

// pdev maps a virtual device to the physical device backing it.
func (tr *Trainer) pdev(d int) int {
	if d < 0 || d >= len(tr.devMap) {
		return d
	}
	return tr.devMap[d]
}

// Alive reports which physical devices have not been retired by
// recovery.
func (tr *Trainer) Alive() []bool { return append([]bool(nil), tr.alive...) }

// Recoveries reports how many fatal device faults the trainer has
// recovered from.
func (tr *Trainer) Recoveries() int { return tr.recoveries }

// injectOp consults the fault injector for a compute-side operation
// (kernel launch, collective rendezvous), retrying transient faults
// with backoff.
func (tr *Trainer) injectOp(op fault.Op, dev, layer int) error {
	in := tr.cfg.Injector
	if in.Rules() == 0 {
		return nil
	}
	err := in.Inject(op, dev, tr.step, layer)
	for attempt := 0; fault.IsTransient(err) && attempt < tr.maxRetries(); attempt++ {
		in.NoteRetry(op, dev, tr.step)
		time.Sleep(fault.Backoff(attempt))
		err = in.Inject(op, dev, tr.step, layer)
	}
	return err
}

// kernelModel derives the simulator-facing model description from a
// real kernel stack: the graph and scheduler need only sizes and
// operation counts.
func kernelModel(layers []nn.Kernel, adam bool) *models.Model {
	opt := 0.0
	if adam {
		opt = 2.0
	}
	m := &models.Model{
		Name:                 "exec-kernels",
		OptStateParamsFactor: opt,
		SampleBytes:          int64(layers[0].InSize()) * 4,
	}
	for _, k := range layers {
		m.Layers = append(m.Layers, models.LayerSpec{
			Name:                k.Name(),
			Params:              int64(k.ParamCount()),
			FwdFLOPsPerSample:   k.FLOPsPerSample(),
			ActBytesPerSample:   int64(k.OutSize()) * 4,
			StashBytesPerSample: int64(k.StashSize()) * 4,
		})
	}
	return m
}

// Stats returns data-movement counters accumulated so far, including
// those of VMs discarded by recovery. The snapshot is taken under the
// VM lock, so it is safe to call between steps of a parallel trainer
// (never concurrently with one).
func (tr *Trainer) Stats() VMStats { return tr.statsBase.add(tr.vm.StatsSnapshot()) }

// Model reports the derived model's footprint for sizing examples.
func (tr *Trainer) FootprintBytes() int64 {
	var total int64
	for _, t := range tr.g.Reg.All() {
		if t.Kind.IsPersistent() {
			total += t.Bytes
		}
	}
	return total
}

// Replicas returns how many model replicas the trainer maintains.
func (tr *Trainer) Replicas() int { return tr.g.Cfg.Replicas }

// batchesNeeded returns how many (microbatch) slots one Step consumes
// per replica.
func (tr *Trainer) batchesNeeded() int { return tr.g.Cfg.Microbatches }

// Step runs one training iteration. inputs[r][i] is the microbatch i
// fed to replica r (flattened [MicrobatchSize × Widths[0]]), labels
// likewise. It returns the mean loss across all microbatches.
//
// The iteration runs on the parallel device-worker executor unless
// cfg.Serial forces the single-threaded reference path; both produce
// bit-identical weights and losses (see executor.go).
func (tr *Trainer) Step(inputs [][][]float32, labels [][][]int) (float32, error) {
	m := tr.batchesNeeded()
	N := tr.g.Cfg.Replicas
	if len(inputs) != N || len(labels) != N {
		return 0, fmt.Errorf("exec: need data for %d replicas, got %d", N, len(inputs))
	}
	batch := tr.cfg.MicrobatchSize
	for r := 0; r < N; r++ {
		if len(inputs[r]) != m || len(labels[r]) != m {
			return 0, fmt.Errorf("exec: replica %d needs %d microbatches", r, m)
		}
		for i := 0; i < m; i++ {
			if len(inputs[r][i]) != batch*tr.inDim {
				return 0, fmt.Errorf("exec: input %d/%d has %d floats, want %d",
					r, i, len(inputs[r][i]), batch*tr.inDim)
			}
			if len(labels[r][i]) != batch {
				return 0, fmt.Errorf("exec: labels %d/%d has %d entries, want %d",
					r, i, len(labels[r][i]), batch)
			}
			// Validate labels up front: a bad label would otherwise
			// surface as a panic deep inside a backward kernel.
			for _, y := range labels[r][i] {
				if y < 0 || y >= tr.classes {
					return 0, fmt.Errorf("exec: label %d out of range [0,%d) in microbatch %d/%d",
						y, tr.classes, r, i)
				}
			}
		}
	}
	// Prove the woven streams can complete before touching any weight:
	// a cyclic or mis-anchored schedule is reported as a deadlock
	// instead of hanging the device workers. Re-armed (not once-only)
	// because Retune swaps the streams mid-run; Step is documented
	// non-concurrent, so a plain flag suffices.
	if !tr.validated {
		tr.valErr = validateStreams(tr.g.Tasks, tr.streams, tr.rdvTasks, tr.parties)
		tr.validated = true
	}
	if tr.valErr != nil {
		return 0, tr.valErr
	}
	for {
		loss, err := tr.runStep(inputs, labels)
		if err == nil {
			if tr.cfg.Recover {
				if serr := tr.snapshot(); serr != nil {
					return 0, serr
				}
			}
			return loss, nil
		}
		if !tr.cfg.Recover {
			return 0, err
		}
		dev, fatal := fault.AsFatal(err)
		if !fatal {
			// Transient faults that exhausted their retries, and
			// ordinary errors, are not recoverable by retiring a
			// device.
			return 0, err
		}
		if rerr := tr.recoverFrom(dev); rerr != nil {
			return 0, fmt.Errorf("exec: unrecoverable fault (%v): %w", err, rerr)
		}
		tr.recoveries++
	}
}

// runStep runs one executor iteration: stage inputs, execute, reduce
// losses, free the consumed inputs. On error the VM may hold partial
// state (pins, mid-iteration activations); the recovery path discards
// the whole VM rather than unwinding it.
func (tr *Trainer) runStep(inputs [][][]float32, labels [][][]int) (float32, error) {
	m := tr.batchesNeeded()
	N := tr.g.Cfg.Replicas
	for r := 0; r < N; r++ {
		for i := 0; i < m; i++ {
			host := tr.vm.HostAlloc(tr.g.Act[r][0][i])
			copy(host, inputs[r][i])
		}
	}
	tr.step++

	ex := newExecutor(tr, labels)
	var err error
	if tr.cfg.Serial {
		err = ex.runSerial()
	} else {
		err = ex.run(tr.streams, tr.parties)
	}
	// Drain the DMA engine at the step boundary — on failure too, so
	// recovery never discards a VM with live DMAs and stats snapshots
	// are always settled. A fatal fault hit by an async prefetch
	// surfaces here if no demand access tripped over it first.
	if werr := tr.vm.WaitIdle(); err == nil {
		err = werr
	}
	if err != nil {
		return 0, err
	}

	// Reduce losses in task-ID order regardless of which executor ran
	// (and in which interleaving), so both report bit-identical means.
	var totalLoss float64
	lossCount := 0
	for id, c := range ex.counted {
		if c {
			totalLoss += float64(ex.losses[id])
			lossCount++
		}
	}

	// Iteration cleanup: input batches are consumed.
	for r := 0; r < N; r++ {
		for i := 0; i < m; i++ {
			if err := tr.vm.Free(tr.g.Act[r][0][i]); err != nil {
				return 0, err
			}
		}
	}
	if lossCount == 0 {
		return 0, fmt.Errorf("exec: no loss computed")
	}
	return float32(totalLoss / float64(lossCount)), nil
}

// snapshot captures weights, optimizer state and the step counter in
// the exec/checkpoint format; recoverFrom restores it after a fatal
// fault. Taken at construction and after every completed step, so the
// rollback target is always the last completed weight update. Safe
// because weight gradients are step-local: every update frees its dW
// and the next step's first backward allocates it afresh, so at a step
// boundary the full persistent state is (W, K, step).
func (tr *Trainer) snapshot() error {
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		return fmt.Errorf("exec: recovery snapshot: %w", err)
	}
	tr.snap = buf.Bytes()
	return nil
}

// recoverFrom retires physical device dev after a fatal fault: every
// virtual device bound to it is re-bound to a surviving physical
// device, the re-bound assignment is checked against the survivors'
// pin budgets, and the trainer state is rolled back to the last
// completed step by rebuilding the VM and restoring the snapshot. The
// caller then re-runs the step.
func (tr *Trainer) recoverFrom(dev int) error {
	if dev < 0 || dev >= len(tr.alive) {
		return fmt.Errorf("exec: fatal fault on unknown device %d", dev)
	}
	if !tr.alive[dev] {
		return fmt.Errorf("exec: device %d already retired", dev)
	}
	tr.alive[dev] = false
	var survivors []int
	for p, ok := range tr.alive {
		if ok {
			survivors = append(survivors, p)
		}
	}
	if len(survivors) == 0 {
		return fmt.Errorf("exec: no devices left")
	}
	// Re-bind: spread virtual devices over the survivors round-robin,
	// keeping still-alive identity bindings where possible so healthy
	// devices keep their own streams.
	next := 0
	for d := range tr.devMap {
		if tr.alive[d] {
			tr.devMap[d] = d
			continue
		}
		tr.devMap[d] = survivors[next%len(survivors)]
		next++
	}
	if err := tr.checkPinBudget(tr.s); err != nil {
		return err
	}
	tr.indexUses()

	// Roll back: discard the (possibly mid-iteration) VM wholesale and
	// restore the last completed step into a fresh one. Rebuilding
	// re-materializes persistent tensors exactly as NewTrainer did, so
	// restoring the snapshot yields bit-identical state to a fresh
	// trainer that loaded the same checkpoint.
	tr.vm.Close() // runStep already drained in-flight DMAs; stop the workers
	tr.statsBase = tr.statsBase.add(tr.vm.StatsSnapshot())
	tr.vm = NewVM(tr.cfg.Devices, tr.cfg.DeviceBytes, tr.s.MemPolicy)
	tr.configureVM()
	tr.allocState()
	if err := tr.Load(bytes.NewReader(tr.snap)); err != nil {
		return fmt.Errorf("exec: rollback: %w", err)
	}
	return nil
}

// checkPinBudget verifies the given schedule is feasible under the
// current device binding: when several virtual devices share one
// physical device their worst-case concurrently-pinned bytes add up.
// Per virtual device that is the largest single-task pin set
// (inputs+outputs+workspace — one task in flight per stream); during
// a monolithic collective all participants park, so its demand is the
// sum of the participating replicas' buffers bound to the device.
// Chunked plans overlap collective and compute instead of parking, so
// their demand is additive across workers (see the s.Comm branch
// below). Conservative by design: it never passes a binding the VM
// could fail on. Recovery
// checks the live schedule against a shrunken binding; Retune checks
// a candidate schedule before adoption.
func (tr *Trainer) checkPinBudget(s *sched.Schedule) error {
	maxPin := make([]int64, len(tr.devMap))
	for d, q := range s.Queues {
		for _, t := range q {
			var pin int64
			for _, in := range t.Inputs {
				pin += in.Bytes
			}
			for _, out := range t.Outputs {
				pin += out.Bytes
			}
			pin += t.WorkspaceBytes
			if pin > maxPin[d] {
				maxPin[d] = pin
			}
		}
	}
	need := make([]int64, len(tr.devMap))
	if s.Comm != nil {
		// Chunked collectives overlap compute: while worker d reduces
		// a chunk (pinning all replica views of one member) the other
		// workers may be computing or reducing their own chunks. Per
		// worker the instantaneous demand is either its largest task
		// pin or its largest member's view pins, whichever lands on
		// each physical device; the per-device total is the sum across
		// workers. Conservative: it assumes every worker simultaneously
		// holds its worst case.
		for d := range tr.devMap {
			// chunkPin[p] = worst member view demand worker d can pin
			// on physical device p at once.
			chunkPin := make([]int64, len(tr.devMap))
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
					views := make([]int64, len(tr.devMap))
					for i, in := range s.Collectives[ci].Inputs {
						views[tr.pdev(i)] += in.Bytes
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
				if p == tr.pdev(d) && maxPin[d] > contrib {
					contrib = maxPin[d]
				}
				need[p] += contrib
			}
		}
	} else {
		for d, p := range tr.devMap {
			need[p] += maxPin[d]
		}
		for _, c := range s.Collectives {
			coll := make([]int64, len(tr.devMap))
			for i, in := range c.Inputs {
				coll[tr.pdev(i)] += in.Bytes
			}
			for p, b := range coll {
				if b > need[p] {
					need[p] = b
				}
			}
		}
	}
	for p, b := range need {
		if tr.alive[p] && b > tr.cfg.DeviceBytes {
			return fmt.Errorf("exec: pin budget exceeded on surviving gpu%d: need %d bytes, capacity %d",
				p, b, tr.cfg.DeviceBytes)
		}
	}
	return nil
}

// RetuneRequest describes a mid-run plan change for Trainer.Retune.
// Zero/nil fields keep the current value. A microbatch reshape must
// preserve the per-replica batch (MicrobatchSize × Microbatches), so
// the Step input contract is unchanged apart from the slicing.
type RetuneRequest struct {
	MicrobatchSize int
	Microbatches   int
	// Options replaces the schedule's option set (Mode is forced to
	// the trainer's). nil keeps the current options.
	Options *sched.Options
}

// Retune swaps the trainer's execution plan between iterations: it
// rebuilds the schedule (and, for a microbatch reshape or memory
// policy change, the task graph and VM) for the requested
// configuration, runs the full schedcheck preflight on the candidate
// plan, and adopts it only if verification passes. An infeasible
// retune returns the verifier's Gantt counterexample and leaves the
// running plan untouched — the next Step continues exactly as before.
// Training state survives adoption: a heavy retune round-trips
// weights, optimizer state and the step counter through the
// microbatch-independent checkpoint format.
//
// Call only between Steps (same non-concurrency contract as Step).
func (tr *Trainer) Retune(req RetuneRequest) error {
	mbs, mbc := tr.cfg.MicrobatchSize, tr.cfg.Microbatches
	if req.MicrobatchSize > 0 {
		mbs = req.MicrobatchSize
	}
	if req.Microbatches > 0 {
		mbc = req.Microbatches
	}
	if mbs*mbc != tr.cfg.MicrobatchSize*tr.cfg.Microbatches {
		return fmt.Errorf("exec: retune must preserve the per-replica batch: %d×%d != %d×%d",
			mbs, mbc, tr.cfg.MicrobatchSize, tr.cfg.Microbatches)
	}
	opts := tr.s.Opts
	if req.Options != nil {
		opts = *req.Options
		opts.Mode = tr.cfg.Mode
	}
	graphChanged := mbs != tr.cfg.MicrobatchSize || mbc != tr.cfg.Microbatches
	if !graphChanged && opts == tr.s.Opts {
		return nil
	}

	// Build and verify the candidate plan without touching the live
	// one: any failure below this point leaves the trainer unchanged.
	g2 := tr.g
	if graphChanged {
		var err error
		g2, err = graph.Build(graph.Config{
			Model:          kernelModel(tr.layers, tr.cfg.Optimizer == Adam),
			MicrobatchSize: mbs,
			Microbatches:   mbc,
			Replicas:       tr.g.Cfg.Replicas,
		})
		if err != nil {
			return fmt.Errorf("exec: retune: %w", err)
		}
	}
	s2, err := sched.Build(g2, opts, tr.cfg.Devices)
	if err != nil {
		return fmt.Errorf("exec: retune: %w", err)
	}
	streams2, rdvTasks2, parties2, err := buildStreams(s2)
	if err != nil {
		return fmt.Errorf("exec: retune: %w", err)
	}
	cfg2 := tr.cfg
	cfg2.MicrobatchSize, cfg2.Microbatches = mbs, mbc
	if !tr.cfg.NoVerify {
		if verr := schedcheck.Check(s2, planTopology(cfg2)).Err(); verr != nil {
			return fmt.Errorf("exec: retune rejected by preflight verification (plan unchanged):\n%w", verr)
		}
	}
	if err := validateStreams(g2.Tasks, streams2, rdvTasks2, parties2); err != nil {
		return fmt.Errorf("exec: retune: %w", err)
	}
	if err := tr.checkPinBudget(s2); err != nil {
		return fmt.Errorf("exec: retune: %w", err)
	}

	// A graph or memory-policy change needs a fresh VM; carry the
	// training state across in the checkpoint format (captured while
	// the old graph's tensor handles are still live).
	heavy := graphChanged || s2.MemPolicy != tr.s.MemPolicy
	var snap []byte
	if heavy {
		var buf bytes.Buffer
		if err := tr.Save(&buf); err != nil {
			return fmt.Errorf("exec: retune: %w", err)
		}
		snap = buf.Bytes()
	}

	// ---- adopt ----
	tr.cfg = cfg2
	if req.Options != nil {
		o := opts
		tr.cfg.Options = &o
	}
	tr.g, tr.s, tr.streams, tr.rdvTasks, tr.parties = g2, s2, streams2, rdvTasks2, parties2
	tr.comm = buildCommPlan(s2)
	tr.validated, tr.valErr = true, nil // validateStreams just passed
	tr.indexUses()
	if heavy {
		tr.vm.Close() // step boundary: WaitIdle already drained in-flight DMAs
		tr.statsBase = tr.statsBase.add(tr.vm.StatsSnapshot())
		tr.vm = NewVM(tr.cfg.Devices, tr.cfg.DeviceBytes, s2.MemPolicy)
	}
	tr.pf = nil
	if d := tr.prefetchDepth(); d > 0 {
		tr.pf = &prefetcher{tr: tr, depth: d, clean: 1}
	}
	if heavy {
		tr.configureVM()
		tr.allocState()
		if err := tr.Load(bytes.NewReader(snap)); err != nil {
			return fmt.Errorf("exec: retune state restore: %w", err)
		}
		if tr.cfg.Recover {
			if err := tr.snapshot(); err != nil {
				return err
			}
		}
	} else if tr.pf != nil {
		tr.vm.StartEngine(0) // idempotent; arms the engine if the old plan never did
	}
	return nil
}

// runTask executes one compute task with real kernels. It returns a
// loss value when the task is the final layer's backward (which owns
// the loss computation).
func (tr *Trainer) runTask(dev int, t *graph.Task, labels [][][]int) (float32, bool, error) {
	// Late binding happens here: dev is the schedule's virtual device;
	// all memory traffic below targets the physical device backing it.
	dev = tr.pdev(dev)
	if err := tr.injectOp(fault.Kernel, dev, t.Layer); err != nil {
		return 0, false, err
	}
	if r := tr.rec; r != nil {
		start := tr.vm.clk.Now()
		defer func() { r.add(dev, trace.Compute, t.String(), start, tr.vm.clk.Now()) }()
	}
	g := tr.g
	batch := tr.cfg.MicrobatchSize
	switch t.Kind {
	case graph.Forward:
		layer := tr.layers[t.Layer]
		w, err := tr.vm.Ensure(dev, g.W[t.Replica][t.Layer])
		if err != nil {
			return 0, false, err
		}
		x, err := tr.vm.Ensure(dev, g.Act[t.Replica][t.Layer][t.Microbatch])
		if err != nil {
			return 0, false, err
		}
		y, err := tr.vm.Alloc(dev, g.Act[t.Replica][t.Layer+1][t.Microbatch])
		if err != nil {
			return 0, false, err
		}
		stash, err := tr.vm.Alloc(dev, g.Stash[t.Replica][t.Layer][t.Microbatch])
		if err != nil {
			return 0, false, err
		}
		layer.Forward(w, x, y, stash, batch)
		if err := tr.unpin(g.W[t.Replica][t.Layer], g.Act[t.Replica][t.Layer][t.Microbatch],
			g.Act[t.Replica][t.Layer+1][t.Microbatch], g.Stash[t.Replica][t.Layer][t.Microbatch]); err != nil {
			return 0, false, err
		}
		return 0, false, tr.freeAll(t.Frees)

	case graph.Backward:
		layer := tr.layers[t.Layer]
		R := len(tr.layers)
		w, err := tr.vm.Ensure(dev, g.W[t.Replica][t.Layer])
		if err != nil {
			return 0, false, err
		}
		dw, err := tr.gradBuffer(dev, g.DW[t.Replica][t.Layer])
		if err != nil {
			return 0, false, err
		}
		stash, err := tr.vm.Ensure(dev, g.Stash[t.Replica][t.Layer][t.Microbatch])
		if err != nil {
			return 0, false, err
		}
		var dy []float32
		var loss float32
		counted := false
		pinnedDY := false
		if t.Layer == R-1 {
			// The loss gradient is produced here from the final
			// activations and the labels.
			logits, err := tr.vm.Ensure(dev, g.Act[t.Replica][t.Layer+1][t.Microbatch])
			if err != nil {
				return 0, false, err
			}
			classes := layer.OutSize()
			dy = nn.GetScratch(batch * classes)
			defer nn.PutScratch(dy)
			loss = nn.SoftmaxXent(logits, labels[t.Replica][t.Microbatch], dy, batch, classes)
			counted = true
			if err := tr.vm.Unpin(g.Act[t.Replica][t.Layer+1][t.Microbatch]); err != nil {
				return 0, false, err
			}
		} else {
			dy, err = tr.vm.Ensure(dev, g.Grad[t.Replica][t.Layer+1][t.Microbatch])
			if err != nil {
				return 0, false, err
			}
			pinnedDY = true
		}
		var dx []float32
		if t.Layer > 0 {
			dx, err = tr.vm.Alloc(dev, g.Grad[t.Replica][t.Layer][t.Microbatch])
			if err != nil {
				return 0, false, err
			}
		}
		layer.Backward(w, stash, dy, dx, dw, batch)
		if err := tr.vm.MarkDirty(g.DW[t.Replica][t.Layer]); err != nil {
			return 0, false, err
		}
		if err := tr.unpin(g.W[t.Replica][t.Layer], g.DW[t.Replica][t.Layer],
			g.Stash[t.Replica][t.Layer][t.Microbatch]); err != nil {
			return 0, false, err
		}
		if pinnedDY {
			if err := tr.vm.Unpin(g.Grad[t.Replica][t.Layer+1][t.Microbatch]); err != nil {
				return 0, false, err
			}
		}
		if t.Layer > 0 {
			if err := tr.vm.Unpin(g.Grad[t.Replica][t.Layer][t.Microbatch]); err != nil {
				return 0, false, err
			}
		}
		return loss, counted, tr.freeAll(t.Frees)

	case graph.Update:
		layer := tr.layers[t.Layer]
		if layer.ParamCount() == 0 {
			// Parameter-free layers (pooling) have nothing to update;
			// their empty dW is step-local all the same.
			return 0, false, tr.vm.Free(g.DW[t.Replica][t.Layer])
		}
		w, err := tr.vm.Ensure(dev, g.W[t.Replica][t.Layer])
		if err != nil {
			return 0, false, err
		}
		dw, err := tr.vm.Ensure(dev, g.DW[t.Replica][t.Layer])
		if err != nil {
			return 0, false, err
		}
		n := layer.ParamCount()
		if tr.cfg.Optimizer == Adam {
			k, err := tr.vm.Ensure(dev, g.K[t.Replica][t.Layer])
			if err != nil {
				return 0, false, err
			}
			nn.Adam(w[:n], dw[:n], k[:n], k[n:2*n], tr.cfg.LR, 0.9, 0.999, 1e-8, tr.step)
			if err := tr.vm.MarkDirty(g.K[t.Replica][t.Layer]); err != nil {
				return 0, false, err
			}
			if err := tr.vm.Unpin(g.K[t.Replica][t.Layer]); err != nil {
				return 0, false, err
			}
		} else {
			nn.SGD(w[:n], dw[:n], tr.cfg.LR)
		}
		if err := tr.vm.MarkDirty(g.W[t.Replica][t.Layer]); err != nil {
			return 0, false, err
		}
		if err := tr.unpin(g.W[t.Replica][t.Layer], g.DW[t.Replica][t.Layer]); err != nil {
			return 0, false, err
		}
		// The applied gradient is dead until the next step's first
		// backward allocates it afresh: free it rather than keep a
		// reset buffer that eviction would write back and the next
		// backward would swap in.
		return 0, false, tr.vm.Free(g.DW[t.Replica][t.Layer])

	default:
		return 0, false, fmt.Errorf("exec: unexpected task kind %v in queue", t.Kind)
	}
}

// gradBuffer pins a backward task's weight-gradient buffer on dev.
// Gradients are step-local: a step's first backward of a layer
// allocates dW zero-filled on the device, with no link traffic, and
// later microbatches accumulate into it wherever the VM has put it
// since. Only this replica's stream touches its dW before the
// collective, so the lookup cannot race an Alloc or Free of it.
func (tr *Trainer) gradBuffer(dev int, t *tensor.Tensor) ([]float32, error) {
	if _, ok := tr.vm.lookup(t.ID); !ok {
		return tr.vm.Alloc(dev, t)
	}
	return tr.vm.Ensure(dev, t)
}

// runCollective executes a collective task. AllReduce averages the
// gradient buffers across replicas (real math: the buffers end up
// identical on every device). The reduction fans across the kernel
// worker pool over disjoint index ranges; each element still sums the
// replicas in fixed order, so the result is bit-identical at any
// worker count.
func (tr *Trainer) runCollective(dev int, ar *graph.Task) error {
	if ar.Kind != graph.AllReduce {
		return fmt.Errorf("exec: unsupported collective kind %v", ar.Kind)
	}
	n := len(ar.Inputs)
	if n == 0 {
		return fmt.Errorf("exec: collective %s has no inputs", ar)
	}
	// dev is the worker performing the rendezvous reduction (-1 on the
	// serial path, where a fatal collective fault has no single device
	// to retire and is therefore unrecoverable).
	if err := tr.injectOp(fault.Collective, tr.pdev(dev), ar.Layer); err != nil {
		return err
	}
	if r := tr.rec; r != nil && dev >= 0 {
		start := tr.vm.clk.Now()
		defer func() { r.add(tr.pdev(dev), trace.Comms, ar.String(), start, tr.vm.clk.Now()) }()
	}
	views := make([][]float32, n)
	for i, in := range ar.Inputs {
		v, err := tr.vm.Ensure(tr.pdev(i), in) // replica i trains on device i
		if err != nil {
			return err
		}
		views[i] = v
	}
	// Remote gradient traffic crosses the modeled interconnect: the
	// reducer pulls n-1 remote replicas' buffers and pushes the result
	// back, all charged serially on this worker while every other
	// participant parks — the all-park rendezvous pays the full link
	// latency on the critical path.
	tr.vm.linkSleep(2 * int64(n-1) * ar.Inputs[0].Bytes)
	floats := int(ar.Inputs[0].Bytes / 4)
	inv := float32(1) / float32(n)
	grain := (1 << 16) / (2 * n) // ~64k scalar ops per chunk
	if grain < 1 {
		grain = 1
	}
	nn.ParallelFor(floats, grain, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			var s float32
			for i := 0; i < n; i++ {
				s += views[i][j]
			}
			s *= inv
			for i := 0; i < n; i++ {
				views[i][j] = s
			}
		}
	})
	for _, in := range ar.Inputs {
		if err := tr.vm.MarkDirty(in); err != nil {
			return err
		}
		if err := tr.vm.Unpin(in); err != nil {
			return err
		}
	}
	return nil
}

// unpin releases pins on a batch of tensors. An unpin failure is a
// plumbing bug, but it surfaces as a returned error (not a panic) so
// the executor can abort the iteration cleanly and the recovery layer
// can decide what to do with it.
func (tr *Trainer) unpin(ts ...*tensor.Tensor) error {
	for _, t := range ts {
		if err := tr.vm.Unpin(t); err != nil {
			return err
		}
	}
	return nil
}

func (tr *Trainer) freeAll(ts []*tensor.Tensor) error {
	for _, t := range ts {
		if err := tr.vm.Free(t); err != nil {
			return err
		}
	}
	return nil
}

// Predict runs a forward-only pass on device 0 with replica 0's
// weights and returns the logits. Used by examples for evaluation.
//
// Per-layer output and stash buffers come from the shared kernel
// scratch pool rather than fresh allocations, so repeated evaluation
// loops stop churning the GC; every kernel fully overwrites its output
// and stash (bias-init or direct assignment), so reuse is safe. Only
// the returned logits are caller-owned.
func (tr *Trainer) Predict(input []float32, batch int) ([]float32, error) {
	if len(input) != batch*tr.inDim {
		return nil, fmt.Errorf("exec: predict input %d floats, want %d", len(input), batch*tr.inDim)
	}
	x := input
	var prev []float32 // pooled buffer holding x (nil for the input)
	for l, layer := range tr.layers {
		w, err := tr.vm.Host(tr.g.W[0][l])
		if err != nil {
			if prev != nil {
				nn.PutScratch(prev)
			}
			return nil, err
		}
		y := nn.GetScratch(batch * layer.OutSize())
		stash := nn.GetScratch(batch * layer.StashSize())
		layer.Forward(w, x, y, stash, batch)
		nn.PutScratch(stash)
		if prev != nil {
			nn.PutScratch(prev)
		}
		x, prev = y, y
	}
	out := make([]float32, batch*tr.classes)
	copy(out, x)
	if prev != nil {
		nn.PutScratch(prev)
	}
	return out, nil
}
