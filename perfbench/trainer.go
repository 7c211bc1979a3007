package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"harmony"
	"harmony/internal/sched"
	"harmony/internal/trace"
)

// trainerWorkload is one closed-loop training configuration: a single
// trainer stepping back to back on a fresh batch per step. mode is the
// scheduler mode cfg.Mode selects, used to rebuild the same plan
// outside the trainer for the plan-layer timings.
type trainerWorkload struct {
	name string
	cfg  harmony.TrainerConfig
	mode sched.Mode
}

// Every trainer workload trains with SGD at LR 0.01, where the serial
// reference converges; the adaptive prefetch controller stays off.
// README.md says why each shape was chosen.
var (
	swapDP1 = trainerWorkload{name: "swap-dp1", mode: sched.HarmonyDP, cfg: harmony.TrainerConfig{
		Widths: []int{256, 512, 512, 512, 10}, Mode: harmony.HarmonyDP, Devices: 1,
		DeviceBytes: 4 << 20, BatchSize: 8, LR: 0.01,
		PrefetchDepth: 4, LinkBytesPerSec: 128 << 20,
	}}
	swapPP2 = trainerWorkload{name: "swap-pp2", mode: sched.HarmonyPP, cfg: harmony.TrainerConfig{
		Widths: []int{256, 640, 640, 640, 10}, Mode: harmony.HarmonyPP, Devices: 2,
		DeviceBytes: 4 << 20, BatchSize: 8, LR: 0.01,
		PrefetchDepth: 4, LinkBytesPerSec: 96 << 20,
	}}
	commDP4 = trainerWorkload{name: "comm-dp4", mode: sched.HarmonyDP, cfg: harmony.TrainerConfig{
		Widths: []int{64, 1536, 1536, 1536, 10}, Mode: harmony.HarmonyDP, Devices: 4,
		DeviceBytes: 96 << 20, BatchSize: 4, Microbatches: 1, LR: 0.01,
		LinkBytesPerSec: 1 << 30, CommChunks: 8, CommBucketBytes: 12 << 20,
	}}
)

var workloads = map[string]func(options, *results) error{
	swapDP1.name:  swapDP1.run,
	swapPP2.name:  swapPP2.run,
	commDP4.name:  commDP4.run,
	"sim-figures": runFigures,
}

const (
	// setups is how many trainers are built (each through its first,
	// untimed Step) to take the median set-up time; the last is kept
	// for the measured loop.
	setups = 5
	// minChecked is the fewest leading steps the correctness gate
	// replays on the reference even past its time budget.
	minChecked = 8
)

// microbatches resolves the trainer's default split: one sample per
// microbatch up to 8 microbatches.
func microbatches(c harmony.TrainerConfig) int {
	if c.Microbatches > 0 {
		return c.Microbatches
	}
	return min(c.BatchSize, 8)
}

// trainerRun is one trainer under measurement plus its input stream.
type trainerRun struct {
	name    string
	cfg     harmony.TrainerConfig
	blobs   *harmony.Blobs
	samples int
	tr      *harmony.Trainer
	// losses[i] is the kept trainer's loss on batch i (batch 0 is its
	// set-up step); firstLosses are the discarded set-up trainers'
	// losses on batch 0.
	losses      []float32
	firstLosses []float32
}

// batch generates input batch i from the workload seed.
func (s *trainerRun) batch(i int) ([]float32, []int) {
	return s.blobs.Batch(s.samples, uint64(i))
}

func (w trainerWorkload) config(seed uint64) harmony.TrainerConfig {
	c := w.cfg
	c.Seed = seed
	return c
}

// newTrainerRun prepares a run whose inputs come from seed.
func newTrainerRun(name string, cfg harmony.TrainerConfig, seed uint64) *trainerRun {
	samples := cfg.BatchSize
	if cfg.Mode != harmony.HarmonyPP {
		samples *= cfg.Devices
	}
	return &trainerRun{
		name:    name,
		cfg:     cfg,
		blobs:   harmony.NewBlobs(cfg.Widths[0], cfg.Widths[len(cfg.Widths)-1], 1.0, seed),
		samples: samples,
	}
}

func (w trainerWorkload) run(o options, res *results) error {
	s := newTrainerRun(w.name, w.config(o.seed), o.seed)
	newMs, setupS, err := s.setup(setups)
	if err != nil {
		return err
	}
	defer s.tr.Close()
	res.attempted += setups
	res.set("setup_s", median(setupS))
	res.notef("setup: %d trainers, NewTrainer %.3f ms and first Step %.3f s (medians)", setups, median(newMs), median(setupS))

	if !o.trace {
		stepMs, stepErr := s.loop(o.seconds, nil)
		res.attempted += len(stepMs)
		res.set("mem_peak_mb", peakRSSMiB())
		reportSteps(res, "step_ms", stepMs, "iter_ms")
		res.set("throughput_per_s", float64(len(stepMs)*s.samples)/(sum(stepMs)/1e3))
		res.notef("%-32s %16.6g 1/s  [iter: one Step; throughput_per_s]", "samples_per_s", res.metrics["throughput_per_s"])
		if stepErr != nil {
			res.fail("step %d: %v", len(s.losses), stepErr)
		}
	} else if err := w.traced(o, s, res, median(newMs)); err != nil {
		return err
	}
	return s.verify(o.seconds/4, res)
}

// setup builds the trainer n times, each through its first, untimed
// Step on batch 0, and keeps the last one.
func (s *trainerRun) setup(n int) (newMs, setupS []float64, err error) {
	x, y := s.batch(0)
	for k := 0; k < n; k++ {
		runtime.GC()
		start := time.Now()
		tr, err := harmony.NewTrainer(s.cfg)
		if err != nil {
			return nil, nil, err
		}
		built := time.Now()
		if tr.SamplesPerStep() != s.samples {
			tr.Close()
			return nil, nil, fmt.Errorf("trainer takes %d samples per step, benchmark generates %d", tr.SamplesPerStep(), s.samples)
		}
		loss, err := tr.Step(x, y)
		done := time.Now()
		if err != nil {
			tr.Close()
			return nil, nil, fmt.Errorf("set-up step: %w", err)
		}
		newMs = append(newMs, float64(built.Sub(start).Nanoseconds())/1e6)
		setupS = append(setupS, done.Sub(start).Seconds())
		if k < n-1 {
			tr.Close()
			s.firstLosses = append(s.firstLosses, loss)
			continue
		}
		s.tr, s.losses = tr, []float32{loss}
	}
	runtime.GC()
	return newMs, setupS, nil
}

// loop steps the kept trainer on fresh batches until d has elapsed and
// returns each step's wall time in ms. Batch generation and the
// optional around hook run outside the timed region; around is called
// once per step, with before=true ahead of the timer starting and
// before=false after it stops. A failing Step ends the loop.
func (s *trainerRun) loop(d time.Duration, around func(before bool, start, end time.Time)) ([]float64, error) {
	var stepMs []float64
	begin := time.Now()
	for time.Since(begin) < d {
		x, y := s.batch(len(s.losses))
		if around != nil {
			around(true, time.Time{}, time.Time{})
		}
		start := time.Now()
		loss, err := s.tr.Step(x, y)
		end := time.Now()
		stepMs = append(stepMs, float64(end.Sub(start).Nanoseconds())/1e6)
		if err != nil {
			return stepMs, err
		}
		s.losses = append(s.losses, loss)
		if around != nil {
			around(false, start, end)
		}
	}
	return stepMs, nil
}

// reportSteps records the median and tail of per-iteration times under
// the JSON names key.p50/key.tail and prints them under the
// workload's own name.
func reportSteps(res *results, name string, ms []float64, key string) {
	p50 := median(ms)
	t, pct, ok := tail(ms)
	res.set(key+".p50", p50)
	res.set(key+".tail", t)
	rule := ""
	if !ok {
		rule = ", fewer than 20 samples: the maximum"
	}
	res.notef("%-32s %16.6g ms  [%s.p50]", name+".p50", p50, key)
	res.notef("%-32s %16.6g ms  [%s.tail; p%.1f of n=%d%s]", name+".tail", t, key, pct, len(ms), rule)
}

// traced is the per-layer run: half the time untraced (allocation
// counts, and the baseline for the tracing overhead), half with the
// execution trace on (lane-derived metrics and counter deltas), then
// direct calls into the nn, VM and plan layers at this workload's
// shapes, and probes of the layers the workload does not run.
func (w trainerWorkload) traced(o options, s *trainerRun, res *results, newMs float64) error {
	var ms0, ms1 runtime.MemStats
	var allocBytes, allocs uint64
	plainMs, err := s.loop(o.seconds/2, func(before bool, _, _ time.Time) {
		if before {
			runtime.ReadMemStats(&ms0)
			return
		}
		runtime.ReadMemStats(&ms1)
		allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		allocs += ms1.Mallocs - ms0.Mallocs
	})
	res.attempted += len(plainMs)
	if err != nil {
		res.fail("step %d: %v", len(s.losses), err)
		return nil
	}
	tracedMs, m, err := s.tracedLoop(o.seconds / 2)
	res.attempted += len(tracedMs)
	if err != nil {
		res.fail("step %d: %v", len(s.losses), err)
		return nil
	}
	for k, v := range m {
		res.set(k, v)
	}
	const mib = 1 << 20
	res.set("exec.step_alloc_mb", float64(allocBytes)/mib/float64(len(plainMs)))
	res.set("exec.step_allocs", float64(allocs)/float64(len(plainMs)))
	plain, traced := median(plainMs), median(tracedMs)
	res.set("trace_overhead_frac", traced/plain-1)
	res.notef("%-32s %16.6g ms  [untraced half, n=%d]", "step_ms.p50", plain, len(plainMs))
	res.notef("%-32s %16.6g ms  [traced half, n=%d]", "step_ms.p50.traced", traced, len(tracedMs))
	res.notef("note: compute spans include in-task demand waits (Ensure inside a kernel), so exec.compute_ms_per_step and vm.dma_compute_overlap_frac count demand swaps as compute")
	res.set("trainer.new_ms", newMs)
	if err := layerProbes(w, s.cfg, s.tr.FootprintBytes(), o.seed, res); err != nil {
		return err
	}
	if !w.collectives() {
		if err := commProbe(o.seed, res); err != nil {
			return err
		}
	}
	return simulatorProbes(o.seed, res)
}

// collectives reports whether the workload's plan all-reduces
// gradients: data parallelism over more than one replica.
func (w trainerWorkload) collectives() bool {
	return w.cfg.Mode == harmony.HarmonyDP && w.cfg.Devices > 1
}

// tracedLoop steps for d with the execution trace on and returns the
// step times and the per-layer metrics read from the VM and collective
// counters and from the trace over those steps.
func (s *trainerRun) tracedLoop(d time.Duration) ([]float64, map[string]float64, error) {
	st0, cs0 := s.tr.Stats(), s.tr.CommStats()
	tl := s.tr.EnableTrace()
	epoch := time.Now()
	var windows []span
	stepMs, err := s.loop(d, func(before bool, start, end time.Time) {
		if !before {
			windows = append(windows, span{start.Sub(epoch).Seconds(), end.Sub(epoch).Seconds()})
		}
	})
	if err != nil {
		return stepMs, nil, err
	}
	st1, cs1 := s.tr.Stats(), s.tr.CommStats()
	steps := float64(len(stepMs))
	const mib = 1 << 20
	m := laneMetrics(tl.Events, windows, s.cfg.Devices)
	m["vm.swap_in_mb_per_step"] = float64(st1.SwapInBytes-st0.SwapInBytes) / mib / steps
	m["vm.swap_out_mb_per_step"] = float64(st1.SwapOutBytes-st0.SwapOutBytes) / mib / steps
	m["vm.drop_mb_per_step"] = float64(st1.DropBytes-st0.DropBytes) / mib / steps
	m["vm.p2p_mb_per_step"] = float64(st1.P2PBytes-st0.P2PBytes) / mib / steps
	m["vm.prefetch_hit_ratio"] = ratio(float64(st1.PrefetchHits-st0.PrefetchHits), float64(st1.PrefetchIssued-st0.PrefetchIssued))
	m["vm.retries_per_step"] = float64(st1.Retries-st0.Retries) / steps
	m["comm.chunks_per_step"] = float64(cs1.ChunksReduced-cs0.ChunksReduced) / steps
	m["comm.reduced_mb_per_step"] = float64(cs1.BytesReduced-cs0.BytesReduced) / mib / steps
	return stepMs, m, nil
}

// commProbeTime is how long the collective probe steps, traced.
const commProbeTime = 1500 * time.Millisecond

// commProbe measures the chunked collectives from the traced run of a
// workload that runs none: a comm-dp4 trainer, traced for
// commProbeTime after its first, untimed step, with its losses held to
// the same correctness gate. Only the comm.* metrics are taken from it.
func commProbe(seed uint64, res *results) error {
	s := newTrainerRun("comm-dp4 probe", commDP4.config(seed), seed)
	if _, _, err := s.setup(1); err != nil {
		return fmt.Errorf("comm probe: %w", err)
	}
	defer s.tr.Close()
	stepMs, m, err := s.tracedLoop(commProbeTime)
	res.attempted += 1 + len(stepMs)
	if err != nil {
		res.fail("comm probe step %d: %v", len(s.losses), err)
		return nil
	}
	for k, v := range m {
		if strings.HasPrefix(k, "comm.") {
			res.set(k, v)
		}
	}
	res.notef("comm.*: from a comm-dp4 probe of %d traced steps, since this workload runs no collectives", len(stepMs))
	return s.verify(0, res)
}

// dmaLanes are the trace lanes the VM's copy engines record on.
var dmaLanes = map[trace.Lane]bool{trace.SwapIn: true, trace.SwapOut: true, trace.P2P: true, trace.Prefetch: true}

// laneMetrics derives the trace-based per-layer metrics from the
// events of a traced loop whose steps ran in windows (seconds since
// the trace epoch). Busy times are lane unions clipped to the step
// windows, so time the benchmark spends between steps never counts.
func laneMetrics(events []trace.Event, windows []span, devices int) map[string]float64 {
	win := union(windows)
	wall := length(win)
	steps := float64(len(windows))
	var dma, compute, comms []span
	perDev := make([][]span, devices)
	computeMs := map[string]float64{}
	for _, e := range events {
		sp := span{float64(e.Start), float64(e.End)}
		switch {
		case dmaLanes[e.Lane]:
			dma = append(dma, sp)
		case e.Lane == trace.Compute:
			compute = append(compute, sp)
			kind, _, _ := strings.Cut(e.Label, "[")
			computeMs[kind] += (sp.hi - sp.lo) * 1e3
		case e.Lane == trace.Comms:
			comms = append(comms, sp)
		}
		if d := int(e.Dev); d >= 0 && d < devices {
			perDev[d] = append(perDev[d], sp)
		}
	}
	dmaU := intersect(union(dma), win)
	computeU := union(compute)
	commsU := intersect(union(comms), win)
	var idle float64
	for _, spans := range perDev {
		idle += 1 - ratio(length(intersect(union(spans), win)), wall)
	}
	return map[string]float64{
		"vm.dma_busy_frac":             ratio(length(dmaU), wall),
		"vm.dma_compute_overlap_frac":  overlapFrac(dmaU, computeU),
		"comm.busy_ms_per_step":        ratio(length(commsU)*1e3, steps),
		"comm.overlap_frac":            overlapFrac(commsU, computeU),
		"exec.compute_ms_per_step.fwd": ratio(computeMs["FWD"], steps),
		"exec.compute_ms_per_step.bwd": ratio(computeMs["BWD"], steps),
		"exec.compute_ms_per_step.upd": ratio(computeMs["UPD"], steps),
		"exec.device_idle_frac":        idle / float64(devices),
	}
}

// verify is the correctness gate: it replays the kept trainer's
// batches on the serial executor with unconstrained memory and no link
// model, and requires every loss to be finite and the leading steps'
// losses to equal the reference bit for bit. The replay stops after
// budget once minChecked steps are compared.
func (s *trainerRun) verify(budget time.Duration, res *results) error {
	ref := s.cfg
	ref.Serial, ref.DeviceBytes, ref.LinkBytesPerSec = true, 1<<40, 0
	tr, err := harmony.NewTrainer(ref)
	if err != nil {
		return fmt.Errorf("reference trainer: %w", err)
	}
	defer tr.Close()
	var want []float32
	start := time.Now()
	for i := range s.losses {
		if i >= minChecked && time.Since(start) > budget {
			break
		}
		x, y := s.batch(i)
		loss, err := tr.Step(x, y)
		if err != nil {
			return fmt.Errorf("reference step %d: %w", i, err)
		}
		want = append(want, loss)
	}
	failed, first := lossGate(s.losses, want)
	for k, l := range s.firstLosses {
		if f, why := lossGate([]float32{l}, want[:1]); f > 0 {
			failed++
			if first == "" {
				first = fmt.Sprintf("set-up trainer %d: %s", k, why)
			}
		}
	}
	if failed > 0 {
		res.failed += failed
		res.problems = append(res.problems, fmt.Sprintf("correctness (%s): %d steps failed the loss gate; first: %s", s.name, failed, first))
	}
	res.notef("correctness (%s): %d losses finite-checked, leading %d bit-compared with the serial reference; final loss %.6g",
		s.name, len(s.losses)+len(s.firstLosses), len(want), s.losses[len(s.losses)-1])
	return nil
}

// lossGate counts the steps whose loss is not finite or, within the
// reference's length (a leading prefix of got), differs from it bit
// for bit, and describes the first such step.
func lossGate(got, ref []float32) (failed int, first string) {
	for i, l := range got {
		why := ""
		switch {
		case math.IsNaN(float64(l)) || math.IsInf(float64(l), 0):
			why = fmt.Sprintf("step %d: loss %v is not finite", i, l)
		case i < len(ref) && math.Float32bits(l) != math.Float32bits(ref[i]):
			why = fmt.Sprintf("step %d: loss %v, serial reference %v", i, l, ref[i])
		default:
			continue
		}
		if failed == 0 {
			first = why
		}
		failed++
	}
	return failed, first
}
