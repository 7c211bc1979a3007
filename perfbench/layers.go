package main

import (
	"fmt"
	"runtime"
	"time"

	"harmony"
	"harmony/internal/exec"
	"harmony/internal/graph"
	"harmony/internal/hw"
	"harmony/internal/memory"
	"harmony/internal/models"
	"harmony/internal/nn"
	"harmony/internal/sched"
	"harmony/internal/schedcheck"
	"harmony/internal/sim"
	"harmony/internal/tensor"
)

// probeBudget is the wall time each direct layer probe measures for.
const probeBudget = 300 * time.Millisecond

// perCallNs times op in rounds of n calls, n doubled until a round
// takes at least 2ms, and keeps running rounds until budget has passed
// and at least five rounds ran. It returns the median ns per call.
func perCallNs(budget time.Duration, op func() error) (float64, error) {
	round := func(n int) (time.Duration, error) {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := op(); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}
	n := 1
	for {
		d, err := round(n)
		if err != nil {
			return 0, err
		}
		if d >= 2*time.Millisecond {
			break
		}
		n *= 2
	}
	var ns []float64
	begin := time.Now()
	for len(ns) < 5 || time.Since(begin) < budget {
		d, err := round(n)
		if err != nil {
			return 0, err
		}
		ns = append(ns, float64(d.Nanoseconds())/float64(n))
	}
	return median(ns), nil
}

// splitmix is a small seeded generator for probe inputs.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix) float() float32 { return float32(s.next()>>40)/(1<<24) - 0.5 }

// layerProbes measures the nn, VM and plan layers by calling them
// directly at the workload's shapes. footprint is the trainer's
// persistent bytes, which the rebuilt plan must match.
func layerProbes(w trainerWorkload, cfg harmony.TrainerConfig, footprint int64, seed uint64, res *results) error {
	var dense []nn.Dense
	for i := 0; i+1 < len(cfg.Widths); i++ {
		dense = append(dense, nn.Dense{In: cfg.Widths[i], Out: cfg.Widths[i+1], ReLU: i+2 < len(cfg.Widths)})
	}
	if err := nnProbe(dense, cfg.BatchSize/microbatches(cfg), seed, res); err != nil {
		return err
	}
	if err := vmProbe(dense, res); err != nil {
		return err
	}
	return planProbe(w, cfg, dense, footprint, res)
}

// nnProbe times nn.Dense Forward and Backward over every layer at the
// microbatch size the executor runs them at.
func nnProbe(dense []nn.Dense, batch int, seed uint64, res *results) error {
	type bufs struct{ params, x, y, stash, dy, dx, grad []float32 }
	rng := splitmix(seed)
	fill := func(n int) []float32 {
		s := make([]float32, n)
		for i := range s {
			s[i] = rng.float()
		}
		return s
	}
	var ls []bufs
	var flops float64
	for i, l := range dense {
		b := bufs{
			params: make([]float32, l.ParamCount()),
			x:      fill(batch * l.In), y: make([]float32, batch*l.Out),
			stash: make([]float32, batch*l.StashCount()),
			dy:    fill(batch * l.Out), dx: make([]float32, batch*l.In),
			grad: make([]float32, l.ParamCount()),
		}
		nn.XavierInit(l, b.params, seed+uint64(i))
		ls = append(ls, b)
		flops += 2 * float64(l.In*l.Out*batch)
	}
	fwd := func() error {
		for i, l := range dense {
			b := ls[i]
			l.Forward(b.params, b.x, b.y, b.stash, batch)
		}
		return nil
	}
	bwd := func() error {
		for i, l := range dense {
			b := ls[i]
			l.Backward(b.params, b.stash, b.dy, b.dx, b.grad, batch)
		}
		return nil
	}
	fwdNs, err := perCallNs(probeBudget, fwd)
	if err != nil {
		return err
	}
	bwdNs, err := perCallNs(probeBudget, bwd)
	if err != nil {
		return err
	}
	// Backward computes the input gradient and the weight gradient:
	// twice the forward multiply-accumulates.
	res.set("nn.dense_fwd_gflops", flops/fwdNs)
	res.set("nn.dense_bwd_gflops", 2*flops/bwdNs)

	const calls = 64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < calls; i++ {
		_ = fwd()
		_ = bwd()
	}
	runtime.ReadMemStats(&m1)
	res.set("nn.allocs_per_call", float64(m1.Mallocs-m0.Mallocs)/float64(2*calls*len(dense)))
	res.notef("nn: %d Dense layers at microbatch %d", len(dense), batch)
	return nil
}

// vmProbe times exec.VM Ensure+Unpin pairs on the workload's weight
// tensors with the link model off: hits on a device that holds them
// all, misses on a device that holds only the largest, so every Ensure
// swaps in and evicts.
func vmProbe(dense []nn.Dense, res *results) error {
	reg := tensor.NewRegistry()
	var ts []*tensor.Tensor
	var total, largest int64
	for i, l := range dense {
		t := reg.New(fmt.Sprintf("w%d", i), tensor.Weight, int64(l.ParamCount())*4, i, -1)
		ts = append(ts, t)
		total += t.Bytes
		largest = max(largest, t.Bytes)
	}
	pol := memory.Policy{DirtyTracking: true}
	// measure returns the median ns per pair and the share of the
	// measured Ensures that swapped in.
	measure := func(capacity int64) (float64, float64, error) {
		vm := exec.NewVM(1, capacity, pol)
		defer vm.Close()
		for _, t := range ts {
			vm.HostAlloc(t)
		}
		i := 0
		pair := func() error {
			t := ts[i%len(ts)]
			i++
			if _, err := vm.Ensure(0, t); err != nil {
				return err
			}
			return vm.Unpin(t)
		}
		for range ts {
			if err := pair(); err != nil {
				return 0, 0, err
			}
		}
		swaps, pairs := vm.StatsSnapshot().SwapIns, i
		ns, err := perCallNs(probeBudget, pair)
		return ns, float64(vm.StatsSnapshot().SwapIns-swaps) / float64(i-pairs), err
	}
	hit, hitSwaps, err := measure(2 * total)
	if err != nil {
		return err
	}
	miss, missSwaps, err := measure(largest)
	if err != nil {
		return err
	}
	if hitSwaps != 0 || missSwaps != 1 {
		return fmt.Errorf("vm probe: %.0f%% of hits and %.0f%% of misses swapped in; want 0%% and 100%%", hitSwaps*100, missSwaps*100)
	}
	res.set("vm.ensure_hit_ns", hit)
	res.set("vm.ensure_miss_ns", miss)
	return nil
}

// planProbe times graph.Build+sched.Build and schedcheck.Check on the
// plan the workload's trainer builds, rebuilt here from the same
// layer shapes and options.
func planProbe(w trainerWorkload, cfg harmony.TrainerConfig, dense []nn.Dense, footprint int64, res *results) error {
	model := &models.Model{Name: "perfbench", SampleBytes: int64(cfg.Widths[0]) * 4}
	for _, l := range dense {
		model.Layers = append(model.Layers, models.LayerSpec{
			Name: l.Name(), Params: int64(l.ParamCount()),
			FwdFLOPsPerSample:   l.FLOPsPerSample(),
			ActBytesPerSample:   int64(l.OutSize()) * 4,
			StashBytesPerSample: int64(l.StashSize()) * 4,
		})
	}
	replicas := cfg.Devices
	if w.mode.IsPipeline() {
		replicas = 1
	}
	mbs := microbatches(cfg)
	opts := sched.DefaultOptions(w.mode)
	opts.CommChunks, opts.CommBucketBytes = cfg.CommChunks, cfg.CommBucketBytes
	var s *sched.Schedule
	build := func() error {
		g, err := graph.Build(graph.Config{Model: model, MicrobatchSize: cfg.BatchSize / mbs, Microbatches: mbs, Replicas: replicas})
		if err != nil {
			return err
		}
		s, err = sched.Build(g, opts, cfg.Devices)
		return err
	}
	buildNs, err := perCallNs(probeBudget, build)
	if err != nil {
		return fmt.Errorf("plan probe: %w", err)
	}
	topo := schedcheck.Topology{Devices: cfg.Devices, DeviceBytes: cfg.DeviceBytes}
	checkNs, err := perCallNs(probeBudget, func() error { return schedcheck.Check(s, topo).Err() })
	if err != nil {
		return fmt.Errorf("plan probe: %w", err)
	}
	// The rebuilt plan must be the trainer's: same persistent bytes.
	var persistent int64
	for _, t := range s.Graph.Reg.All() {
		if t.Kind.IsPersistent() {
			persistent += t.Bytes
		}
	}
	if persistent != footprint {
		return fmt.Errorf("plan probe: rebuilt plan holds %d persistent bytes, trainer %d", persistent, footprint)
	}
	res.set("plan.build_ms", buildNs/1e6)
	res.set("schedcheck.check_ms", checkNs/1e6)
	return nil
}

// engineProbe drives sim.Engine directly: each round schedules 4096
// no-op events at seeded times and runs them.
func engineProbe(seed uint64, res *results) error {
	const events = 4096
	rng := splitmix(seed)
	at := make([]sim.Time, events)
	for i := range at {
		at[i] = sim.Time(rng.next()%1_000_000) / 1e3
	}
	fired := 0
	ns, err := perCallNs(probeBudget, func() error {
		eng := sim.NewEngine()
		for _, t := range at {
			eng.At(t, func() { fired++ })
		}
		_, err := eng.Run()
		return err
	})
	if err != nil {
		return err
	}
	if fired%events != 0 {
		return fmt.Errorf("engine probe: %d events fired, not a multiple of %d", fired, events)
	}
	res.set("sim.engine_events_per_s", events/(ns/1e9))
	return nil
}

// memoryProbe times memory.Manager Acquire+Release pairs, each run to
// completion on its engine, cycling through sixteen 1 MiB weights on a
// device that holds eight: every Acquire evicts and swaps in.
func memoryProbe(res *results) error {
	const (
		tensors = 16
		bytes   = 1 << 20
	)
	eng := sim.NewEngine()
	box := hw.Commodity1080TiBox(1)
	box.GPUMemBytes = tensors / 2 * bytes
	top, err := hw.NewBox(eng, box)
	if err != nil {
		return err
	}
	reg := tensor.NewRegistry()
	var ts []*tensor.Tensor
	for i := 0; i < tensors; i++ {
		ts = append(ts, reg.New(fmt.Sprintf("w%d", i), tensor.Weight, bytes, i, -1))
	}
	m := memory.New(eng, top, reg, memory.Policy{DirtyTracking: true})
	if err := m.InitHost(ts...); err != nil {
		return err
	}
	i, granted := 0, 0
	var failed error
	ns, err := perCallNs(probeBudget, func() error {
		in := []*tensor.Tensor{ts[i%tensors]}
		i++
		m.Acquire(0, in, nil, 0, func() { granted++ }, func(err error) { failed = err })
		if _, err := eng.Run(); err != nil {
			return err
		}
		if failed != nil {
			return failed
		}
		if err := m.Release(0, in, nil, nil, nil, 0); err != nil {
			return err
		}
		_, err := eng.Run()
		return err
	})
	if err != nil {
		return fmt.Errorf("memory probe: %w", err)
	}
	if err := m.Err(); err != nil {
		return fmt.Errorf("memory probe: %w", err)
	}
	if granted != i {
		return fmt.Errorf("memory probe: %d of %d acquires granted", granted, i)
	}
	if in := m.TotalStats().SwapInBytes; in != int64(i)*bytes {
		return fmt.Errorf("memory probe: %d acquires swapped in %d B, want %d B each", i, in, bytes)
	}
	res.set("memory.acquire_release_ns", ns)
	return nil
}
