// Benchmark harness: one bench per table and figure of the paper
// (regenerating its rows/series as reported metrics), plus ablation
// benches for every design toggle DESIGN.md calls out. Run with
//
//	go test -bench=. -benchmem
//
// Metrics are emitted via b.ReportMetric so the bench output itself
// reproduces the figures' series: throughput (seq/s), swap volume
// (GB/iteration) and analytical-model error (%).
package harmony

import (
	"fmt"
	"testing"
	"time"

	"harmony/internal/experiments"
	"harmony/internal/hw"
	"harmony/internal/models"
	"harmony/internal/sched"
	"harmony/internal/tuner"
)

// BenchmarkFig1ModelZoo regenerates Fig. 1: parameter counts over two
// decades (reported as log10 metrics per model).
func BenchmarkFig1ModelZoo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig1()
		if len(rows) != 7 {
			b.Fatal("zoo incomplete")
		}
	}
	for _, r := range experiments.Fig1() {
		b.ReportMetric(r.Log10Params, "log10params:"+r.Name)
	}
}

// BenchmarkFig2aDPSwapBottleneck regenerates Fig. 2(a): global
// throughput and swap-out volume for DP BERT training on 1–4 GPUs.
func BenchmarkFig2aDPSwapBottleneck(b *testing.B) {
	cfg := experiments.DefaultFig2a()
	var rows []experiments.Fig2aRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Fig2a(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Throughput, fmt.Sprintf("seq/s@%dgpu", r.GPUs))
		b.ReportMetric(r.SwapOutGB, fmt.Sprintf("swapGB@%dgpu", r.GPUs))
	}
}

// BenchmarkFig2cPPImbalance regenerates Fig. 2(c): per-stage memory
// demand and swap load under 1F1B with per-GPU virtualization.
func BenchmarkFig2cPPImbalance(b *testing.B) {
	var rows []experiments.Fig2cRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Fig2c(models.BERT48(), 4)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.DemandGB, fmt.Sprintf("demandGB@gpu%d", r.GPU))
		b.ReportMetric(r.SwapOutGB, fmt.Sprintf("swapGB@gpu%d", r.GPU))
	}
}

// BenchmarkFig4HarmonySchedule regenerates Fig. 4: the grouped
// Harmony-PP schedule on the toy four-layer model.
func BenchmarkFig4HarmonySchedule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		gantt, err := experiments.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		if len(gantt) == 0 {
			b.Fatal("empty gantt")
		}
	}
}

// BenchmarkFig5SwapVolume regenerates Fig. 5 / §3: simulated weight
// swap volume vs the closed forms (4m+2)N|W|, 3N|W| and 3|W|,
// reporting the worst relative error against each.
func BenchmarkFig5SwapVolume(b *testing.B) {
	var rows []experiments.Fig5Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Fig5([]int{2, 4, 8}, []int{1, 2, 4})
		if err != nil {
			b.Fatal(err)
		}
	}
	worstIdeal, worstCorr := 0.0, 0.0
	for _, r := range rows {
		if r.RelErrIdeal > worstIdeal {
			worstIdeal = r.RelErrIdeal
		}
		if r.RelErrCorr > worstCorr {
			worstCorr = r.RelErrCorr
		}
	}
	b.ReportMetric(100*worstIdeal, "worst-err-ideal-%")
	b.ReportMetric(100*worstCorr, "worst-err-corrected-%")
	b.ReportMetric(float64(len(rows)), "cells")
}

// BenchmarkExtHarmonyDPThroughput regenerates EXT1: baseline vs
// Harmony throughput and swap volume on the Fig. 2 workload.
func BenchmarkExtHarmonyDPThroughput(b *testing.B) {
	var rows []experiments.Ext1Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Ext1(models.BERT48(), []int{1, 2, 4}, 5, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.BaseThroughput, fmt.Sprintf("base-seq/s@%d", r.GPUs))
		b.ReportMetric(r.HarmonyDPThroughput, fmt.Sprintf("hdp-seq/s@%d", r.GPUs))
		if r.GPUs >= 2 {
			b.ReportMetric(r.HarmonyPPThroughput, fmt.Sprintf("hpp-seq/s@%d", r.GPUs))
		}
	}
}

// BenchmarkExtTunerSweep regenerates EXT2: the memory–performance
// tango sweep, reporting the best candidate's throughput and the
// spread across the space.
func BenchmarkExtTunerSweep(b *testing.B) {
	model := models.Uniform("tango", 8, 1_000_000, 16<<10, 5e9)
	box := hw.Commodity1080TiBox(2)
	box.GPUMemBytes = 20 << 20
	cfg := tuner.Config{Model: model, Mode: sched.HarmonyPP, Box: box, BatchPerReplica: 4}
	var res *tuner.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = tuner.Run(cfg, 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Best.Throughput, "best-samples/s")
	worst := res.Measurements[len(res.Measurements)-1]
	if worst.Feasible {
		b.ReportMetric(res.Best.Throughput/worst.Throughput, "best/worst-ratio")
	}
	b.ReportMetric(float64(res.Explored), "candidates")
}

// ---------------------------------------------------------- ablations

// ablationRun measures one toggle configuration on a mid-size
// memory-pressured workload.
func ablationRun(b *testing.B, mutate func(*Toggles)) (thr, swapGB float64) {
	b.Helper()
	tg := &Toggles{}
	mutate(tg)
	rep, err := Simulate(SimConfig{
		Model:          UniformModel(12, 2_000_000, 64<<10, 2e10),
		Mode:           HarmonyDP,
		Server:         CommodityServer(2).WithGPUMemory(48 << 20),
		MicrobatchSize: 1,
		Microbatches:   4,
		Toggles:        tg,
	})
	if err != nil {
		b.Fatal(err)
	}
	return rep.Throughput, rep.SwapGB()
}

func benchAblation(b *testing.B, name string, mutate func(*Toggles)) {
	b.Run(name, func(b *testing.B) {
		var thr, swap float64
		for i := 0; i < b.N; i++ {
			thr, swap = ablationRun(b, mutate)
		}
		b.ReportMetric(thr, "samples/s")
		b.ReportMetric(swap, "swapGB/iter")
	})
}

// BenchmarkAblation flips each Harmony optimization off one at a time
// (DESIGN.md §5): the deltas against "all-on" quantify each
// technique's contribution.
func BenchmarkAblation(b *testing.B) {
	benchAblation(b, "all-on", func(*Toggles) {})
	benchAblation(b, "no-grouping", func(t *Toggles) { t.Grouping = Bool(false) })
	benchAblation(b, "no-jit", func(t *Toggles) { t.JIT = Bool(false) })
	benchAblation(b, "no-p2p", func(t *Toggles) { t.P2P = Bool(false) })
	benchAblation(b, "no-prefetch", func(t *Toggles) { t.Prefetch = Bool(false) })
	benchAblation(b, "no-dirty-tracking", func(t *Toggles) { t.DirtyTracking = Bool(false) })
	benchAblation(b, "no-defer", func(t *Toggles) { t.DeferBlockedUpdates = Bool(false) })
	benchAblation(b, "group-of-2", func(t *Toggles) { t.GroupSize = 2 })
}

// BenchmarkRealTrainingStep measures the real-execution runtime: one
// training iteration of an MLP under 4x memory over-commit (actual
// float32 math plus coherent-virtual-memory copies).
func BenchmarkRealTrainingStep(b *testing.B) {
	tr, err := NewTrainer(TrainerConfig{
		Widths:      []int{256, 512, 512, 10},
		Mode:        HarmonyPP,
		Devices:     2,
		DeviceBytes: 5 << 20,
		BatchSize:   32,
		Adam:        true,
		Seed:        1,
	})
	if err != nil {
		b.Fatal(err)
	}
	blobs := NewBlobs(256, 10, 1.0, 3)
	x, y := blobs.Batch(tr.SamplesPerStep(), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Step(x, y); err != nil {
			b.Fatal(err)
		}
	}
	st := tr.Stats()
	b.ReportMetric(float64(st.SwapInBytes)/float64(b.N)/(1<<20), "MB-swapped-in/step")
}

// stepWorkloads are the executor-ablation workloads: an MNIST-sized
// MLP and a wider BERT-tiny-sized stack, both data-parallel over two
// devices with enough memory that kernel time (not swapping)
// dominates.
var stepWorkloads = []struct {
	name   string
	widths []int
}{
	{"mnist-mlp", []int{784, 512, 512, 10}},
	{"bert-tiny-mlp", []int{512, 1024, 1024, 1024, 10}},
}

func stepTrainer(b *testing.B, widths []int, serial bool) (*Trainer, []float32, []int) {
	b.Helper()
	tr, err := NewTrainer(TrainerConfig{
		Widths:      widths,
		Mode:        HarmonyDP,
		Devices:     2,
		DeviceBytes: 64 << 20,
		BatchSize:   64,
		Seed:        1,
		Serial:      serial,
	})
	if err != nil {
		b.Fatal(err)
	}
	blobs := NewBlobs(widths[0], widths[len(widths)-1], 1.0, 3)
	x, y := blobs.Batch(tr.SamplesPerStep(), 0)
	return tr, x, y
}

func benchTrainerStep(b *testing.B, widths []int, serial bool) {
	tr, x, y := stepTrainer(b, widths, serial)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Step(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// timeSteps measures mean wall time per Step over a fixed run.
func timeSteps(b *testing.B, widths []int, serial bool, steps int) time.Duration {
	b.Helper()
	tr, x, y := stepTrainer(b, widths, serial)
	if _, err := tr.Step(x, y); err != nil { // warm caches and pools
		b.Fatal(err)
	}
	start := time.Now()
	for i := 0; i < steps; i++ {
		if _, err := tr.Step(x, y); err != nil {
			b.Fatal(err)
		}
	}
	return time.Since(start) / time.Duration(steps)
}

// BenchmarkTrainerStepSerial is the ablation baseline: the original
// single-threaded polling executor.
func BenchmarkTrainerStepSerial(b *testing.B) {
	for _, w := range stepWorkloads {
		b.Run(w.name, func(b *testing.B) { benchTrainerStep(b, w.widths, true) })
	}
}

// BenchmarkTrainerStepParallel measures the parallel device-worker
// executor on the same workloads and reports its speedup over the
// serial reference (expect ≥1.5× on ≥4-core machines; ~1× on one
// core, where the pool runs inline).
func BenchmarkTrainerStepParallel(b *testing.B) {
	for _, w := range stepWorkloads {
		b.Run(w.name, func(b *testing.B) {
			serial := timeSteps(b, w.widths, true, 3)
			parallel := timeSteps(b, w.widths, false, 3)
			benchTrainerStep(b, w.widths, false)
			b.ReportMetric(float64(serial)/float64(parallel), "speedup-vs-serial")
		})
	}
}

// swapBoundConfig is the swap-bound workload for the async-DMA
// benches: the model's footprint overflows each device, and a modeled
// host link makes every demand swap cost real wall time. PrefetchDepth
// -1 is the synchronous baseline (all swapping on the critical path);
// a positive depth lets the DMA workers hide the link time behind
// compute. The single-device DP shape is the headline: with one
// device every demand miss serializes behind the link, so prefetch
// has the most to hide.
func swapBoundConfig(depth, devices int, p2p bool, link int64) TrainerConfig {
	tg := &Toggles{}
	if !p2p {
		tg.P2P = Bool(false)
	}
	mode := HarmonyDP
	widths := []int{256, 512, 512, 512, 10}
	if devices > 1 {
		mode = HarmonyPP
		widths = []int{256, 640, 640, 640, 10}
	}
	return TrainerConfig{
		Widths:          widths,
		Mode:            mode,
		Devices:         devices,
		DeviceBytes:     4 << 20,
		BatchSize:       8,
		Seed:            1,
		Toggles:         tg,
		PrefetchDepth:   depth,
		LinkBytesPerSec: link,
	}
}

// timeSwapSteps measures mean wall time per Step (after one warm-up
// step) and returns the trainer's data-movement counters.
func timeSwapSteps(b *testing.B, cfg TrainerConfig, steps int) (time.Duration, Stats) {
	b.Helper()
	tr, err := NewTrainer(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	blobs := NewBlobs(cfg.Widths[0], cfg.Widths[len(cfg.Widths)-1], 1.0, 3)
	x, y := blobs.Batch(tr.SamplesPerStep(), 0)
	if _, err := tr.Step(x, y); err != nil {
		b.Fatal(err)
	}
	start := time.Now()
	for i := 0; i < steps; i++ {
		if _, err := tr.Step(x, y); err != nil {
			b.Fatal(err)
		}
	}
	return time.Since(start) / time.Duration(steps), tr.Stats()
}

// swapBoundVariants is the prefetch-on/off × p2p-on/off bench matrix.
// dp1-hostlink is the acceptance row (expect ≥1.3× with prefetch);
// the two-device rows exercise the p2p toggle, where demand misses
// already overlap across device workers and the margin is smaller.
var swapBoundVariants = []struct {
	name    string
	devices int
	p2p     bool
	link    int64
}{
	{"dp1-hostlink", 1, false, 1 << 27},
	{"pp2-p2p", 2, true, 96 << 20},
	{"pp2-host-bounce", 2, false, 96 << 20},
}

// BenchmarkTrainerStepSwapBound is the PR's acceptance benchmark:
// prefetch vs. the synchronous baseline on swap-bound configs
// (footprint > device capacity), with p2p on and off. The speedup
// metric compares fixed runs of both executors inside each prefetch
// sub-bench; overlap-frac is async DMA busy time over wall time.
func BenchmarkTrainerStepSwapBound(b *testing.B) {
	const measured = 4
	for _, v := range swapBoundVariants {
		for _, sub := range []struct {
			suffix string
			depth  int
		}{
			{"sync", -1},
			{"prefetch", 4},
		} {
			b.Run(v.name+"/"+sub.suffix, func(b *testing.B) {
				cfg := swapBoundConfig(sub.depth, v.devices, v.p2p, v.link)
				var speedup, swappedMB, overlap float64
				if sub.depth > 0 {
					syncT, _ := timeSwapSteps(b, swapBoundConfig(-1, v.devices, v.p2p, v.link), measured)
					pfT, st := timeSwapSteps(b, cfg, measured)
					speedup = float64(syncT) / float64(pfT)
					swappedMB = float64(st.SwapInBytes+st.SwapOutBytes) / (1 << 20)
					overlap = float64(st.AsyncDMANanos) / float64(pfT.Nanoseconds()*int64(measured))
				}
				tr, err := NewTrainer(cfg)
				if err != nil {
					b.Fatal(err)
				}
				defer tr.Close()
				blobs := NewBlobs(cfg.Widths[0], cfg.Widths[len(cfg.Widths)-1], 1.0, 3)
				x, y := blobs.Batch(tr.SamplesPerStep(), 0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := tr.Step(x, y); err != nil {
						b.Fatal(err)
					}
				}
				if sub.depth > 0 { // after ResetTimer, which clears metrics
					b.ReportMetric(speedup, "speedup-vs-sync")
					b.ReportMetric(swappedMB, "MB-swapped")
					b.ReportMetric(overlap, "overlap-frac")
				}
			})
		}
	}
}

// BenchmarkSimulatorSpeed measures raw simulator performance: events
// per wall second for a 4-GPU BERT-48 iteration (useful when scaling
// the sweeps).
func BenchmarkSimulatorSpeed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(SimConfig{
			Model:          BERT48(),
			Mode:           HarmonyPP,
			Server:         CommodityServer(4),
			MicrobatchSize: 1,
			Microbatches:   20,
			Toggles:        &Toggles{GroupSize: 5},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtParallelismStrategies regenerates EXT3: Harmony's task
// decomposition lets the same workload run data-parallel,
// pipeline-parallel, or intra-op-sharded; this reports all three.
func BenchmarkExtParallelismStrategies(b *testing.B) {
	var rows []experiments.Ext3Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Ext3(models.BERT48(), 4, 5)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Throughput, r.Strategy+"-seq/s")
		b.ReportMetric(r.SwapGB, r.Strategy+"-swapGB")
	}
}

// BenchmarkExtMultiServer regenerates EXT4: server layouts at a fixed
// GPU count (the §4 multi-machine extension).
func BenchmarkExtMultiServer(b *testing.B) {
	var rows []experiments.Ext4Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Ext4(models.BERT48(), 5)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Throughput, r.Layout+"-"+r.Strategy+"-seq/s")
	}
}

// BenchmarkEvictionPolicy contrasts LRU with schedule-informed
// (Belady) eviction — the paper's scheduler/swapper co-design — on a
// memory-pressured workload.
func BenchmarkEvictionPolicy(b *testing.B) {
	for _, look := range []bool{false, true} {
		name := "lru"
		if look {
			name = "lookahead"
		}
		b.Run(name, func(b *testing.B) {
			var thr, swap float64
			for i := 0; i < b.N; i++ {
				rep, err := Simulate(SimConfig{
					Model:          UniformModel(12, 2_000_000, 64<<10, 2e10),
					Mode:           HarmonyDP,
					Server:         CommodityServer(2).WithGPUMemory(48 << 20),
					MicrobatchSize: 1,
					Microbatches:   4,
					Toggles:        &Toggles{LookaheadEviction: Bool(look)},
				})
				if err != nil {
					b.Fatal(err)
				}
				thr, swap = rep.Throughput, rep.SwapGB()
			}
			b.ReportMetric(thr, "samples/s")
			b.ReportMetric(swap, "swapGB/iter")
		})
	}
}

// BenchmarkExtFeasibility regenerates EXT5: §4's feasibility
// discussion quantified — iteration time and extrapolated
// fine-tune/pre-train durations for every Fig. 1 model.
func BenchmarkExtFeasibility(b *testing.B) {
	var rows []experiments.Ext5Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Ext5()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Feasible {
			b.ReportMetric(r.IterSeconds, r.Model+"-iter-s")
		}
	}
}
