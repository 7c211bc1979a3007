// Command benchtrainer measures the real-execution trainer on
// swap-bound configurations — model footprint over device capacity,
// a modeled host link charging wall time per copied byte — and writes
// the results as JSON. Each variant runs twice, synchronous baseline
// (prefetch disabled) and async prefetch, so the report carries the
// overlap win alongside the raw per-step times and swap volumes:
//
//	benchtrainer -steps 4 -out BENCH_trainer.json
//
// The report also carries the executor's contention-scaling curve:
// the Ensure/Unpin fast path driven by one goroutine per device at
// 1/4/16/64 devices. With per-device metadata shards the curve is
// flat; benchgate guards both the 64-device point and the 16→64
// ratio so a reintroduced cross-device lock cannot merge.
//
// The checked-in BENCH_trainer.json is this command's output on the
// development machine; `make bench-json` regenerates it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"harmony"
	"harmony/internal/exec"
	"harmony/internal/memory"
	"harmony/internal/tensor"
)

// variant is one swap-bound workload shape; the prefetch-on/off pair
// is run for each.
type variant struct {
	Name    string `json:"name"`
	Devices int    `json:"devices"`
	P2P     bool   `json:"p2p"`
	LinkBPS int64  `json:"link_bytes_per_sec"`
}

// variants mirrors BenchmarkTrainerStepSwapBound in bench_test.go:
// dp1-hostlink is the headline (single device, every demand miss
// serialized on the link); the two-device rows exercise the p2p
// toggle.
var variants = []variant{
	{"dp1-hostlink", 1, false, 1 << 27},
	{"pp2-p2p", 2, true, 96 << 20},
	{"pp2-host-bounce", 2, false, 96 << 20},
}

type run struct {
	PrefetchDepth  int   `json:"prefetch_depth"`
	NsPerStep      int64 `json:"ns_per_step"`
	SwapInBytes    int64 `json:"swap_in_bytes"`
	SwapOutBytes   int64 `json:"swap_out_bytes"`
	PrefetchIssued int   `json:"prefetch_issued"`
	PrefetchHits   int   `json:"prefetch_hits"`
	CleanAheads    int   `json:"clean_aheads"`
	// OverlapFrac is async DMA busy time over total wall time: the
	// fraction of the run during which a DMA engine was moving data
	// off the critical path.
	OverlapFrac float64 `json:"overlap_frac"`
}

type row struct {
	variant
	Sync          run     `json:"sync"`
	Prefetch      run     `json:"prefetch"`
	SpeedupVsSync float64 `json:"speedup_vs_sync"`
}

type report struct {
	Steps      int             `json:"steps_per_run"`
	Widths1    []int           `json:"widths_dp1"`
	Widths2    []int           `json:"widths_pp2"`
	WidthsComm []int           `json:"widths_dp4_comm,omitempty"`
	Rows       []row           `json:"rows"`
	Comm       *commReport     `json:"comm,omitempty"`
	Contention []contentionRow `json:"contention"`
}

// commRun is one measurement of the comm-bound configuration.
type commRun struct {
	NsPerStep     int64 `json:"ns_per_step"`
	ChunksReduced int64 `json:"chunks_reduced"`
	BytesReduced  int64 `json:"bytes_reduced"`
	// CommOverlapFrac is the fraction of collective (Comms-lane) busy
	// time during which at least one device's compute lane was also
	// busy. A monolithic rendezvous parks every worker while the last
	// arriver reduces, so it scores near zero; chunked collectives
	// spread reduction across workers and let finished workers resume
	// compute, so they score high.
	CommOverlapFrac float64 `json:"comm_overlap_frac"`
}

// commReport is the dp4 comm-bound row: four data-parallel replicas
// with a deliberately small per-replica batch, so the per-step
// AllReduce reduce work is a large fraction of compute and the
// monolithic all-park rendezvous is the bottleneck being measured.
type commReport struct {
	Name                string  `json:"name"`
	Devices             int     `json:"devices"`
	CommChunks          int     `json:"comm_chunks"`
	CommBucketBytes     int64   `json:"comm_bucket_bytes"`
	Monolithic          commRun `json:"monolithic"`
	Chunked             commRun `json:"chunked"`
	SpeedupVsMonolithic float64 `json:"speedup_vs_monolithic"`
}

// contentionRow is one point of the Ensure hot-path scaling curve.
type contentionRow struct {
	Devices int   `json:"devices"`
	NsPerOp int64 `json:"ns_per_op"`
}

// contentionDevices mirrors BenchmarkEnsureContended.
var contentionDevices = []int{1, 4, 16, 64}

// measureContention drives the exec VM's pin fast path — one
// goroutine per device, each over its own small pre-faulted working
// set — and reports wall time per Ensure/Unpin pair. The working set
// is fixed per device so cache footprint does not grow with device
// count and the curve isolates lock/word contention.
func measureContention(devs, ops int) (contentionRow, error) {
	const (
		pageBytes = 64
		perDev    = 16
	)
	reg := tensor.NewRegistry()
	vm := exec.NewVM(devs, perDev*pageBytes, memory.Policy{DirtyTracking: true})
	sets := make([][]*tensor.Tensor, devs)
	for d := 0; d < devs; d++ {
		for i := 0; i < perDev; i++ {
			t := reg.New(fmt.Sprintf("d%dt%d", d, i), tensor.Activation, pageBytes, i, d)
			vm.HostAlloc(t)
			sets[d] = append(sets[d], t)
		}
		for _, t := range sets[d] {
			if _, err := vm.Ensure(d, t); err != nil {
				return contentionRow{}, err
			}
			if err := vm.Unpin(t); err != nil {
				return contentionRow{}, err
			}
		}
	}
	perG := ops/devs + 1
	var wg sync.WaitGroup
	errs := make(chan error, devs)
	start := time.Now()
	for d := 0; d < devs; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			set := sets[d]
			for i := 0; i < perG; i++ {
				t := set[i%perDev]
				if _, err := vm.Ensure(d, t); err != nil {
					errs <- err
					return
				}
				if err := vm.Unpin(t); err != nil {
					errs <- err
					return
				}
			}
		}(d)
	}
	wg.Wait()
	wall := time.Since(start)
	close(errs)
	for err := range errs {
		return contentionRow{}, err
	}
	return contentionRow{Devices: devs, NsPerOp: wall.Nanoseconds() / int64(perG*devs)}, nil
}

func config(v variant, depth int) harmony.TrainerConfig {
	tg := &harmony.Toggles{}
	if !v.P2P {
		tg.P2P = harmony.Bool(false)
	}
	mode, widths := harmony.HarmonyDP, []int{256, 512, 512, 512, 10}
	if v.Devices > 1 {
		mode, widths = harmony.HarmonyPP, []int{256, 640, 640, 640, 10}
	}
	return harmony.TrainerConfig{
		Widths:          widths,
		Mode:            mode,
		Devices:         v.Devices,
		DeviceBytes:     4 << 20,
		BatchSize:       8,
		Seed:            1,
		Toggles:         tg,
		PrefetchDepth:   depth,
		LinkBytesPerSec: v.LinkBPS,
	}
}

// measure trains steps iterations (after one untimed warm-up step)
// and returns the per-step wall time and movement counters.
func measure(v variant, depth, steps int) (run, error) {
	cfg := config(v, depth)
	tr, err := harmony.NewTrainer(cfg)
	if err != nil {
		return run{}, err
	}
	defer tr.Close()
	blobs := harmony.NewBlobs(cfg.Widths[0], cfg.Widths[len(cfg.Widths)-1], 1.0, 3)
	x, y := blobs.Batch(tr.SamplesPerStep(), 0)
	if _, err := tr.Step(x, y); err != nil {
		return run{}, err
	}
	start := time.Now()
	for i := 0; i < steps; i++ {
		if _, err := tr.Step(x, y); err != nil {
			return run{}, err
		}
	}
	wall := time.Since(start)
	st := tr.Stats()
	return run{
		PrefetchDepth:  depth,
		NsPerStep:      wall.Nanoseconds() / int64(steps),
		SwapInBytes:    st.SwapInBytes,
		SwapOutBytes:   st.SwapOutBytes,
		PrefetchIssued: st.PrefetchIssued,
		PrefetchHits:   st.PrefetchHits,
		CleanAheads:    st.CleanAheads,
		OverlapFrac:    float64(st.AsyncDMANanos) / float64(wall.Nanoseconds()),
	}, nil
}

// commWidths keeps the comm-bound row's reduce/compute ratio high:
// wide layers make per-layer gradients big (~19 MB total reduce
// payload per replica) while the tiny batch keeps backward compute
// small, so the per-step AllReduce is the bottleneck being measured.
var commWidths = []int{64, 1536, 1536, 1536, 10}

// commChunksN / commBucketB are the chunked variant's knobs: a 12 MB
// bucket budget coalesces the four per-layer collectives into two
// ~9.5 MB buckets ({L3,L2} and {L1,L0}, reverse layer order), each cut
// into 8 chunks spread round-robin over the four device workers.
const (
	commChunksN = 8
	commBucketB = int64(12) << 20
)

func commBoundConfig(chunks int, bucket int64) harmony.TrainerConfig {
	return harmony.TrainerConfig{
		Widths:  commWidths,
		Mode:    harmony.HarmonyDP,
		Devices: 4,
		// Fits the whole footprint: the row isolates collective cost,
		// not swap traffic. Chunked pin demand is additive across
		// workers, so capacity must cover each worker's bucket views
		// on top of the resident replica.
		DeviceBytes:  96 << 20,
		BatchSize:    4,
		Microbatches: 1,
		Seed:         1,
		// PCIe-class interconnect: each collective's remote gradient
		// traffic (2×(N-1)× payload) crosses this link. Monolithic
		// rendezvous pay it serially with every worker parked; chunks
		// cross it concurrently and hide behind compute.
		LinkBytesPerSec: 1 << 30,
		CommChunks:      chunks,
		CommBucketBytes: bucket,
	}
}

// measureComm times the comm-bound configuration with the given comm
// knobs (0,0 = monolithic rendezvous) and reads the collective/compute
// overlap off the execution trace.
func measureComm(chunks int, bucket int64, steps int) (commRun, error) {
	cfg := commBoundConfig(chunks, bucket)
	tr, err := harmony.NewTrainer(cfg)
	if err != nil {
		return commRun{}, err
	}
	defer tr.Close()
	blobs := harmony.NewBlobs(cfg.Widths[0], cfg.Widths[len(cfg.Widths)-1], 1.0, 3)
	x, y := blobs.Batch(tr.SamplesPerStep(), 0)
	if _, err := tr.Step(x, y); err != nil {
		return commRun{}, err
	}
	tl := tr.EnableTrace()
	start := time.Now()
	for i := 0; i < steps; i++ {
		if _, err := tr.Step(x, y); err != nil {
			return commRun{}, err
		}
	}
	wall := time.Since(start)
	cs := tr.CommStats()
	return commRun{
		NsPerStep:       wall.Nanoseconds() / int64(steps),
		ChunksReduced:   cs.ChunksReduced,
		BytesReduced:    cs.BytesReduced,
		CommOverlapFrac: tl.CommOverlapFraction(),
	}, nil
}

func main() {
	steps := flag.Int("steps", 4, "timed training steps per run (one extra warm-up step is untimed)")
	depth := flag.Int("prefetch-depth", 4, "prefetch lookahead for the async runs")
	contendOps := flag.Int("contend-ops", 200000, "total Ensure/Unpin pairs per contention point")
	out := flag.String("out", "BENCH_trainer.json", "output path ('-' for stdout)")
	flag.Parse()

	rep := report{
		Steps:   *steps,
		Widths1: []int{256, 512, 512, 512, 10},
		Widths2: []int{256, 640, 640, 640, 10},
	}
	for _, v := range variants {
		sync, err := measure(v, -1, *steps)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtrainer: %s/sync: %v\n", v.Name, err)
			os.Exit(1)
		}
		pf, err := measure(v, *depth, *steps)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtrainer: %s/prefetch: %v\n", v.Name, err)
			os.Exit(1)
		}
		r := row{variant: v, Sync: sync, Prefetch: pf,
			SpeedupVsSync: float64(sync.NsPerStep) / float64(pf.NsPerStep)}
		rep.Rows = append(rep.Rows, r)
		fmt.Fprintf(os.Stderr, "%-16s sync %6.1fms/step  prefetch %6.1fms/step (%.2fx, overlap %2.0f%%)\n",
			v.Name, float64(sync.NsPerStep)/1e6,
			float64(pf.NsPerStep)/1e6, r.SpeedupVsSync, 100*pf.OverlapFrac)
	}

	rep.WidthsComm = commWidths
	mono, err := measureComm(0, 0, *steps)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtrainer: dp4-comm/monolithic: %v\n", err)
		os.Exit(1)
	}
	chk, err := measureComm(commChunksN, commBucketB, *steps)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtrainer: dp4-comm/chunked: %v\n", err)
		os.Exit(1)
	}
	rep.Comm = &commReport{
		Name:                "dp4-comm",
		Devices:             4,
		CommChunks:          commChunksN,
		CommBucketBytes:     commBucketB,
		Monolithic:          mono,
		Chunked:             chk,
		SpeedupVsMonolithic: float64(mono.NsPerStep) / float64(chk.NsPerStep),
	}
	fmt.Fprintf(os.Stderr, "%-16s monolithic %6.1fms/step (overlap %2.0f%%)  chunked %6.1fms/step (%.2fx, overlap %2.0f%%, %d chunks, %.1f MB reduced)\n",
		"dp4-comm", float64(mono.NsPerStep)/1e6, 100*mono.CommOverlapFrac,
		float64(chk.NsPerStep)/1e6, rep.Comm.SpeedupVsMonolithic, 100*chk.CommOverlapFrac,
		chk.ChunksReduced, float64(chk.BytesReduced)/(1<<20))

	for _, devs := range contentionDevices {
		cr, err := measureContention(devs, *contendOps)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtrainer: contention/devs=%d: %v\n", devs, err)
			os.Exit(1)
		}
		rep.Contention = append(rep.Contention, cr)
		fmt.Fprintf(os.Stderr, "contention devs=%-3d %5d ns/op\n", devs, cr.NsPerOp)
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtrainer: %v\n", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchtrainer: %v\n", err)
		os.Exit(1)
	}
}
