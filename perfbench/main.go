// Command perfbench is the repository benchmark. One process runs one
// named workload — a closed loop of harmony.Trainer steps, or of
// passes that regenerate every figure of the paper — for a fixed wall
// time, checks that the outputs are correct, and prints every metric
// by name and unit. The last line of standard output is one JSON
// object carrying the metrics BENCHMARK.json declares:
//
//	bash perfbench/run.sh --workload swap-dp1 --seed 1 --seconds 10 --trace 0
//
// --trace 0 is the untraced run and reports the end-to-end metrics;
// --trace 1 is the separate traced run and reports the per-layer
// metrics. A traced trainer run also probes the collectives and the
// simulator when the workload does not run them; any other metric of a
// layer the workload does not run reads 0. README.md records why each
// workload was chosen, which layers it bypasses, and why only some
// workloads are listed in BENCHMARK.json.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// nameUnit is one declared metric.
type nameUnit struct{ name, unit string }

// e2eMetrics and layerMetrics are the metrics BENCHMARK.json declares,
// in report order; main_test.go keeps the two lists in step with it.
var e2eMetrics = []nameUnit{
	{"iter_ms.p50", "ms"},
	{"iter_ms.tail", "ms"},
	{"throughput_per_s", "1/s"},
	{"setup_s", "s"},
	{"mem_peak_mb", "MiB"},
}

var layerMetrics = []nameUnit{
	{"nn.dense_fwd_gflops", "GFLOP/s"},
	{"nn.dense_bwd_gflops", "GFLOP/s"},
	{"nn.allocs_per_call", "count"},
	{"vm.swap_in_mb_per_step", "MiB"},
	{"vm.swap_out_mb_per_step", "MiB"},
	{"vm.drop_mb_per_step", "MiB"},
	{"vm.p2p_mb_per_step", "MiB"},
	{"vm.prefetch_hit_ratio", "ratio"},
	{"vm.retries_per_step", "count"},
	{"vm.dma_busy_frac", "ratio"},
	{"vm.dma_compute_overlap_frac", "ratio"},
	{"vm.ensure_hit_ns", "ns"},
	{"vm.ensure_miss_ns", "ns"},
	{"comm.chunks_per_step", "count"},
	{"comm.reduced_mb_per_step", "MiB"},
	{"comm.busy_ms_per_step", "ms"},
	{"comm.overlap_frac", "ratio"},
	{"exec.compute_ms_per_step.fwd", "ms"},
	{"exec.compute_ms_per_step.bwd", "ms"},
	{"exec.compute_ms_per_step.upd", "ms"},
	{"exec.device_idle_frac", "ratio"},
	{"exec.step_alloc_mb", "MiB"},
	{"exec.step_allocs", "count"},
	{"plan.build_ms", "ms"},
	{"schedcheck.check_ms", "ms"},
	{"trainer.new_ms", "ms"},
	{"trace_overhead_frac", "ratio"},
	{"figures.fig1_ms", "ms"},
	{"figures.fig2a_ms", "ms"},
	{"figures.fig2c_ms", "ms"},
	{"figures.fig4_ms", "ms"},
	{"figures.fig5_ms", "ms"},
	{"figures.ext1_ms", "ms"},
	{"figures.ext2_tuner_ms", "ms"},
	{"figures.ext3_ms", "ms"},
	{"figures.ext4_ms", "ms"},
	{"figures.ext5_ms", "ms"},
	{"sim.engine_events_per_s", "1/s"},
	{"memory.acquire_release_ns", "ns"},
}

// options are the command-line settings every workload receives.
type options struct {
	seed    uint64
	seconds time.Duration
	trace   bool
}

// results is what a workload run hands back to main: its operation
// counts, the problems the correctness gates found, the metrics it
// measured, and free-form report lines.
type results struct {
	attempted, failed int
	problems          []string
	metrics           map[string]float64
	notes             []string
}

func (r *results) set(name string, v float64) { r.metrics[name] = v }

func (r *results) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records one failed operation and why.
func (r *results) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name: swap-dp1, swap-pp2, comm-dp4 or sim-figures")
	seed := flag.Uint64("seed", 1, "workload seed: generates every input")
	seconds := flag.Float64("seconds", 10, "wall time of the measured loop")
	traced := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	commit := flag.String("commit", "unknown", "commit being measured, for the report header")
	flag.Parse()
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	run, ok := workloads[*workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(names, ", "))
		os.Exit(2)
	}
	o := options{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *traced == 1,
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%d\n", *workload, o.seed, *seconds, *traced)
	fmt.Printf("# host: GOMAXPROCS=%d nproc=%d cpu=%q go=%s commit=%s\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version(), *commit)

	res := &results{metrics: map[string]float64{}}
	if err := run(o, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	os.Exit(finish(res, o.trace))
}

// finish prints the report lines and the JSON summary and returns the
// exit code: 1 when any operation failed or a gate tripped.
func finish(res *results, traced bool) int {
	for _, n := range res.notes {
		fmt.Println(n)
	}
	declared := e2eMetrics
	if traced {
		declared = layerMetrics
	}
	out := summary{Correct: res.failed == 0 && len(res.problems) == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]metric{}}
	for _, m := range declared {
		v, ok := res.metrics[m.name]
		if !ok && !traced {
			// Every end-to-end metric applies to every workload; a
			// missing one is a benchmark bug.
			out.Correct = false
			res.problems = append(res.problems, "end-to-end metric "+m.name+" was not measured")
		}
		out.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		fmt.Printf("%-32s %16.6g %s\n", m.name, v, m.unit)
	}
	fmt.Printf("%-32s %16.6g %s\n", "fail_frac", ratio(float64(res.failed), float64(res.attempted)), "ratio")
	for _, p := range res.problems {
		fmt.Println("FAIL:", p)
	}
	if out.Attempted < 1 {
		out.Attempted, out.Correct = 1, false
	}
	enc, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(enc))
	if !out.Correct {
		return 1
	}
	return 0
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMiB is the process's peak resident set (VmHWM) in MiB; 0
// where /proc is unavailable.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
