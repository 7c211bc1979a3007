package main

import (
	"crypto/sha256"
	"fmt"
	"time"

	"harmony/internal/experiments"
	"harmony/internal/hw"
	"harmony/internal/models"
	"harmony/internal/sched"
	"harmony/internal/tuner"
)

// artifact is one table or figure that cmd/figures prints, rendered
// here with every digit of every value so two passes compare exactly.
type artifact struct {
	name   string
	render func() (string, error)
}

// rows renders any experiments result with full float precision.
func rows[T any](v T, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%+v", v), nil
}

// artifacts are every artifact of cmd/figures, with its parameters.
var artifacts = []artifact{
	{"fig1", func() (string, error) { return rows(experiments.Fig1(), nil) }},
	{"fig2a", func() (string, error) { return rows(experiments.Fig2a(experiments.DefaultFig2a())) }},
	{"fig2c", func() (string, error) { return rows(experiments.Fig2c(models.BERT48(), 4)) }},
	{"fig4", func() (string, error) { return rows(experiments.Fig4()) }},
	{"fig5", func() (string, error) {
		rs, err := experiments.Fig5([]int{2, 4, 8}, []int{1, 2, 4})
		if err != nil {
			return "", err
		}
		if err := fig5Gate(rs); err != nil {
			return "", err
		}
		return rows(rs, nil)
	}},
	{"ext1", func() (string, error) { return rows(experiments.Ext1(models.BERT48(), []int{1, 2, 4}, 5, 0)) }},
	{"ext2_tuner", func() (string, error) {
		box := hw.Commodity1080TiBox(2)
		box.GPUMemBytes = 20 << 20
		return rows(tuner.Run(tuner.Config{
			Model: models.Uniform("tango", 8, 1_000_000, 16<<10, 5e9),
			Mode:  sched.HarmonyPP, Box: box, BatchPerReplica: 4,
		}, 2))
	}},
	{"ext3", func() (string, error) { return rows(experiments.Ext3(models.BERT48(), 4, 5)) }},
	{"ext4", func() (string, error) { return rows(experiments.Ext4(models.BERT48(), 5)) }},
	{"ext5", func() (string, error) { return rows(experiments.Ext5()) }},
}

// fig5Gate requires every Harmony-DP and Harmony-PP row of Fig. 5 to
// equal the boundary-corrected closed form exactly, and both modes to
// be present so a renamed mode cannot empty the gate. DP-baseline rows
// are not gated: the simulator departs from their closed form.
func fig5Gate(rs []experiments.Fig5Row) error {
	seen := map[string]int{}
	for _, r := range rs {
		if r.Mode != sched.HarmonyDP.String() && r.Mode != sched.HarmonyPP.String() {
			continue
		}
		seen[r.Mode]++
		if r.SimulatedW != r.CorrectedW {
			return fmt.Errorf("fig5 %s m=%d N=%d: simulated %d B, corrected closed form %d B", r.Mode, r.M, r.N, r.SimulatedW, r.CorrectedW)
		}
	}
	if seen[sched.HarmonyDP.String()] == 0 || seen[sched.HarmonyPP.String()] == 0 {
		return fmt.Errorf("fig5: gated rows per mode %v, want Harmony-DP and Harmony-PP rows", seen)
	}
	return nil
}

// figuresPass regenerates every artifact in cmd/figures order and
// returns the digest of the renderings and each artifact's wall time
// in ms, indexed like artifacts.
func figuresPass() (digest [32]byte, ms []float64, err error) {
	out := make([]string, len(artifacts))
	ms = make([]float64, len(artifacts))
	for i, a := range artifacts {
		start := time.Now()
		s, err := a.render()
		ms[i] = float64(time.Since(start).Nanoseconds()) / 1e6
		if err != nil {
			return digest, nil, fmt.Errorf("%s: %w", a.name, err)
		}
		out[i] = s
	}
	h := sha256.New()
	for i, s := range out {
		fmt.Fprintf(h, "%s\n%s\n", artifacts[i].name, s)
	}
	copy(digest[:], h.Sum(nil))
	return digest, ms, nil
}

// warmups is how many untimed passes run first; their median is the
// workload's set-up time.
const warmups = 3

// runFigures is the sim-figures workload: closed-loop passes that each
// regenerate every artifact. Every pass must render byte-identical
// tables to the run's first pass.
func runFigures(o options, res *results) error {
	var first [32]byte
	pass := 0
	// one runs and checks pass number pass, returning its wall time in
	// ms and per-artifact times (nil when the pass failed).
	one := func() (float64, []float64) {
		start := time.Now()
		d, ms, err := figuresPass()
		total := float64(time.Since(start).Nanoseconds()) / 1e6
		res.attempted++
		switch {
		case err != nil:
			res.fail("pass %d: %v", pass, err)
			ms = nil
		case pass == 0:
			first = d
		case d != first:
			res.fail("pass %d: rendered tables differ from pass 0 (digest %x, want %x)", pass, d[:8], first[:8])
		}
		pass++
		return total, ms
	}
	var setupMs []float64
	for k := 0; k < warmups; k++ {
		t, _ := one()
		setupMs = append(setupMs, t)
	}
	res.set("setup_s", median(setupMs)/1e3)

	var passMs []float64
	perArtifact := make([][]float64, len(artifacts))
	begin := time.Now()
	for time.Since(begin) < o.seconds {
		t, ms := one()
		passMs = append(passMs, t)
		for i, v := range ms {
			perArtifact[i] = append(perArtifact[i], v)
		}
	}
	res.notef("figures: %d passes (%d warm-up), tables digest %x, Fig. 5 Harmony rows equal the corrected closed form",
		pass, warmups, first[:8])
	if !o.trace {
		res.set("mem_peak_mb", peakRSSMiB())
		reportSteps(res, "figures_ms", passMs, "iter_ms")
		res.notef("%-32s %16.6g s   [figures_ms.p50 / 1000]", "figures_s.p50", res.metrics["iter_ms.p50"]/1e3)
		res.notef("%-32s %16.6g s   [figures_ms.tail / 1000]", "figures_s.tail", res.metrics["iter_ms.tail"]/1e3)
		res.set("throughput_per_s", float64(len(passMs)*len(artifacts))/(sum(passMs)/1e3))
		res.notef("%-32s %16.6g 1/s  [iter: one pass of %d artifacts; throughput_per_s counts artifacts]",
			"artifacts_per_s", res.metrics["throughput_per_s"], len(artifacts))
		return nil
	}
	for i, a := range artifacts {
		res.set("figures."+a.name+"_ms", median(perArtifact[i]))
	}
	return simProbes(o.seed, res)
}

// simulatorProbes measures the simulator half from a trainer
// workload's traced run, so the gated workloads, which never run the
// simulator, still measure its layers: one figures pass timed per
// artifact, with the Fig. 5 gate, then the sim.Engine and
// memory.Manager probes.
func simulatorProbes(seed uint64, res *results) error {
	_, ms, err := figuresPass()
	res.attempted++
	if err != nil {
		res.fail("figures pass: %v", err)
	} else {
		for i, a := range artifacts {
			res.set("figures."+a.name+"_ms", ms[i])
		}
	}
	return simProbes(seed, res)
}

// simProbes drives the simulator's event engine and memory manager
// directly.
func simProbes(seed uint64, res *results) error {
	if err := engineProbe(seed, res); err != nil {
		return err
	}
	return memoryProbe(res)
}
