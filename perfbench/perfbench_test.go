package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"harmony/internal/experiments"
	"harmony/internal/hw"
	"harmony/internal/sched"
	"harmony/internal/sim"
	"harmony/internal/trace"
)

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tail must sort
		}
		return xs
	}
	cases := []struct {
		n        int
		value    float64
		pct      float64
		ruleKept bool
	}{
		{1, 1, 100, false},
		{10, 10, 100, false},
		{11, 11, 100, false},
		{19, 19, 100, false},
		{20, 10, 50, true},
		{21, 11, 100.0 * 11 / 21, true},
		{100, 90, 90, true},
		{1000, 990, 99, true},
	}
	for _, c := range cases {
		v, pct, ok := tail(seq(c.n))
		if v != c.value || math.Abs(pct-c.pct) > 1e-9 || ok != c.ruleKept {
			t.Errorf("tail(1..%d) = %v, p%v, %v; want %v, p%v, %v", c.n, v, pct, ok, c.value, c.pct, c.ruleKept)
		}
		// The rule itself: exactly ten samples sort after the tail.
		if ok {
			s := sortedCopy(seq(c.n))
			if i := slices.Index(s, v); len(s)-1-i != 10 {
				t.Errorf("n=%d: %d samples beyond the tail, want 10", c.n, len(s)-1-i)
			}
		}
	}
	if v, _, ok := tail(nil); v != 0 || ok {
		t.Errorf("tail(nil) = %v, %v", v, ok)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestUnionIntersectOverlap(t *testing.T) {
	u := union([]span{{5, 7}, {0, 2}, {1, 3}, {3, 4}, {6, 6}, {9, 8}})
	if want := []span{{0, 4}, {5, 7}}; !slices.Equal(u, want) {
		t.Fatalf("union = %v, want %v", u, want)
	}
	if got := length(u); got != 6 {
		t.Errorf("length = %v, want 6", got)
	}
	other := union([]span{{1, 2}, {3.5, 6}})
	if got, want := intersect(u, other), []span{{1, 2}, {3.5, 4}, {5, 6}}; !slices.Equal(got, want) {
		t.Errorf("intersect = %v, want %v", got, want)
	}
	if got := overlapFrac(u, other); got != 2.5/6 {
		t.Errorf("overlapFrac = %v, want %v", got, 2.5/6)
	}
	if got := overlapFrac(nil, other); got != 0 {
		t.Errorf("overlapFrac of nothing = %v, want 0", got)
	}
}

// TestOverlapMatchesCommOverlapFraction checks the benchmark's lane
// arithmetic against the trace package's own comms/compute overlap on
// random traces.
func TestOverlapMatchesCommOverlapFraction(t *testing.T) {
	seed := int64(20261017)
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 200; trial++ {
		var tr trace.Trace
		var comms, compute []span
		for i := 0; i < 1+rng.Intn(30); i++ {
			lo := rng.Float64() * 100
			hi := lo + rng.Float64()*10
			lane := trace.Compute
			if rng.Intn(2) == 0 {
				lane = trace.Comms
				comms = append(comms, span{lo, hi})
			} else {
				compute = append(compute, span{lo, hi})
			}
			tr.Add(hw.DeviceID(rng.Intn(4)), lane, "x", sim.Time(lo), sim.Time(hi))
		}
		got := overlapFrac(union(comms), union(compute))
		if want := tr.CommOverlapFraction(); math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: overlapFrac %v, CommOverlapFraction %v", trial, got, want)
		}
	}
}

func TestLaneMetrics(t *testing.T) {
	ev := func(dev int, lane trace.Lane, label string, lo, hi float64) trace.Event {
		return trace.Event{Dev: hw.DeviceID(dev), Lane: lane, Label: label, Start: sim.Time(lo), End: sim.Time(hi)}
	}
	// Two steps, [0,10) and [20,30); the gap is benchmark time.
	windows := []span{{0, 10}, {20, 30}}
	events := []trace.Event{
		ev(0, trace.Compute, "FWD[r0,L0,mb0]", 0, 4),
		ev(0, trace.Compute, "BWD[r0,L0,mb0]", 20, 26),
		ev(1, trace.Compute, "UPD[r0,L0]", 22, 24),
		ev(0, trace.Prefetch, "pf w", 2, 6),       // 2 of 4 under compute
		ev(1, trace.SwapOut, "out w", 8, 14),      // only [8,10) inside a step
		ev(1, trace.Comms, "AR[L0][0:8]", 23, 27), // 3 of 4 under compute
	}
	got := laneMetrics(events, windows, 2)
	want := map[string]float64{
		"vm.dma_busy_frac":             6.0 / 20,
		"vm.dma_compute_overlap_frac":  2.0 / 6,
		"comm.busy_ms_per_step":        4e3 / 2,
		"comm.overlap_frac":            3.0 / 4,
		"exec.compute_ms_per_step.fwd": 4e3 / 2,
		"exec.compute_ms_per_step.bwd": 6e3 / 2,
		"exec.compute_ms_per_step.upd": 2e3 / 2,
		// dev0 busy [0,6) and [20,26): 12 of 20; dev1 busy [8,10) and
		// [22,27): 7 of 20.
		"exec.device_idle_frac": ((1 - 12.0/20) + (1 - 7.0/20)) / 2,
	}
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, got[k], w)
		}
	}
}

// TestLossGate plants a NaN, an infinity and a one-ulp mismatch and
// checks the correctness gate counts each failed step once.
func TestLossGate(t *testing.T) {
	ref := []float32{2.5, 1.25, 0.75, 0.5}
	ok := []float32{2.5, 1.25, 0.75, 0.5, 0.4} // past the reference prefix
	if n, why := lossGate(ok, ref); n != 0 {
		t.Fatalf("clean losses failed the gate: %d, %s", n, why)
	}
	bad := append([]float32(nil), ok...)
	bad[1] = float32(math.NaN())
	bad[2] = math.Float32frombits(math.Float32bits(bad[2]) + 1)
	bad[4] = float32(math.Inf(1))
	n, why := lossGate(bad, ref)
	if n != 3 {
		t.Errorf("gate counted %d failed steps, want 3", n)
	}
	if !strings.Contains(why, "step 1") || !strings.Contains(why, "not finite") {
		t.Errorf("first failure %q, want the NaN at step 1", why)
	}
	if n, _ := lossGate([]float32{2.5, 1.25, 0.75, 0.5000001}, ref); n != 1 {
		t.Errorf("mismatch in the last compared step: %d failures, want 1", n)
	}
}

func TestFig5Gate(t *testing.T) {
	rows, err := experiments.Fig5([]int{2}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := fig5Gate(rows); err != nil {
		t.Fatalf("real Fig. 5 rows fail the gate: %v", err)
	}
	for i, r := range rows {
		planted := append([]experiments.Fig5Row(nil), rows...)
		planted[i].SimulatedW++
		err := fig5Gate(planted)
		gated := r.Mode != sched.DPBaseline.String()
		if gated != (err != nil) {
			t.Errorf("row %d (%s): planted +1 B gives %v, want gated=%v", i, r.Mode, err, gated)
		}
	}
	var dpOnly []experiments.Fig5Row
	for _, r := range rows {
		if r.Mode == sched.HarmonyDP.String() {
			dpOnly = append(dpOnly, r)
		}
	}
	if fig5Gate(dpOnly) == nil {
		t.Error("gate passed with no Harmony-PP rows")
	}
}

// TestDeclaredMetrics keeps the metric and workload lists of the code
// in step with BENCHMARK.json.
func TestDeclaredMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		Workloads []decl
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []nameUnit, want []decl) {
		if len(got) != len(want) {
			t.Errorf("%s: code declares %d metrics, BENCHMARK.json %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: code %s %s, BENCHMARK.json %s %s", what, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", e2eMetrics, spec.EndToEnd)
	check("per_layer", layerMetrics, spec.PerLayer)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	for _, a := range artifacts {
		if !slices.ContainsFunc(layerMetrics, func(m nameUnit) bool { return m.name == "figures."+a.name+"_ms" }) {
			t.Errorf("artifact %s has no per-layer metric", a.name)
		}
	}
}
