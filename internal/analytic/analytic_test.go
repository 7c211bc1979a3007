package analytic

import (
	"testing"
	"testing/quick"

	"harmony/internal/models"
	"harmony/internal/quickseed"
)

func uniformParams(R, m, n int) Params {
	return FromModel(models.Uniform("u", R, 1000, 4096, 1e6), 1, m, n)
}

func TestPaperHeadlineNumbers(t *testing.T) {
	// §3's worked example: R layers, m microbatches, N GPUs.
	p := uniformParams(16, 4, 4)
	W := p.WBytes
	if got, want := WeightVolumeIdeal(DPBaseline, p), int64(4*4+2)*4*W; got != want {
		t.Fatalf("DP baseline = %d, want (4m+2)N|W| = %d", got, want)
	}
	if got, want := WeightVolumeIdeal(HarmonyDP, p), int64(3)*4*W; got != want {
		t.Fatalf("Harmony-DP = %d, want 3N|W| = %d", got, want)
	}
	if got, want := WeightVolumeIdeal(HarmonyPP, p), 3*W; got != want {
		t.Fatalf("Harmony-PP = %d, want 3|W| = %d", got, want)
	}
	// Reduction factors: Harmony-DP saves (4m+2)/3 = 6x; Harmony-PP
	// additionally removes the factor N.
	if s := Speedup(HarmonyDP, p); s != 6 {
		t.Fatalf("Harmony-DP speedup = %v, want 6", s)
	}
	if s := Speedup(HarmonyPP, p); s != 24 {
		t.Fatalf("Harmony-PP speedup = %v, want 24", s)
	}
}

func TestCorrectedConvergesToIdeal(t *testing.T) {
	// The boundary correction is O(1/R): for deep models the two
	// forms agree.
	small := uniformParams(4, 4, 2)
	large := uniformParams(256, 4, 2)
	relGap := func(p Params) float64 {
		i := WeightVolumeIdeal(DPBaseline, p)
		c := WeightVolumeCorrected(DPBaseline, p)
		return float64(i-c) / float64(i)
	}
	if g := relGap(small); g < relGap(large) {
		t.Fatal("correction should shrink with depth")
	}
	if g := relGap(large); g > 0.01 {
		t.Fatalf("corrected form should converge to ideal: gap %.4f", g)
	}
}

func TestCorrectedNeverExceedsIdeal(t *testing.T) {
	f := func(rRaw, mRaw, nRaw uint8) bool {
		// A pipeline needs at least a few layers per stage for the
		// boundary correction to be meaningful (N stages cannot
		// exceed R layers anyway).
		n := int(nRaw%4) + 1
		R := int(rRaw%32) + 3*n
		p := uniformParams(R, int(mRaw%8)+1, n)
		for _, mode := range []Mode{DPBaseline, PPBaseline, HarmonyDP, HarmonyPP} {
			if WeightVolumeCorrected(mode, p) > WeightVolumeIdeal(mode, p) {
				return false
			}
			if WeightVolumeCorrected(mode, p) <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickseed.Config(t, 100)); err != nil {
		t.Fatal(err)
	}
}

func TestDominanceOrdering(t *testing.T) {
	// Harmony-PP dominates all other modes for every class the paper
	// models (§3: "Harmony-PP dominates savings compared to all other
	// baselines").
	f := func(rRaw, mRaw, nRaw uint8) bool {
		R := int(rRaw%32) + 2
		m := int(mRaw%8) + 1
		n := int(nRaw%4) + 2 // at least 2 GPUs
		p := uniformParams(R, m, n)
		w := func(mode Mode) int64 { return WeightVolumeIdeal(mode, p) }
		if !(w(HarmonyPP) <= w(HarmonyDP) && w(HarmonyDP) <= w(DPBaseline)) {
			return false
		}
		if !(w(HarmonyPP) <= w(PPBaseline) && w(PPBaseline) <= w(DPBaseline)) {
			return false
		}
		return TotalVolumeIdeal(HarmonyPP, p) <= TotalVolumeIdeal(PPBaseline, p) &&
			TotalVolumeIdeal(HarmonyDP, p) <= TotalVolumeIdeal(DPBaseline, p)
	}
	if err := quick.Check(f, quickseed.Config(t, 100)); err != nil {
		t.Fatal(err)
	}
}

func TestGradAndOptState(t *testing.T) {
	p := uniformParams(8, 4, 2)
	if got, want := GradVolumeIdeal(DPBaseline, p), int64(2*4+2)*2*p.WBytes; got != want {
		t.Fatalf("grad baseline = %d, want %d", got, want)
	}
	if got, want := GradVolumeIdeal(HarmonyDP, p), int64(2)*2*p.WBytes; got != want {
		t.Fatalf("grad harmony = %d, want %d", got, want)
	}
	// Optimizer state cannot be reduced below 2|K| per weight copy.
	if OptStateVolumeIdeal(DPBaseline, p) != OptStateVolumeIdeal(HarmonyDP, p) {
		t.Fatal("optimizer volume should be mode-independent within DP")
	}
	if got, want := OptStateVolumeIdeal(HarmonyPP, p), 2*p.KBytes; got != want {
		t.Fatalf("opt state pp = %d, want %d", got, want)
	}
}

func TestCrossStageVolume(t *testing.T) {
	p := uniformParams(8, 4, 4)
	if CrossStageVolume(DPBaseline, p) != 0 || CrossStageVolume(HarmonyDP, p) != 0 {
		t.Fatal("DP has no stage boundaries")
	}
	want := 2 * int64(4) * int64(3) * p.BoundaryActBytes
	if got := CrossStageVolume(HarmonyPP, p); got != want {
		t.Fatalf("cross-stage = %d, want 2·m·(N-1)·|Y| = %d", got, want)
	}
	// Baseline PP pays the cross-stage traffic twice on the host
	// link; TotalVolumeIdeal accounts for it.
	basePP := TotalVolumeIdeal(PPBaseline, p)
	noXStage := WeightVolumeIdeal(PPBaseline, p) + GradVolumeIdeal(PPBaseline, p) +
		OptStateVolumeIdeal(PPBaseline, p) + StashVolumeIdeal(PPBaseline, p)
	if basePP != noXStage+2*want {
		t.Fatalf("PP baseline total should include host-bounced cross-stage bytes")
	}
}

func TestValidate(t *testing.T) {
	good := uniformParams(4, 2, 2)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.R = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("R=0 accepted")
	}
	bad = good
	bad.WBytes = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative |W| accepted")
	}
}

func TestFromModel(t *testing.T) {
	m := models.Uniform("u", 8, 1000, 4096, 1e6)
	p := FromModel(m, 2, 4, 2)
	if p.R != 8 || p.M != 4 || p.N != 2 {
		t.Fatalf("shape = %+v", p)
	}
	if p.WBytes != m.WeightBytes() || p.KBytes != m.OptStateBytes() {
		t.Fatal("sizes mismatch")
	}
	if p.StashPerMB != m.ActivationBytes(2) {
		t.Fatal("stash mismatch")
	}
	if p.FirstWBytes != 4000 || p.LastWBytes != 4000 {
		t.Fatalf("boundary weights = %d/%d", p.FirstWBytes, p.LastWBytes)
	}
	if p.BoundaryActBytes != 4096*2 {
		t.Fatalf("boundary act = %d", p.BoundaryActBytes)
	}
}
