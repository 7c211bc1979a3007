package exec

import (
	"runtime"
	"strings"
	"testing"

	"harmony/internal/data"
	"harmony/internal/nn"
	"harmony/internal/sched"
)

// TestRetuneOptionsSwapBitExact: a light retune (same graph, new
// schedule options) between steps must keep training bit-identical to
// an uninterrupted run whose plan was the retune target from step 0 is
// NOT required — microbatch math is unchanged, so the guarantee is
// stronger: the whole run must match the serial reference exactly.
// The retune turns prefetch on mid-run, so the light path must also
// arm the DMA engine the starting plan never started.
func TestRetuneOptionsSwapBitExact(t *testing.T) {
	nn.SetWorkers(4)
	defer nn.SetWorkers(runtime.GOMAXPROCS(0))
	const steps = 4
	for _, mode := range []sched.Mode{sched.HarmonyDP, sched.HarmonyPP} {
		t.Run(mode.String(), func(t *testing.T) {
			ref := trainerConfig(mode, 2)
			ref.Serial = true
			a, lossA := runTrainer(t, ref, steps)

			cfg := trainerConfig(mode, 2)
			start := sched.DefaultOptions(mode)
			start.Prefetch = false
			cfg.Options = &start
			tr, err := NewTrainer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			if tr.pf != nil {
				t.Fatal("prefetcher armed on a plan with prefetch off")
			}
			blobs := data.NewBlobs(cfg.Widths[0], cfg.Widths[len(cfg.Widths)-1], 0.5, 7)
			var losses []float32
			for s := 0; s < steps; s++ {
				if s == 2 {
					// Mid-run: switch the same graph to the prefetching
					// default plan.
					opts := sched.DefaultOptions(mode)
					if err := tr.Retune(RetuneRequest{Options: &opts}); err != nil {
						t.Fatalf("light retune rejected: %v", err)
					}
					if tr.pf == nil {
						t.Fatal("retune to a prefetching plan did not arm the prefetcher")
					}
				}
				in, lb := blobs.ReplicaBatches(tr.Replicas(), cfg.Microbatches, cfg.MicrobatchSize, uint64(s))
				loss, err := tr.Step(in, lb)
				if err != nil {
					t.Fatal(err)
				}
				losses = append(losses, loss)
			}
			if st := tr.Stats(); st.PrefetchIssued == 0 {
				t.Fatal("prefetch never fired after the retune under memory pressure")
			}
			assertSameRun(t, a, tr, lossA, losses)
		})
	}
}

// TestRetuneMicrobatchReshapeDeterministic: a heavy retune (graph and
// VM rebuilt, state round-tripped through the checkpoint) must be
// deterministic — two identical runs retuning at the same step produce
// bit-identical weights — and must preserve the per-replica batch
// contract.
func TestRetuneMicrobatchReshapeDeterministic(t *testing.T) {
	nn.SetWorkers(4)
	defer nn.SetWorkers(runtime.GOMAXPROCS(0))
	const steps = 4
	for _, mode := range []sched.Mode{sched.HarmonyDP, sched.HarmonyPP} {
		t.Run(mode.String(), func(t *testing.T) {
			run := func() (*Trainer, []float32) {
				cfg := trainerConfig(mode, 2)
				tr, err := NewTrainer(cfg)
				if err != nil {
					t.Fatal(err)
				}
				blobs := data.NewBlobs(cfg.Widths[0], cfg.Widths[len(cfg.Widths)-1], 0.5, 7)
				var losses []float32
				mbs, mbc := cfg.MicrobatchSize, cfg.Microbatches
				for s := 0; s < steps; s++ {
					if s == 2 {
						// 8×4 → 4×8: same batch, finer split (a coarser
						// one would exceed the 12 KiB devices — the
						// preflight rejects it with a counterexample).
						if err := tr.Retune(RetuneRequest{MicrobatchSize: 4, Microbatches: 8}); err != nil {
							t.Fatalf("heavy retune rejected: %v", err)
						}
						mbs, mbc = 4, 8
					}
					in, lb := blobs.ReplicaBatches(tr.Replicas(), mbc, mbs, uint64(s))
					loss, err := tr.Step(in, lb)
					if err != nil {
						t.Fatal(err)
					}
					losses = append(losses, loss)
				}
				return tr, losses
			}
			a, lossA := run()
			b, lossB := run()
			assertSameRun(t, a, b, lossA, lossB)
			a.Close()
			b.Close()
		})
	}
}

// TestRetuneRejectionKeepsPlan: an infeasible retune must return the
// verifier's counterexample and leave the running plan untouched — the
// remaining steps match an undisturbed run bit for bit.
func TestRetuneRejectionKeepsPlan(t *testing.T) {
	nn.SetWorkers(4)
	defer nn.SetWorkers(runtime.GOMAXPROCS(0))
	const steps = 3
	mode := sched.HarmonyPP
	ref := trainerConfig(mode, 2)
	ref.Serial = true
	a, lossA := runTrainer(t, ref, steps)

	cfg := trainerConfig(mode, 2)
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	blobs := data.NewBlobs(cfg.Widths[0], cfg.Widths[len(cfg.Widths)-1], 0.5, 7)
	var losses []float32
	for s := 0; s < steps; s++ {
		if s == 1 {
			plan := tr.s
			// 8×4 → 16×2: the same batch in coarser microbatches
			// overflows the 12 KiB devices, so schedcheck's residency
			// rule must reject it before anything is swapped.
			err := tr.Retune(RetuneRequest{MicrobatchSize: 16, Microbatches: 2})
			if err == nil {
				t.Fatal("over-capacity microbatch reshape accepted")
			}
			for _, want := range []string{"rejected by preflight verification", "counterexample"} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("rejection does not carry %q:\n%v", want, err)
				}
			}
			if tr.s != plan || tr.cfg.MicrobatchSize != 8 || tr.cfg.Microbatches != 4 {
				t.Fatalf("rejected retune touched the plan: %d×%d", tr.cfg.MicrobatchSize, tr.cfg.Microbatches)
			}
			// The trainer's own batch-product rule also rejects with
			// the plan untouched.
			if err := tr.Retune(RetuneRequest{MicrobatchSize: 3, Microbatches: 3}); err == nil ||
				!strings.Contains(err.Error(), "preserve the per-replica batch") {
				t.Fatalf("batch-product violation not rejected: %v", err)
			}
		}
		in, lb := blobs.ReplicaBatches(tr.Replicas(), cfg.Microbatches, cfg.MicrobatchSize, uint64(s))
		loss, err := tr.Step(in, lb)
		if err != nil {
			t.Fatal(err)
		}
		losses = append(losses, loss)
	}
	assertSameRun(t, a, tr, lossA, losses)
}
