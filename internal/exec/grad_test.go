package exec

import (
	"testing"

	"harmony/internal/data"
	"harmony/internal/nn"
	"harmony/internal/sched"
	"harmony/internal/tensor"
)

// TestResetGradientsNeverCrossTheLink: weight gradients are step-local.
// The update frees dW and the next step's first backward allocates it
// zero-filled on its device, so a reset gradient is never written back
// or swapped in. Each case runs a device size at which W or K still
// swaps every step but the step's live gradients fit (with persistent
// gradients every case moved dW each step), and checks that in steady
// state dW moves no bytes either way, that no dW buffer survives a
// step boundary, and that losses and weights stay bit-identical to the
// serial executor on unconstrained devices.
func TestResetGradientsNeverCrossTheLink(t *testing.T) {
	mlp := []int{32, 64, 64, 64, 8}
	conv := []nn.Kernel{
		nn.Conv2D{Cin: 1, H: 12, W: 12, Cout: 6, K: 3, ReLU: true},
		nn.MaxPool2D{C: 6, H: 10, W: 10, P: 2},
		nn.Dense{In: 6 * 5 * 5, Out: 32, ReLU: true},
		nn.Dense{In: 32, Out: 4},
	}
	for _, c := range []struct {
		name         string
		kernels      []nn.Kernel // nil: the dense stack mlp
		mode         sched.Mode
		devices      int
		opt          Optimizer
		microbatches int
		kib          int64
	}{
		{"harmony-dp-1dev-sgd", nil, sched.HarmonyDP, 1, SGD, 4, 64},
		{"harmony-dp-1dev-adam", nil, sched.HarmonyDP, 1, Adam, 4, 96},
		{"harmony-pp-2dev-sgd", nil, sched.HarmonyPP, 2, SGD, 4, 40},
		{"harmony-pp-2dev-adam", nil, sched.HarmonyPP, 2, Adam, 4, 80},
		{"dp-baseline-2dev-sgd", nil, sched.DPBaseline, 2, SGD, 1, 86},
		{"dp-baseline-2dev-adam", nil, sched.DPBaseline, 2, Adam, 4, 112},
		{"conv-pool-sgd", conv, sched.HarmonyDP, 1, SGD, 2, 56},
		{"conv-pool-adam", conv, sched.HarmonyDP, 1, Adam, 2, 96},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := TrainerConfig{
				Widths: mlp, Kernels: c.kernels, Mode: c.mode, Devices: c.devices,
				DeviceBytes: c.kib << 10, MicrobatchSize: 4, Microbatches: c.microbatches,
				Optimizer: c.opt, LR: 0.05, Seed: 5,
			}
			ref := cfg
			ref.Serial = true
			ref.DeviceBytes = 64 << 20
			tr, losses, base := runGradCase(t, cfg)
			defer tr.Close()
			want, wantLosses, _ := runGradCase(t, ref)

			st := tr.Stats()
			dwIn := st.SwapInBytesByKind[tensor.WeightGrad] - base.SwapInBytesByKind[tensor.WeightGrad]
			dwOut := st.SwapOutBytesByKind[tensor.WeightGrad] - base.SwapOutBytesByKind[tensor.WeightGrad]
			if dwIn != 0 || dwOut != 0 {
				t.Errorf("steady state moved dW: %d bytes in, %d out", dwIn, dwOut)
			}
			var pressure int64
			for _, k := range []tensor.Kind{tensor.Weight, tensor.OptState} {
				pressure += st.SwapInBytesByKind[k] - base.SwapInBytesByKind[k]
			}
			if pressure == 0 {
				t.Errorf("no W or K swapped in steady state at %d KiB: the case is not under pressure", c.kib)
			}

			for s := range wantLosses {
				if losses[s] != wantLosses[s] {
					t.Fatalf("step %d loss %v, serial reference %v", s, losses[s], wantLosses[s])
				}
			}
			for r := 0; r < tr.Replicas(); r++ {
				for l := range tr.layers {
					got, err := tr.vm.Host(tr.g.W[r][l])
					if err != nil {
						t.Fatal(err)
					}
					ref, err := want.vm.Host(want.g.W[r][l])
					if err != nil {
						t.Fatal(err)
					}
					for i := range ref {
						if got[i] != ref[i] {
							t.Fatalf("replica %d layer %d weight %d: %v, serial reference %v", r, l, i, got[i], ref[i])
						}
					}
				}
			}
		})
	}
}

// runGradCase trains cfg for four steps, failing if a dW buffer
// survives any step boundary. It returns the per-step losses and the
// stats after the first step, the start of the steady state.
func runGradCase(t *testing.T, cfg TrainerConfig) (*Trainer, []float32, VMStats) {
	t.Helper()
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	blobs := data.NewBlobs(tr.inDim, tr.classes, 0.5, 7)
	var losses []float32
	var base VMStats
	for s := 0; s < 4; s++ {
		if s == 1 {
			base = tr.Stats()
		}
		in, lb := blobs.ReplicaBatches(tr.Replicas(), cfg.Microbatches, cfg.MicrobatchSize, uint64(s))
		loss, err := tr.Step(in, lb)
		if err != nil {
			t.Fatal(err)
		}
		losses = append(losses, loss)
		for r := range tr.g.DW {
			for _, dw := range tr.g.DW[r] {
				if _, ok := tr.vm.lookup(dw.ID); ok {
					t.Fatalf("step %d: %v still has a buffer at the step boundary", s, dw)
				}
			}
		}
	}
	return tr, losses, base
}
