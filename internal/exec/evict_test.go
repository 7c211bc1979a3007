package exec

import (
	"testing"

	"harmony/internal/claimword"
	"harmony/internal/data"
	"harmony/internal/memory"
	"harmony/internal/sched"
	"harmony/internal/tensor"
)

// ------------------------------------------- next-use eviction (unit)

// rankedVM fills a 3-page device with four 400-byte tensors' first
// three, in order, each ensured and unpinned, so the LRU order is
// ts[0], ts[1], ts[2]. No eviction oracle is installed yet.
func rankedVM(t *testing.T) (*VM, []*tensor.Tensor) {
	t.Helper()
	reg := tensor.NewRegistry()
	var ts []*tensor.Tensor
	for i, name := range []string{"a", "b", "c", "d"} {
		ts = append(ts, reg.New(name, tensor.Weight, 400, i, -1))
	}
	vm := NewVM(1, 1200, memory.Policy{DirtyTracking: true})
	for _, x := range ts {
		vm.HostAlloc(x)
	}
	for _, x := range ts[:3] {
		if _, err := vm.Ensure(0, x); err != nil {
			t.Fatal(err)
		}
		if err := vm.Unpin(x); err != nil {
			t.Fatal(err)
		}
	}
	return vm, ts
}

// victimOf runs one victim selection on device 0 as reserve does.
func victimOf(vm *VM) *tensor.Tensor {
	sh := vm.shards[0]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if b, _ := vm.victim(sh, false); b != nil {
		return b.t
	}
	return nil
}

func resident(t *testing.T, vm *VM, x *tensor.Tensor) bool {
	t.Helper()
	b, ok := vm.lookup(x.ID)
	return ok && b.load().Resident()
}

func TestVictimFarthestNextUseWins(t *testing.T) {
	vm, ts := rankedVM(t)
	vm.SetNextUse(func(dev, id int) int { return map[int]int{ts[0].ID: 5, ts[1].ID: 9, ts[2].ID: 1}[id] })
	if got := victimOf(vm); got != ts[1] {
		t.Fatalf("victim = %v, want the farthest-used %v", got, ts[1])
	}
	// The demand path evicts exactly that page.
	if _, err := vm.Ensure(0, ts[3]); err != nil {
		t.Fatal(err)
	}
	if resident(t, vm, ts[1]) || !resident(t, vm, ts[0]) || !resident(t, vm, ts[2]) {
		t.Fatal("Ensure evicted a page other than the farthest-used one")
	}
}

func TestVictimTiesFallBackToLRU(t *testing.T) {
	vm, ts := rankedVM(t)
	vm.SetNextUse(func(dev, id int) int { return map[int]int{ts[0].ID: 1, ts[1].ID: 7, ts[2].ID: 7}[id] })
	if got := victimOf(vm); got != ts[1] {
		t.Fatalf("victim = %v, want %v: the least recently used of the tied farthest", got, ts[1])
	}
	vm.SetNextUse(func(dev, id int) int { return 3 })
	if got := victimOf(vm); got != ts[0] {
		t.Fatalf("victim = %v, want the LRU head %v when every page ties", got, ts[0])
	}
}

func TestVictimWithoutOracleIsLRUHead(t *testing.T) {
	vm, ts := rankedVM(t)
	if got := victimOf(vm); got != ts[0] {
		t.Fatalf("victim = %v, want the LRU head %v", got, ts[0])
	}
	// A hit moves a page to the LRU tail.
	if _, err := vm.Ensure(0, ts[0]); err != nil {
		t.Fatal(err)
	}
	if err := vm.Unpin(ts[0]); err != nil {
		t.Fatal(err)
	}
	if got := victimOf(vm); got != ts[1] {
		t.Fatalf("victim = %v, want the new LRU head %v", got, ts[1])
	}
}

func TestVictimSkipsPinnedAndClaimed(t *testing.T) {
	vm, ts := rankedVM(t)
	vm.SetNextUse(func(dev, id int) int { return map[int]int{ts[0].ID: 9, ts[1].ID: 8, ts[2].ID: 1}[id] })
	// Pin the farthest page and claim the next one: only the nearest
	// page is left to evict.
	if _, err := vm.Ensure(0, ts[0]); err != nil {
		t.Fatal(err)
	}
	b1, _ := vm.lookup(ts[1].ID)
	if !vm.claim(b1, claimword.SwapOut, true, false, claimword.NeedUnpinned) {
		t.Fatal("could not claim b")
	}
	if got := victimOf(vm); got != ts[2] {
		t.Fatalf("victim = %v, want %v past the pinned and claimed pages", got, ts[2])
	}
	vm.settle(b1, true, 0)
	if err := vm.Unpin(ts[0]); err != nil {
		t.Fatal(err)
	}
	if got := victimOf(vm); got != ts[0] {
		t.Fatalf("victim = %v, want %v once released", got, ts[0])
	}
}

// TestVictimReportsInFlightWhenNothingEvictable: with every idle page
// pinned, the same scan names the in-flight page for reserve to wait
// on; once that operation settles, the page is the victim. Judging
// both from one scan closes the window in which a DMA settled between
// a victim scan and a separate in-flight scan, and reserve failed with
// "all pinned" beside an evictable page.
func TestVictimReportsInFlightWhenNothingEvictable(t *testing.T) {
	vm, ts := rankedVM(t)
	for _, x := range []*tensor.Tensor{ts[0], ts[2]} {
		if _, err := vm.Ensure(0, x); err != nil {
			t.Fatal(err)
		}
	}
	b1, _ := vm.lookup(ts[1].ID)
	if !vm.claim(b1, claimword.SwapOut, true, false, claimword.NeedUnpinned) {
		t.Fatal("could not claim b")
	}
	sh := vm.shards[0]
	sh.mu.Lock()
	victim, inFlight := vm.victim(sh, false)
	sh.mu.Unlock()
	if victim != nil || inFlight != b1 {
		t.Fatalf("victim, inFlight = %v, %v; want nil and the async claim on b", victim, inFlight)
	}
	vm.settle(b1, true, 0)
	if got := victimOf(vm); got != ts[1] {
		t.Fatalf("victim = %v, want %v once its DMA settled", got, ts[1])
	}
}

// TestVictimWrappedUseRanksLast drives the VM from a real schedule's
// use index: a weight whose last use this iteration is behind the
// cursor ranks after every page still used this iteration, and a
// tensor the queue never uses ranks after both.
func TestVictimWrappedUseRanksLast(t *testing.T) {
	cfg := trainerConfig(sched.HarmonyDP, 1)
	cfg.DeviceBytes = 1 << 20 // no pressure: only the ranking is under test
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	// Sit at layer 0's first backward: W[1]'s remaining uses are all
	// next iteration, W[0]'s are still ahead.
	pos := -1
	for i, task := range tr.s.Queues[0] {
		if task == tr.g.Bwd[0][0][0] {
			pos = i
		}
	}
	tr.cursors[0].Store(int64(pos))
	w0, w1 := tr.g.W[0][0], tr.g.W[0][1]
	n := len(tr.s.Queues[0])
	if d := tr.nextUse(0, w0.ID); d != 0 {
		t.Fatalf("W[0] used by the current task ranks %d, want 0", d)
	}
	d1 := tr.nextUse(0, w1.ID)
	if d1 < n-pos {
		t.Fatalf("W[1]'s wrapped use ranks %d, inside the current iteration (%d positions left)", d1, n-pos)
	}
	for _, x := range []*tensor.Tensor{tr.g.DW[0][0], tr.g.Stash[0][0][1]} {
		if d := tr.nextUse(0, x.ID); d >= d1 {
			t.Fatalf("%v used this iteration ranks %d, not before W[1]'s wrapped %d", x, d, d1)
		}
	}
	never := tr.g.Act[0][0][0].ID + 1<<20 // an ID the queue never uses
	if d := tr.nextUse(0, never); d <= d1 {
		t.Fatalf("unused tensor ranks %d, not after the wrapped use %d", d, d1)
	}
}

// TestCleanAheadFollowsVictimOrder: clean-ahead writes back the dirty
// page eviction would pick next, and nothing nearer than the page the
// last stall wrote back.
func TestCleanAheadFollowsVictimOrder(t *testing.T) {
	for _, c := range []struct {
		name string
		// cRank is c's rank once the stall has written b (rank 6) back.
		cRank     int
		wantClean bool
	}{
		{"nearer-than-stall", 4, false},
		{"farthest-dirty", 7, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			vm, ts := rankedVM(t)
			rank := map[int]int{ts[0].ID: 2, ts[1].ID: 6, ts[2].ID: 4, ts[3].ID: 1}
			vm.SetNextUse(func(dev, id int) int { return rank[id] })
			vm.StartEngine(0)
			defer vm.Close()
			for _, x := range ts[:3] {
				if _, err := vm.Ensure(0, x); err != nil {
					t.Fatal(err)
				}
				if err := vm.MarkDirty(x); err != nil {
					t.Fatal(err)
				}
				if err := vm.Unpin(x); err != nil {
					t.Fatal(err)
				}
			}
			// Stall: bringing d in writes back b, the farthest page.
			if _, err := vm.Ensure(0, ts[3]); err != nil {
				t.Fatal(err)
			}
			if err := vm.Unpin(ts[3]); err != nil {
				t.Fatal(err)
			}
			if resident(t, vm, ts[1]) {
				t.Fatal("the farthest dirty page was not the victim")
			}
			// a, the dirty LRU head, always ranks below the stall.
			rank[ts[2].ID] = c.cRank
			vm.CleanAhead(0, 1)
			if err := vm.WaitIdle(); err != nil {
				t.Fatal(err)
			}
			bc, _ := vm.lookup(ts[2].ID)
			ba, _ := vm.lookup(ts[0].ID)
			if cleaned := !bc.dirty.Load(); cleaned != c.wantClean || !ba.dirty.Load() {
				t.Fatalf("c cleaned = %v (want %v), a dirty = %v (want true); stats %+v",
					cleaned, c.wantClean, ba.dirty.Load(), vm.StatsSnapshot())
			}
		})
	}
}

// ------------------------------------------ next-use eviction (trainer)

// steadySwapIn returns the swap-in bytes per step, in MiB, averaged
// over steps 2..4 of a trainer without prefetch or a link model, so
// the volume reflects only the eviction policy.
func steadySwapIn(t *testing.T, cfg TrainerConfig) float64 {
	t.Helper()
	cfg.PrefetchDepth = -1
	cfg.LinkBytesPerSec = 0
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	blobs := data.NewBlobs(cfg.Widths[0], cfg.Widths[len(cfg.Widths)-1], 1, 7)
	const warm, steps = 2, 3
	var base VMStats
	for s := 0; s < warm+steps; s++ {
		if s == warm {
			base = tr.Stats()
		}
		in, lb := blobs.ReplicaBatches(tr.Replicas(), cfg.Microbatches, cfg.MicrobatchSize, uint64(s))
		if _, err := tr.Step(in, lb); err != nil {
			t.Fatal(err)
		}
	}
	return float64(tr.Stats().SwapInBytes-base.SwapInBytes) / steps / (1 << 20)
}

// TestNextUseEvictionTraffic pins the swap-in volume of the two swap
// workload shapes of the repository benchmark. Harmony-DP loops
// forward over the weights and backward over weights and gradients,
// LRU's worst case: LRU moved 4.10 MiB per step on the DP shape and
// 3.79 MiB on the pipeline shape.
func TestNextUseEvictionTraffic(t *testing.T) {
	for _, c := range []struct {
		name    string
		widths  []int
		mode    sched.Mode
		devices int
		maxMiB  float64
	}{
		{"harmony-dp-1dev", []int{256, 512, 512, 512, 10}, sched.HarmonyDP, 1, 2.6},
		{"harmony-pp-2dev", []int{256, 640, 640, 640, 10}, sched.HarmonyPP, 2, 2.3},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := steadySwapIn(t, TrainerConfig{
				Widths: c.widths, Mode: c.mode, Devices: c.devices,
				DeviceBytes: 4 << 20, MicrobatchSize: 1, Microbatches: 8,
				LR: 0.01, Seed: 1,
			})
			t.Logf("swap-in %.3f MiB/step", got)
			if got > c.maxMiB {
				t.Fatalf("swap-in %.3f MiB/step, want ≤ %.1f", got, c.maxMiB)
			}
		})
	}
}
