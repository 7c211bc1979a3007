package memory

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"harmony/internal/fault"
	"harmony/internal/hw"
	"harmony/internal/quickseed"
	"harmony/internal/sim"
	"harmony/internal/tensor"
)

// rig builds a 2-GPU box with the given per-GPU capacity and a
// registry the test fills in.
type rig struct {
	eng *sim.Engine
	top *hw.Topology
	reg *tensor.Registry
}

func newRig(t *testing.T, capacity int64) *rig {
	t.Helper()
	eng := sim.NewEngine()
	cfg := hw.Commodity1080TiBox(2)
	cfg.GPUMemBytes = capacity
	top, err := hw.NewBox(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{eng: eng, top: top, reg: tensor.NewRegistry()}
}

func (r *rig) run(t *testing.T, m *Manager) {
	t.Helper()
	if _, err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
}

func acquireSync(t *testing.T, m *Manager, dev hw.DeviceID, in, out []*tensor.Tensor, ws int64) *bool {
	t.Helper()
	done := new(bool)
	m.Acquire(dev, in, out, ws, func() { *done = true }, func(err error) { t.Errorf("acquire failed: %v", err) })
	return done
}

func TestAcquireSwapsInFromHost(t *testing.T) {
	r := newRig(t, 1000)
	w := r.reg.New("w", tensor.Weight, 400, 0, -1)
	m := New(r.eng, r.top, r.reg, Policy{})
	if err := m.InitHost(w); err != nil {
		t.Fatal(err)
	}
	done := acquireSync(t, m, 0, []*tensor.Tensor{w}, nil, 0)
	r.run(t, m)
	if !*done {
		t.Fatal("acquire never granted")
	}
	st := m.State(w)
	if !st.OnDevice(0) || st.Pins != 1 {
		t.Fatalf("state after acquire: loc=%s pins=%d", st.Loc, st.Pins)
	}
	s := m.Stats(0)
	if s.SwapInBytes != 400 || s.SwapIns != 1 {
		t.Fatalf("stats = %+v, want one 400B swap-in", s)
	}
	if m.Used(0) != 400 {
		t.Fatalf("used = %d", m.Used(0))
	}
}

func TestAcquireResidentIsInstant(t *testing.T) {
	r := newRig(t, 1000)
	w := r.reg.New("w", tensor.Weight, 400, 0, -1)
	m := New(r.eng, r.top, r.reg, Policy{})
	if err := m.InitHost(w); err != nil {
		t.Fatal(err)
	}
	acquireSync(t, m, 0, []*tensor.Tensor{w}, nil, 0)
	r.run(t, m)
	if err := m.Release(0, []*tensor.Tensor{w}, nil, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	tBefore := r.eng.Now()
	done := acquireSync(t, m, 0, []*tensor.Tensor{w}, nil, 0)
	if !*done {
		t.Fatal("re-acquire of resident tensor should grant synchronously")
	}
	r.run(t, m)
	if r.eng.Now() != tBefore {
		t.Fatal("re-acquire should consume no simulated time")
	}
	if s := m.Stats(0); s.SwapIns != 1 {
		t.Fatalf("swap-ins = %d, want 1 (no re-swap)", s.SwapIns)
	}
}

func TestEvictionWritebackWithoutDirtyTracking(t *testing.T) {
	r := newRig(t, 1000)
	a := r.reg.New("a", tensor.Weight, 600, 0, -1)
	b := r.reg.New("b", tensor.Weight, 600, 1, -1)
	m := New(r.eng, r.top, r.reg, Policy{}) // naive: always write back
	if err := m.InitHost(a, b); err != nil {
		t.Fatal(err)
	}
	acquireSync(t, m, 0, []*tensor.Tensor{a}, nil, 0)
	r.run(t, m)
	if err := m.Release(0, []*tensor.Tensor{a}, nil, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	// b doesn't fit alongside a: a must be evicted, and naive
	// virtualization writes it back even though it is clean.
	done := acquireSync(t, m, 0, []*tensor.Tensor{b}, nil, 0)
	r.run(t, m)
	if !*done {
		t.Fatal("acquire of b never granted")
	}
	s := m.Stats(0)
	if s.SwapOutBytes != 600 || s.SwapOuts != 1 {
		t.Fatalf("stats = %+v, want one 600B writeback", s)
	}
	if s.Drops != 0 {
		t.Fatal("naive policy must not drop")
	}
	if m.Used(0) != 600 {
		t.Fatalf("used = %d, want 600 (only b)", m.Used(0))
	}
}

func TestEvictionDropWithDirtyTracking(t *testing.T) {
	r := newRig(t, 1000)
	a := r.reg.New("a", tensor.Weight, 600, 0, -1)
	b := r.reg.New("b", tensor.Weight, 600, 1, -1)
	m := New(r.eng, r.top, r.reg, Policy{DirtyTracking: true})
	if err := m.InitHost(a, b); err != nil {
		t.Fatal(err)
	}
	acquireSync(t, m, 0, []*tensor.Tensor{a}, nil, 0)
	r.run(t, m)
	if err := m.Release(0, []*tensor.Tensor{a}, nil, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	done := acquireSync(t, m, 0, []*tensor.Tensor{b}, nil, 0)
	r.run(t, m)
	if !*done {
		t.Fatal("acquire of b never granted")
	}
	s := m.Stats(0)
	if s.SwapOuts != 0 {
		t.Fatalf("clean tensor was written back: %+v", s)
	}
	if s.DropBytes != 600 || s.Drops != 1 {
		t.Fatalf("stats = %+v, want one 600B drop", s)
	}
}

func TestDirtyTensorAlwaysWrittenBack(t *testing.T) {
	r := newRig(t, 1000)
	a := r.reg.New("a", tensor.Weight, 600, 0, -1)
	b := r.reg.New("b", tensor.Weight, 600, 1, -1)
	m := New(r.eng, r.top, r.reg, Policy{DirtyTracking: true})
	if err := m.InitHost(a, b); err != nil {
		t.Fatal(err)
	}
	acquireSync(t, m, 0, []*tensor.Tensor{a}, nil, 0)
	r.run(t, m)
	// Task mutated a (e.g. a weight update).
	if err := m.Release(0, []*tensor.Tensor{a}, nil, []*tensor.Tensor{a}, nil, 0); err != nil {
		t.Fatal(err)
	}
	acquireSync(t, m, 0, []*tensor.Tensor{b}, nil, 0)
	r.run(t, m)
	s := m.Stats(0)
	if s.SwapOutBytes != 600 {
		t.Fatalf("dirty eviction must write back: %+v", s)
	}
	if !m.State(a).HostValid() {
		t.Fatal("host copy should be valid after writeback")
	}
}

func TestLRUVictimSelection(t *testing.T) {
	r := newRig(t, 1000)
	a := r.reg.New("a", tensor.Weight, 400, 0, -1)
	b := r.reg.New("b", tensor.Weight, 400, 1, -1)
	c := r.reg.New("c", tensor.Weight, 400, 2, -1)
	m := New(r.eng, r.top, r.reg, Policy{DirtyTracking: true})
	if err := m.InitHost(a, b, c); err != nil {
		t.Fatal(err)
	}
	acquireSync(t, m, 0, []*tensor.Tensor{a, b}, nil, 0)
	r.run(t, m)
	if err := m.Release(0, []*tensor.Tensor{a, b}, nil, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	// Touch a by re-acquiring it; b becomes LRU.
	acquireSync(t, m, 0, []*tensor.Tensor{a}, nil, 0)
	r.run(t, m)
	if err := m.Release(0, []*tensor.Tensor{a}, nil, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	acquireSync(t, m, 0, []*tensor.Tensor{c}, nil, 0)
	r.run(t, m)
	if m.State(b).OnAnyDevice() {
		t.Fatal("b (LRU) should have been evicted")
	}
	if !m.State(a).OnDevice(0) {
		t.Fatal("a (recently used) should have survived")
	}
}

func TestP2PMigration(t *testing.T) {
	r := newRig(t, 1000)
	x := r.reg.New("x", tensor.Activation, 500, 0, 0)
	m := New(r.eng, r.top, r.reg, Policy{P2P: true, DirtyTracking: true})
	if err := m.InitHost(x); err != nil {
		t.Fatal(err)
	}
	acquireSync(t, m, 0, []*tensor.Tensor{x}, nil, 0)
	r.run(t, m)
	// Mark dirty (produced on gpu0) and release.
	if err := m.Release(0, []*tensor.Tensor{x}, nil, []*tensor.Tensor{x}, nil, 0); err != nil {
		t.Fatal(err)
	}
	done := acquireSync(t, m, 1, []*tensor.Tensor{x}, nil, 0)
	r.run(t, m)
	if !*done {
		t.Fatal("cross-device acquire never granted")
	}
	if !m.State(x).OnDevice(1) {
		t.Fatal("x should now be on gpu1")
	}
	s0, s1 := m.Stats(0), m.Stats(1)
	if s0.P2POutBytes != 500 || s1.P2PInBytes != 500 {
		t.Fatalf("p2p bytes: out=%d in=%d, want 500/500", s0.P2POutBytes, s1.P2PInBytes)
	}
	if s0.SwapOutBytes != 0 || s1.SwapInBytes > 500 {
		t.Fatalf("p2p move should not bounce through host: %+v %+v", s0, s1)
	}
	if m.Used(0) != 0 || m.Used(1) != 500 {
		t.Fatalf("used = %d/%d", m.Used(0), m.Used(1))
	}
}

func TestHostBounceWithoutP2P(t *testing.T) {
	r := newRig(t, 1000)
	x := r.reg.New("x", tensor.Activation, 500, 0, 0)
	m := New(r.eng, r.top, r.reg, Policy{P2P: false})
	if err := m.InitHost(x); err != nil {
		t.Fatal(err)
	}
	acquireSync(t, m, 0, []*tensor.Tensor{x}, nil, 0)
	r.run(t, m)
	if err := m.Release(0, []*tensor.Tensor{x}, nil, []*tensor.Tensor{x}, nil, 0); err != nil {
		t.Fatal(err)
	}
	done := acquireSync(t, m, 1, []*tensor.Tensor{x}, nil, 0)
	r.run(t, m)
	if !*done {
		t.Fatal("cross-device acquire never granted")
	}
	s0, s1 := m.Stats(0), m.Stats(1)
	if s0.SwapOutBytes != 500 {
		t.Fatalf("expected writeback from gpu0, got %+v", s0)
	}
	if s1.SwapInBytes != 500+500 && s1.SwapInBytes != 500 {
		// First swap-in (500) plus the bounce swap-in (500) — the
		// initial acquire counted on gpu0, so gpu1 sees exactly 500.
		t.Fatalf("expected swap-in on gpu1, got %+v", s1)
	}
	if s0.P2POutBytes != 0 && s1.P2PInBytes != 0 {
		t.Fatal("p2p used despite being disabled")
	}
}

func TestOutputsAndWorkspace(t *testing.T) {
	r := newRig(t, 1000)
	in := r.reg.New("in", tensor.Activation, 300, 0, 0)
	out := r.reg.New("out", tensor.Activation, 300, 1, 0)
	m := New(r.eng, r.top, r.reg, Policy{})
	if err := m.InitHost(in); err != nil {
		t.Fatal(err)
	}
	done := acquireSync(t, m, 0, []*tensor.Tensor{in}, []*tensor.Tensor{out}, 200)
	r.run(t, m)
	if !*done {
		t.Fatal("not granted")
	}
	if !m.State(out).OnDevice(0) || !m.State(out).Dirty() {
		t.Fatal("output should be device-allocated and dirty")
	}
	if m.Used(0) != 600 {
		t.Fatalf("used = %d, want 600", m.Used(0))
	}
	// Free the input (its last use), keep the output.
	if err := m.Release(0, []*tensor.Tensor{in}, []*tensor.Tensor{out}, nil, []*tensor.Tensor{in}, 200); err != nil {
		t.Fatal(err)
	}
	if m.Used(0) != 300 {
		t.Fatalf("used after release = %d, want 300", m.Used(0))
	}
	if m.State(in).Loc != tensor.LocNone {
		t.Fatal("freed input should be gone")
	}
}

func TestInfeasibleTaskFails(t *testing.T) {
	r := newRig(t, 1000)
	big := r.reg.New("big", tensor.Weight, 2000, 0, -1)
	m := New(r.eng, r.top, r.reg, Policy{})
	if err := m.InitHost(big); err != nil {
		t.Fatal(err)
	}
	var failed error
	m.Acquire(0, []*tensor.Tensor{big}, nil, 0, func() { t.Error("granted impossible acquire") },
		func(err error) { failed = err })
	if failed == nil {
		t.Fatal("expected synchronous feasibility failure")
	}
}

func TestUnmaterializedInputFails(t *testing.T) {
	r := newRig(t, 1000)
	ghost := r.reg.New("ghost", tensor.Activation, 100, 0, 0)
	m := New(r.eng, r.top, r.reg, Policy{})
	var failed error
	m.Acquire(0, []*tensor.Tensor{ghost}, nil, 0, func() { t.Error("granted") }, func(err error) { failed = err })
	if _, err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if failed == nil {
		t.Fatal("expected failure for never-materialized input")
	}
}

func TestPrefetch(t *testing.T) {
	r := newRig(t, 1000)
	w := r.reg.New("w", tensor.Weight, 400, 0, -1)
	big := r.reg.New("big", tensor.Weight, 900, 1, -1)
	m := New(r.eng, r.top, r.reg, Policy{})
	if err := m.InitHost(w, big); err != nil {
		t.Fatal(err)
	}
	m.Prefetch(0, w)
	r.run(t, m)
	if !m.State(w).OnDevice(0) {
		t.Fatal("prefetch should have landed")
	}
	// No room for big without eviction: prefetch must do nothing.
	m.Prefetch(0, big)
	r.run(t, m)
	if m.State(big).OnAnyDevice() {
		t.Fatal("prefetch must never evict")
	}
	// Acquire of a prefetched (unpinned, clean) tensor is free.
	done := acquireSync(t, m, 0, []*tensor.Tensor{w}, nil, 0)
	if !*done {
		t.Fatal("acquire of prefetched tensor should be instant")
	}
}

func TestDemandAccounting(t *testing.T) {
	r := newRig(t, 1000)
	a := r.reg.New("a", tensor.Weight, 800, 0, -1)
	b := r.reg.New("b", tensor.Weight, 800, 1, -1)
	m := New(r.eng, r.top, r.reg, Policy{})
	if err := m.InitHost(a, b); err != nil {
		t.Fatal(err)
	}
	acquireSync(t, m, 0, []*tensor.Tensor{a}, nil, 0)
	r.run(t, m)
	if err := m.Release(0, []*tensor.Tensor{a}, nil, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	acquireSync(t, m, 0, []*tensor.Tensor{b}, nil, 0)
	r.run(t, m)
	// Both tensors belong to gpu0's working set even though only one
	// fits: demand (1600) exceeds capacity (1000) — the Fig. 2(c)
	// "memory usage above capacity" signal.
	if got := m.Stats(0).HighWaterDemand; got != 1600 {
		t.Fatalf("HighWaterDemand = %d, want 1600", got)
	}
	if got := m.Stats(0).HighWaterUsed; got > 1000 {
		t.Fatalf("HighWaterUsed = %d exceeds capacity", got)
	}
}

func TestLookaheadEvictionPicksFarthestUse(t *testing.T) {
	r := newRig(t, 1000)
	a := r.reg.New("a", tensor.Weight, 400, 0, -1)
	b := r.reg.New("b", tensor.Weight, 400, 1, -1)
	c := r.reg.New("c", tensor.Weight, 400, 2, -1)
	m := New(r.eng, r.top, r.reg, Policy{DirtyTracking: true, Lookahead: true})
	// Oracle: a is needed soon (position 1), b much later (position
	// 99). LRU would evict a (older); lookahead must evict b.
	m.NextUse = func(id int, dev hw.DeviceID) int {
		switch id {
		case a.ID:
			return 1
		case b.ID:
			return 99
		}
		return 1 << 30
	}
	if err := m.InitHost(a, b, c); err != nil {
		t.Fatal(err)
	}
	acquireSync(t, m, 0, []*tensor.Tensor{a}, nil, 0)
	r.run(t, m)
	if err := m.Release(0, []*tensor.Tensor{a}, nil, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	acquireSync(t, m, 0, []*tensor.Tensor{b}, nil, 0)
	r.run(t, m)
	if err := m.Release(0, []*tensor.Tensor{b}, nil, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	// Pressure: c needs a slot; a is LRU but needed sooner.
	acquireSync(t, m, 0, []*tensor.Tensor{c}, nil, 0)
	r.run(t, m)
	if m.State(b).OnAnyDevice() {
		t.Fatal("lookahead should have evicted b (farthest next use)")
	}
	if !m.State(a).OnDevice(0) {
		t.Fatal("a (needed soon) should have survived")
	}
}

func TestLookaheadFallsBackToLRUWithoutOracle(t *testing.T) {
	r := newRig(t, 1000)
	a := r.reg.New("a", tensor.Weight, 600, 0, -1)
	b := r.reg.New("b", tensor.Weight, 600, 1, -1)
	m := New(r.eng, r.top, r.reg, Policy{DirtyTracking: true, Lookahead: true})
	// No NextUse installed: plain LRU must still work.
	if err := m.InitHost(a, b); err != nil {
		t.Fatal(err)
	}
	acquireSync(t, m, 0, []*tensor.Tensor{a}, nil, 0)
	r.run(t, m)
	if err := m.Release(0, []*tensor.Tensor{a}, nil, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	acquireSync(t, m, 0, []*tensor.Tensor{b}, nil, 0)
	r.run(t, m)
	if m.State(a).OnAnyDevice() {
		t.Fatal("LRU fallback should have evicted a")
	}
}

// randomWorkload runs a random but legal sequence of acquires and
// releases and reports whether the manager's core invariants held —
// usage never exceeds capacity, accounting matches residency, and
// every request eventually completes.
func randomWorkload(t *testing.T, seed int64, opsRaw uint8, dirty, p2p bool) bool {
	rng := rand.New(rand.NewSource(seed))
	eng := sim.NewEngine()
	// A few dozen ops need a few hundred events; a bound turns a
	// livelock (a tensor bounced between devices for ever) into a
	// failed run instead of a hung test.
	eng.Limit = 1 << 16
	cfg := hw.Commodity1080TiBox(2)
	cfg.GPUMemBytes = 2000
	top, err := hw.NewBox(eng, cfg)
	if err != nil {
		return false
	}
	reg := tensor.NewRegistry()
	var tensors []*tensor.Tensor
	for i := 0; i < 6; i++ {
		tensors = append(tensors, reg.New(fmt.Sprintf("t%d", i), tensor.Weight, int64(200+rng.Intn(400)), i, -1))
	}
	m := New(eng, top, reg, Policy{DirtyTracking: dirty, P2P: p2p})
	if err := m.InitHost(tensors...); err != nil {
		return false
	}
	type held struct {
		dev hw.DeviceID
		t   *tensor.Tensor
		mut bool
	}
	var holds []held
	granted := 0
	wanted := 0
	ops := int(opsRaw%30) + 5
	for i := 0; i < ops; i++ {
		if len(holds) > 0 && rng.Intn(2) == 0 {
			// Release a random hold.
			k := rng.Intn(len(holds))
			h := holds[k]
			holds = append(holds[:k], holds[k+1:]...)
			var muts []*tensor.Tensor
			if h.mut {
				muts = []*tensor.Tensor{h.t}
			}
			if err := m.Release(h.dev, []*tensor.Tensor{h.t}, nil, muts, nil, 0); err != nil {
				t.Logf("release: %v", err)
				return false
			}
			continue
		}
		// Acquire a tensor not currently held (holding the same
		// tensor twice on different devices would deadlock by
		// design — a task conflict the scheduler never creates).
		// A tensor with a still-pending acquire is fair game: the
		// new acquire may win it, and the pending one must get it
		// once it is released.
		cand := tensors[rng.Intn(len(tensors))]
		conflict := false
		for _, h := range holds {
			if h.t == cand {
				conflict = true
				break
			}
		}
		if conflict {
			continue
		}
		dev := hw.DeviceID(rng.Intn(2))
		mut := rng.Intn(2) == 0
		wanted++
		h := held{dev: dev, t: cand, mut: mut}
		m.Acquire(dev, []*tensor.Tensor{cand}, nil, 0, func() {
			granted++
			holds = append(holds, h)
		}, func(err error) {
			t.Logf("acquire failed: %v", err)
		})
		if _, err := eng.Run(); err != nil {
			t.Logf("engine: %v", err)
			return false
		}
		if m.Err() != nil {
			t.Logf("fatal: %v", m.Err())
			return false
		}
		// Invariants after every settled step.
		for d := 0; d < 2; d++ {
			var resident int64
			for _, tt := range tensors {
				st := m.State(tt)
				if st.OnDevice(hw.DeviceID(d)) && !st.InFlight {
					resident += tt.Bytes
				}
			}
			if used := m.Used(hw.DeviceID(d)); used > cfg.GPUMemBytes {
				t.Logf("device %d over capacity: %d", d, used)
				return false
			} else if used != resident {
				t.Logf("device %d used=%d but resident=%d", d, used, resident)
				return false
			}
		}
	}
	// Drain outstanding work.
	for _, h := range holds {
		var muts []*tensor.Tensor
		if h.mut {
			muts = []*tensor.Tensor{h.t}
		}
		if err := m.Release(h.dev, []*tensor.Tensor{h.t}, nil, muts, nil, 0); err != nil {
			return false
		}
	}
	if _, err := eng.Run(); err != nil {
		t.Logf("engine: %v", err)
		return false
	}
	if granted != wanted {
		t.Logf("%d of %d acquires granted after the final drain", granted, wanted)
	}
	return granted == wanted && m.Err() == nil
}

// Fuzz-style property test over randomWorkload.
func TestManagerRandomWorkloadInvariants(t *testing.T) {
	f := func(seed int64, opsRaw uint8, dirty, p2p bool) bool {
		return randomWorkload(t, seed, opsRaw, dirty, p2p)
	}
	if err := quick.Check(f, quickseed.Config(t, 60)); err != nil {
		t.Fatal(err)
	}
}

// TestManagerRandomWorkloadRegression replays inputs that once
// failed. In stale-p2p-pending, an acquire of t2 on gpu1 waits behind
// a full device while gpu0 acquires of t2 are granted; when gpu0
// releases it the gpu1 acquire migrates t2 over p2p, but gpu0's next
// acquire of t2 takes it back before gpu1 pins it. The gpu1 acquire
// kept a stale "transfer pending" mark after its migration landed,
// ignored t2 for ever, and was the one request left ungranted after
// the final drain. In host-bounce-livelock, two acquires bounced one
// tensor between their devices through the host until the engine's
// event limit, because whichever device pumped first took the tensor
// before the acquire whose transfer brought it could pin it. Both pass
// once a landed transfer is pinned for its acquire at once
// (Manager.claimLanded).
func TestManagerRandomWorkloadRegression(t *testing.T) {
	for _, tc := range []struct {
		name       string
		seed       int64
		opsRaw     uint8
		dirty, p2p bool
	}{
		{"stale-p2p-pending", 6286075284190219184, 0x2d, false, true},
		{"host-bounce-livelock", 1789, 0x19, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if !randomWorkload(t, tc.seed, tc.opsRaw, tc.dirty, tc.p2p) {
				t.Fatalf("invariants violated for (%d, %#x, dirty=%v, p2p=%v)", tc.seed, tc.opsRaw, tc.dirty, tc.p2p)
			}
		})
	}
}

// --------------------------------------------------- fault injection

// TestTransientSwapFaultRetriesAndSucceeds arms the manager with two
// transient swap-in faults and checks the acquire still lands — just
// later in simulated time — with the retries counted.
func TestTransientSwapFaultRetriesAndSucceeds(t *testing.T) {
	r := newRig(t, 1000)
	w := r.reg.New("w", tensor.Weight, 400, 0, -1)
	m := New(r.eng, r.top, r.reg, Policy{})
	inj := fault.New(1, fault.Rule{Op: fault.SwapIn, Dev: -1, Layer: -1, Count: 2})
	m.SetFaultInjection(inj, 3)
	if err := m.InitHost(w); err != nil {
		t.Fatal(err)
	}
	done := acquireSync(t, m, 0, []*tensor.Tensor{w}, nil, 0)
	r.run(t, m)
	if !*done {
		t.Fatal("acquire never granted despite retries")
	}
	if got := m.Retries(); got != 2 {
		t.Fatalf("retries = %d, want 2", got)
	}
	if inj, ret := inj.Stats(); inj != 2 || ret != 2 {
		t.Fatalf("injector stats = %d faults, %d retries", inj, ret)
	}
	// The retry backoff pushed completion later than a clean run.
	if r.eng.Now() == 0 {
		t.Fatal("simulated clock did not advance")
	}
}

// TestTransientFaultExhaustsRetriesAndPoisons checks that a transient
// fault outlasting the retry budget surfaces through Err instead of
// hanging the acquire.
func TestTransientFaultExhaustsRetriesAndPoisons(t *testing.T) {
	r := newRig(t, 1000)
	w := r.reg.New("w", tensor.Weight, 400, 0, -1)
	m := New(r.eng, r.top, r.reg, Policy{})
	m.SetFaultInjection(fault.New(1, fault.Rule{Op: fault.SwapIn, Dev: -1, Layer: -1, Count: 0}), 2)
	if err := m.InitHost(w); err != nil {
		t.Fatal(err)
	}
	granted := false
	m.Acquire(0, []*tensor.Tensor{w}, nil, 0, func() { granted = true }, func(err error) {
		t.Errorf("acquire fail callback: %v", err)
	})
	if _, err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if granted {
		t.Fatal("acquire granted despite unrecoverable fault")
	}
	if err := m.Err(); err == nil || !fault.IsTransient(err) {
		t.Fatalf("Err() = %v, want the injected transient fault", err)
	}
}

// TestFatalSwapFaultPoisonsRun checks fatal faults bypass the retry
// layer entirely.
func TestFatalSwapFaultPoisonsRun(t *testing.T) {
	r := newRig(t, 1000)
	w := r.reg.New("w", tensor.Weight, 400, 0, -1)
	m := New(r.eng, r.top, r.reg, Policy{})
	m.SetFaultInjection(fault.New(1, fault.Rule{Op: fault.SwapIn, Mode: fault.Fatal, Dev: 0, Layer: -1, Count: 1}), 5)
	if err := m.InitHost(w); err != nil {
		t.Fatal(err)
	}
	m.Acquire(0, []*tensor.Tensor{w}, nil, 0, func() {
		t.Error("acquire granted past a fatal fault")
	}, func(err error) {})
	if _, err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Retries() != 0 {
		t.Fatalf("retries = %d, want 0 for a fatal fault", m.Retries())
	}
	if dev, ok := fault.AsFatal(m.Err()); !ok || dev != 0 {
		t.Fatalf("Err() = %v, want fatal on dev 0", m.Err())
	}
}
