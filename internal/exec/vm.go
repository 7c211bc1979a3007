// Package exec is Harmony's real-execution runtime: it trains actual
// models (internal/nn kernels, real float32 data) under the same task
// graphs and schedules as the simulator, but on capacity-limited
// *virtual devices* whose memories form a coherent virtual memory
// backed by host buffers. Swaps are real memcpys; capacity limits are
// enforced exactly; eviction follows the schedule's next use (LRU
// without an oracle) with the same dirty-tracking and p2p policies as
// the simulated memory manager.
//
// This is the proof that the paper's design trains models end to end:
// the quickstart and mnist examples push a model whose footprint
// exceeds per-device capacity through Harmony scheduling and verify
// the loss decreases.
package exec

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"harmony/internal/claimword"
	"harmony/internal/fault"
	"harmony/internal/memory"
	"harmony/internal/tensor"
	"harmony/internal/trace"
)

// VMStats counts real data movement and fault handling.
type VMStats struct {
	SwapInBytes  int64
	SwapOutBytes int64
	DropBytes    int64
	P2PBytes     int64
	SwapIns      int
	SwapOuts     int
	Drops        int
	P2PMoves     int
	// FaultsInjected counts injected transfer faults observed by this
	// VM; Retries counts the re-attempts the retry layer issued for
	// them (successful retries leave FaultsInjected > Retries only
	// when a fault was fatal or retries were exhausted).
	FaultsInjected int
	Retries        int
	// Prefetch/overlap counters (see EnsureAsync / CleanAhead).
	// PrefetchIssued counts async swap-ins handed to the DMA engine;
	// PrefetchHits counts Ensure calls that found their tensor already
	// resident (or in flight) thanks to a prefetch; CleanAheads counts
	// proactive write-backs; AsyncDMANanos is wall time the DMA
	// workers spent copying or on the modeled link — divide by step
	// wall time for the compute/swap overlap fraction.
	PrefetchIssued int
	PrefetchHits   int
	CleanAheads    int
	AsyncDMANanos  int64
}

// add accumulates counters (used to carry stats across the VM rebuild
// a recovery performs, and to sum per-shard counters).
func (s VMStats) add(o VMStats) VMStats {
	s.SwapInBytes += o.SwapInBytes
	s.SwapOutBytes += o.SwapOutBytes
	s.DropBytes += o.DropBytes
	s.P2PBytes += o.P2PBytes
	s.SwapIns += o.SwapIns
	s.SwapOuts += o.SwapOuts
	s.Drops += o.Drops
	s.P2PMoves += o.P2PMoves
	s.FaultsInjected += o.FaultsInjected
	s.Retries += o.Retries
	s.PrefetchIssued += o.PrefetchIssued
	s.PrefetchHits += o.PrefetchHits
	s.CleanAheads += o.CleanAheads
	s.AsyncDMANanos += o.AsyncDMANanos
	return s
}

// buffer is one tensor's VM state. Concurrency splits its fields into
// three ownership domains:
//
//   - word/done: the packed atomic claim word (internal/claimword) and
//     the claim's wakeup channel. Mutated only by the state-machine
//     helpers in dma.go (claim/commit/settle/pin/unpin/
//     consumePrefetch), only via CAS — the claimdiscipline analyzer
//     enforces this.
//   - dev, devID, host, dirty: owned by the claim holder. Claims
//     require idleness and (except snapshot write-backs) zero pins, so
//     a successful claim CAS excludes every other writer; lock-free
//     readers first observe an idle word via an atomic load, which
//     happens-after the settle that published the fields. dirty is
//     atomic because pin holders (MarkDirty) write it while shard
//     scans (CleanAhead, victim selection) read it. devID is atomic
//     because Ensure and EnsureAsync read it speculatively after that
//     load, racing a claimer's write, and re-check it once pinned or
//     under the shard lock.
//   - last, prev, next: LRU bookkeeping, guarded by the owning
//     device's shard mutex. A buffer is linked iff its word is
//     resident-idle or claimed-resident; unlinking happens only under
//     the shard lock while holding the claim.
type buffer struct {
	t     *tensor.Tensor
	host  []float32    // backing copy; nil until first host materialization
	dev   []float32    // device copy; nil when not resident
	devID atomic.Int32 // resident device; -1 when not resident
	dirty atomic.Bool  // device copy newer than host copy

	// word is the packed DMA/residency/pin state machine; done points
	// to the current claim's wakeup channel, closed at settle. done is
	// published by the claim winner right after its CAS, so waiters
	// that observe a claimed word with a nil done simply yield and
	// re-observe.
	word atomic.Uint64
	done atomic.Pointer[chan struct{}]

	last int64 // LRU clock (diagnostics; ordering lives in the list)

	// Intrusive per-shard LRU list (least-recent at head).
	prev, next *buffer
}

func newBuffer(t *tensor.Tensor) *buffer {
	b := &buffer{t: t}
	b.setDevice(-1)
	return b
}

func (b *buffer) floats() int { return int(b.t.Bytes / 4) }

// device returns the device b is resident on, -1 if none.
func (b *buffer) device() int { return int(b.devID.Load()) }

func (b *buffer) setDevice(dev int) { b.devID.Store(int32(dev)) }

// load atomically observes b's claim word.
func (b *buffer) load() claimword.Word { return claimword.Word(b.word.Load()) }

// lruList is one device's residency list, least-recently-used first.
type lruList struct{ head, tail *buffer }

// vmShard is one device's slice of the VM: capacity accounting, LRU
// order, prefetched bytes, DMA queue and movement stats, guarded by
// its own mutex so devices never contend with each other on the swap
// hot path.
type vmShard struct {
	mu sync.Mutex

	dev     int
	used    int64
	lru     lruList
	clock   int64
	pfBytes int64 // prefetched bytes in flight or resident-unconsumed; capped by VM.budget
	stats   VMStats
	queue   []dmaReq
	work    *sync.Cond // signaled when queue grows or the VM closes
	// syncOuts counts synchronous write-backs (eviction or Host
	// stalls) on this device; cleanSeen is its value at the last
	// CleanAhead batch. Clean-ahead only arms after a new stall, so
	// workloads whose evictions are all drops never pay write-back
	// link traffic.
	syncOuts  int
	cleanSeen int
	// lastOut is the tensor ID of the last eviction victim written
	// back synchronously (-1 before the first); CleanAhead cleans
	// nothing nearer than it.
	lastOut int
}

// VM is a coherent virtual memory across virtual devices.
//
// Locking discipline (DESIGN.md §12): the hot path is sharded by
// device. Each vmShard's mutex guards only that device's accounting —
// used bytes, LRU order, prefetched bytes, DMA queue and stats.
// Per-buffer state (residency, pins, claim) lives in a packed atomic
// claim word driven by CAS (internal/claimword), so demand Ensure,
// prefetch EnsureAsync, eviction and DMA completion on different
// devices never touch a common lock. Copy execution (memcpy, modeled
// link time, fault-retry backoff) always runs with no shard lock
// held, under a buffer claim.
//
// Shard acquisition order: no code path holds two shard locks at
// once. Cross-device operations (p2p moves, multi-device sweeps like
// StatsSnapshot, Close and checkpoint save/load) visit shards one at
// a time in ascending device order; p2p reserves and charges the
// destination shard, releases it, and only then touches the source.
// Any future path that must nest shard locks must acquire them in
// ascending vmShard.dev order and say so in its doc comment (the
// lockhold analyzer checks the declaration).
//
// Deadlock discipline: synchronous paths may wait on waitable claims
// (async DMA-worker operations and committed sync claims), which
// always complete autonomously; eviction never waits on an
// uncommitted sync claim — the claimer may itself be waiting to
// reserve. Claims on resident buffers set async or committed in the
// claim CAS itself, so no observer ever sees a resident
// claimed-unwaitable buffer (the schedcheck DMA model proves this
// over all interleavings). DMA workers never wait on anything but
// their queue.
type VM struct {
	capacity int64
	pol      memory.Policy
	shards   []*vmShard

	// bufMu guards the tensor-ID → buffer map (and host backing
	// materialization, which happens at setup time); buffer state is
	// in the claim word, not here.
	bufMu sync.RWMutex
	bufs  map[int]*buffer

	// clk sources every wall-clock timestamp the VM records (DMA
	// spans, overlap counters). Immutable after NewVM; reading time
	// through an injectable Clock keeps recording off the
	// deterministic path (enforced by the determinism analyzer).
	clk trace.Clock

	// nextUse, when non-nil, ranks eviction candidates (SetNextUse).
	// Immutable once the VM is shared between goroutines.
	nextUse func(dev, id int) int

	// Async DMA engine (StartEngine). engOn flips once when the
	// engine starts; closed once at Close. pending counts queued or
	// in-flight async requests; the worker that drops it to zero
	// broadcasts idle under engMu, and WaitIdle holds engMu between
	// its check and its wait, so wakeups are never lost. budget is
	// immutable after StartEngine (published by engOn).
	engOn    atomic.Bool
	closed   atomic.Bool
	pending  atomic.Int64
	engMu    sync.Mutex
	idle     *sync.Cond // on engMu
	started  bool       // under engMu
	asyncErr error      // under engMu: first fatal fault on a DMA worker
	budget   int64      // per-device cap on pfBytes
	wg       sync.WaitGroup

	// cfgMu guards the injectable knobs below; they are read at most
	// once per transfer, off the hot path.
	cfgMu sync.Mutex
	// bytesPerSec models host-link bandwidth: every swap/p2p copy
	// additionally sleeps bytes/bytesPerSec (outside any lock), so
	// swap cost behaves like a real PCIe transfer instead of a
	// memcpy. 0 disables modeling.
	bytesPerSec int64
	// rec, when non-nil, receives wall-clock DMA spans (outside any
	// lock) for the swap-overlap Gantt lanes.
	rec func(dev int, lane trace.Lane, label string, start, end time.Time)
	// Fault injection (SetFaultInjection): inj decides whether a
	// swap-in, swap-out or p2p copy about to run fails; transient
	// failures are retried up to maxRetries times with fault.Backoff
	// between attempts. Backoff sleeps run outside all locks — a
	// stalled transfer stalls only its own buffer's waiters, never
	// the other devices.
	inj        *fault.Injector
	maxRetries int
	stepFn     func() int // current trainer step for fault site identity
}

// NewVM creates n virtual devices with the given per-device capacity.
func NewVM(devices int, capacityBytes int64, pol memory.Policy) *VM {
	if devices <= 0 || capacityBytes <= 0 {
		panic(fmt.Sprintf("exec: bad VM shape devices=%d capacity=%d", devices, capacityBytes))
	}
	vm := &VM{
		capacity: capacityBytes,
		pol:      pol,
		shards:   make([]*vmShard, devices),
		bufs:     make(map[int]*buffer),
		clk:      trace.WallClock{},
	}
	for d := range vm.shards {
		sh := &vmShard{dev: d, cleanSeen: -1, lastOut: -1} // first CleanAhead may act before any stall
		sh.work = sync.NewCond(&sh.mu)
		vm.shards[d] = sh
	}
	vm.idle = sync.NewCond(&vm.engMu)
	return vm
}

// SetFaultInjection arms the VM with a fault injector. stepFn reports
// the current trainer step (called without any VM lock held; it must
// not call back into the VM). Passing a nil injector disarms.
func (vm *VM) SetFaultInjection(inj *fault.Injector, maxRetries int, stepFn func() int) {
	vm.cfgMu.Lock()
	defer vm.cfgMu.Unlock()
	vm.inj = inj
	vm.maxRetries = maxRetries
	vm.stepFn = stepFn
}

// SetNextUse installs the eviction oracle: fn(dev, id) reports how
// far ahead tensor id is next used on device dev, larger meaning
// later. Eviction and clean-ahead then pick the farthest-used page
// first instead of the least recently used one. fn runs under a shard
// lock, so it must not block or call back into the VM. Call it before
// the VM is shared between goroutines; nil restores plain LRU.
func (vm *VM) SetNextUse(fn func(dev, id int) int) { vm.nextUse = fn }

// SetLinkBandwidth models host-link bandwidth for all transfers
// (0 disables; copies cost only their memcpy time).
func (vm *VM) SetLinkBandwidth(bytesPerSec int64) {
	vm.cfgMu.Lock()
	defer vm.cfgMu.Unlock()
	vm.bytesPerSec = bytesPerSec
}

// SetRecorder installs a DMA span recorder (nil disarms). fn is
// called outside all VM locks, on device-worker and DMA goroutines,
// and must be safe for concurrent use.
func (vm *VM) SetRecorder(fn func(dev int, lane trace.Lane, label string, start, end time.Time)) {
	vm.cfgMu.Lock()
	defer vm.cfgMu.Unlock()
	vm.rec = fn
}

// inject consults the injector for a transfer op touching tensor t on
// dev, retrying transient faults in place with backoff. Must be
// called without any shard lock held: the backoff sleeps on the
// calling goroutine, so a flaky transfer stalls only the waiters of
// its own buffer. Per-site determinism is unchanged — decisions hash
// the operation identity, not the interleaving.
func (vm *VM) inject(op fault.Op, dev int, t *tensor.Tensor) error {
	vm.cfgMu.Lock()
	inj, maxRetries, stepFn := vm.inj, vm.maxRetries, vm.stepFn
	vm.cfgMu.Unlock()
	if inj.Rules() == 0 {
		return nil
	}
	step := 0
	if stepFn != nil {
		step = stepFn()
	}
	layer := -1
	if t != nil {
		layer = t.Layer
	}
	sh := vm.shards[dev]
	err := inj.Inject(op, dev, step, layer)
	for attempt := 0; fault.IsTransient(err) && attempt < maxRetries; attempt++ {
		sh.mu.Lock()
		sh.stats.FaultsInjected++
		sh.stats.Retries++
		sh.mu.Unlock()
		inj.NoteRetry(op, dev, step)
		time.Sleep(fault.Backoff(attempt))
		err = inj.Inject(op, dev, step, layer)
	}
	if err != nil {
		sh.mu.Lock()
		sh.stats.FaultsInjected++
		sh.mu.Unlock()
	}
	return err
}

// lookup resolves a tensor ID to its buffer under the map lock.
func (vm *VM) lookup(id int) (*buffer, bool) {
	vm.bufMu.RLock()
	b, ok := vm.bufs[id]
	vm.bufMu.RUnlock()
	return b, ok
}

// Used returns resident bytes on a device.
func (vm *VM) Used(dev int) int64 {
	sh := vm.shards[dev]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.used
}

// StatsSnapshot sums the per-shard movement counters, visiting shards
// one at a time in ascending device order (the fixed shard order —
// never two shard locks at once).
func (vm *VM) StatsSnapshot() VMStats {
	var s VMStats
	for _, sh := range vm.shards {
		sh.mu.Lock()
		s = s.add(sh.stats)
		sh.mu.Unlock()
	}
	return s
}

// ---------------------------------------------------------------- LRU

// lruPush links b as the most-recently-used buffer of sh and stamps
// its clock. Requires sh.mu held.
func (vm *VM) lruPush(sh *vmShard, b *buffer) {
	sh.clock++
	b.last = sh.clock
	l := &sh.lru
	b.prev, b.next = l.tail, nil
	if l.tail != nil {
		l.tail.next = b
	} else {
		l.head = b
	}
	l.tail = b
}

// lruRemove unlinks b from sh's list. Requires sh.mu held.
func (vm *VM) lruRemove(sh *vmShard, b *buffer) {
	l := &sh.lru
	if b.prev != nil {
		b.prev.next = b.next
	} else {
		l.head = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	} else {
		l.tail = b.prev
	}
	b.prev, b.next = nil, nil
}

// touch bumps a linked buffer to most-recently-used. Requires sh.mu
// held and b linked on sh (idle-resident on sh.dev implies linked).
func (vm *VM) touch(sh *vmShard, b *buffer) {
	vm.lruRemove(sh, b)
	vm.lruPush(sh, b)
}

// victim scans sh for a page to evict: the buffer — resident, idle
// and unpinned per its claim word, and dirty when dirtyOnly — whose
// next scheduled use is farthest away by the nextUse oracle; ties go
// to the least recently used. Without an oracle every buffer ties, so
// the scan stops at the first candidate: plain LRU, O(1) plus the
// pinned/claimed prefix. With one the scan is O(resident).
//
// When nothing is evictable, victim returns as inFlight the
// least-recently-used buffer whose in-flight operation completes
// autonomously — an async DMA or a committed sync claim — for reserve
// to wait on. One scan decides both, so an operation that settles
// mid-scan is seen either in flight or evictable, never neither.
// Requires sh.mu held; the word checks are advisory — callers
// re-validate by claiming.
func (vm *VM) victim(sh *vmShard, dirtyOnly bool) (best, inFlight *buffer) {
	bestUse := 0
	for b := sh.lru.head; b != nil; b = b.next {
		w := b.load()
		if w.State() != claimword.Idle {
			if inFlight == nil && w.Waitable() {
				inFlight = b
			}
			continue
		}
		if w.Pins() > 0 || dirtyOnly && !b.dirty.Load() {
			continue
		}
		if vm.nextUse == nil {
			return b, nil
		}
		if use := vm.nextUse(sh.dev, b.t.ID); best == nil || use > bestUse {
			best, bestUse = b, use
		}
	}
	if best != nil {
		return best, nil
	}
	return nil, inFlight
}

// --------------------------------------------------------- public API

// HostAlloc materializes a tensor's host backing (zeroed) and returns
// it. Idempotent for already-materialized tensors. Host backing is a
// setup-time operation: callers must not race it with transfers of
// the same tensor.
func (vm *VM) HostAlloc(t *tensor.Tensor) []float32 {
	vm.bufMu.Lock()
	defer vm.bufMu.Unlock()
	b, ok := vm.bufs[t.ID]
	if !ok {
		b = newBuffer(t)
		vm.bufs[t.ID] = b
	}
	if b.host == nil {
		b.host = make([]float32, b.floats())
	}
	return b.host
}

// Host returns the host backing, swapping the device copy back first
// if it is dirty (used to read results out). The claim is taken with
// committed set: a snapshot write-back holds everything it needs, so
// eviction on the buffer's device may wait on it.
func (vm *VM) Host(t *tensor.Tensor) ([]float32, error) {
	for {
		b, ok := vm.lookup(t.ID)
		if !ok {
			return nil, fmt.Errorf("exec: tensor %s has no buffer", t)
		}
		if !vm.claim(b, claimword.SwapOut, false, true, claimword.NeedIdle) {
			vm.waitSettle(b)
			continue
		}
		// Claim held: dev/host/dirty are ours to read.
		resident := b.load().Resident()
		if resident && b.dirty.Load() {
			dev := b.device()
			if err := vm.inject(fault.SwapOut, dev, b.t); err != nil {
				vm.settle(b, true, 0)
				return nil, err
			}
			start := vm.clk.Now()
			copyChunked(b.host, b.dev)
			vm.linkSleep(b.t.Bytes)
			vm.record(dev, trace.SwapOut, "out "+b.t.String(), start)
			b.dirty.Store(false)
			sh := vm.shards[dev]
			sh.mu.Lock()
			sh.stats.SwapOutBytes += b.t.Bytes
			sh.stats.SwapOuts++
			sh.syncOuts++
			sh.mu.Unlock()
		}
		host := b.host
		vm.settle(b, resident, 0)
		if host == nil {
			return nil, fmt.Errorf("exec: tensor %s has no valid copy", t)
		}
		return host, nil
	}
}

// Ensure makes t resident on dev and pins it, returning the device
// slice. The tensor must have a valid copy somewhere. If a prefetch
// already swapped (or is swapping) it in, Ensure rides that DMA
// instead of copying twice.
//
// The fast path — tensor already resident on dev — is one pin CAS on
// the claim word plus a shard-local LRU touch; it takes no lock any
// other device can observe.
func (vm *VM) Ensure(dev int, t *tensor.Tensor) ([]float32, error) {
	for {
		b, ok := vm.lookup(t.ID)
		if !ok {
			return nil, fmt.Errorf("exec: tensor %s was never materialized", t)
		}
		w := b.load()
		if w.State() != claimword.Idle {
			// A copy is in flight (possibly our own prefetch): ride it
			// out and re-evaluate. A prefetch landing in the right place
			// is counted as a hit by the fast path on the next pass.
			vm.waitSettle(b)
			continue
		}
		if w.Resident() && b.device() == dev {
			if !vm.pin(b, w) {
				continue // word moved under us; re-evaluate
			}
			// Pinned: residency and placement are now frozen. Re-check
			// the placement read that preceded the pin (an eviction and
			// re-fetch elsewhere could have recycled the word bits).
			if b.device() != dev {
				vm.unpin(b)
				continue
			}
			dst := b.dev
			hit := vm.consumePrefetch(b)
			sh := vm.shards[dev]
			sh.mu.Lock()
			if hit {
				sh.pfBytes -= b.t.Bytes
				sh.stats.PrefetchHits++
			}
			vm.touch(sh, b)
			sh.mu.Unlock()
			return dst, nil
		}
		if w.Resident() {
			if w.Pins() > 0 {
				// A correctly dispatched schedule never uses one tensor from
				// two in-flight tasks, so a cross-device request for a pinned
				// tensor is a dependency bug — fail loudly instead of
				// corrupting the running task's view.
				return nil, fmt.Errorf("exec: tensor %s pinned on gpu%d while requested on gpu%d (dependency bug)",
					t, b.device(), dev)
			}
			if vm.pol.P2P {
				dst, err := vm.moveP2P(dev, b)
				if err == errRetry {
					continue // b changed while reserving; re-evaluate
				}
				return dst, err
			}
			if err := vm.bounce(b); err != nil {
				if err == errRetry {
					continue
				}
				return nil, err
			}
			continue // now host-only; swap in on the next pass
		}
		if b.host == nil {
			return nil, fmt.Errorf("exec: tensor %s has no valid copy to swap in", t)
		}
		dst, err := vm.swapIn(dev, b)
		if err == errRetry {
			continue
		}
		return dst, err
	}
}

// swapIn demand-loads host-only b onto dev and pins it. The memcpy
// runs on the caller's goroutine with no shard lock held. b is
// claimed but non-resident while reserving, so no eviction scan can
// see it; residency and the committed mark are established by a
// single commit CAS, upholding the invariant that every claim on a
// resident buffer completes autonomously.
func (vm *VM) swapIn(dev int, b *buffer) ([]float32, error) {
	if !vm.claim(b, claimword.SwapIn, false, false, claimword.NeedEmpty) {
		return nil, errRetry
	}
	sh := vm.shards[dev]
	sh.mu.Lock()
	if err := vm.reserve(sh, b.t.Bytes); err != nil {
		sh.mu.Unlock()
		vm.settle(b, false, 0)
		return nil, err
	}
	dst := make([]float32, b.floats())
	b.dev = dst
	b.setDevice(dev)
	vm.commit(b) // reserve done: only the copy remains
	sh.used += b.t.Bytes
	vm.lruPush(sh, b)
	sh.mu.Unlock()

	if err := vm.inject(fault.SwapIn, dev, b.t); err != nil {
		vm.dropResidency(b)
		vm.settle(b, false, 0)
		return nil, err
	}
	start := vm.clk.Now()
	copyChunked(dst, b.host)
	vm.linkSleep(b.t.Bytes)
	vm.record(dev, trace.SwapIn, "in "+b.t.String(), start)

	b.dirty.Store(false)
	sh.mu.Lock()
	sh.stats.SwapInBytes += b.t.Bytes
	sh.stats.SwapIns++
	sh.mu.Unlock()
	vm.settle(b, true, +1)
	return dst, nil
}

// errRetry tells Ensure that the buffer changed underneath a
// lock-dropping step and the whole decision must be re-evaluated.
var errRetry = errors.New("exec: retry")

// moveP2P transfers b (resident on another device, unpinned, idle) to
// dev and pins it. Shard order: the destination shard is reserved,
// charged and released *before* b is claimed — never two shard locks
// at once — and the claim CAS carries committed, because a claim
// holding its destination completes without further allocation, so
// the source device's eviction may wait on it. Because reserve can
// drop the shard lock and the claim races demand traffic, b may
// change underneath; errRetry sends Ensure back around.
func (vm *VM) moveP2P(dev int, b *buffer) ([]float32, error) {
	bytes := b.t.Bytes
	dsh := vm.shards[dev]
	dsh.mu.Lock()
	if err := vm.reserve(dsh, bytes); err != nil {
		dsh.mu.Unlock()
		return nil, err
	}
	dsh.used += bytes // hold the destination while copying
	dsh.mu.Unlock()
	if !vm.claim(b, claimword.SwapIn, false, true, claimword.NeedUnpinned) {
		vm.uncharge(dsh, bytes)
		return nil, errRetry
	}
	if w := b.load(); !w.Resident() || b.device() == dev {
		vm.settle(b, w.Resident(), 0)
		vm.uncharge(dsh, bytes)
		return nil, errRetry
	}
	src, srcDev := b.dev, b.device()
	dst := make([]float32, b.floats())

	if err := vm.inject(fault.P2P, dev, b.t); err != nil {
		vm.settle(b, true, 0)
		vm.uncharge(dsh, bytes)
		return nil, err
	}

	start := vm.clk.Now()
	copyChunked(dst, src)
	vm.linkSleep(bytes)
	vm.record(dev, trace.P2P, "p2p "+b.t.String(), start)

	pf := vm.consumePrefetch(b) // prefetched to the wrong device: not a hit
	ssh := vm.shards[srcDev]
	ssh.mu.Lock()
	vm.lruRemove(ssh, b)
	ssh.used -= bytes
	if pf {
		ssh.pfBytes -= bytes
	}
	ssh.mu.Unlock()
	b.dev = dst
	b.setDevice(dev)
	dsh.mu.Lock()
	vm.lruPush(dsh, b)
	dsh.stats.P2PBytes += bytes
	dsh.stats.P2PMoves++
	dsh.mu.Unlock()
	vm.settle(b, true, +1)
	return dst, nil
}

// uncharge returns speculatively-held destination bytes.
func (vm *VM) uncharge(sh *vmShard, bytes int64) {
	sh.mu.Lock()
	sh.used -= bytes
	sh.mu.Unlock()
}

// bounce writes b (resident elsewhere, observed unpinned-idle) back
// to host and drops its residency, so Ensure can swap it in at the
// requested device on its next pass. The claim CAS carries committed
// — a write-back never reserves; it only frees.
func (vm *VM) bounce(b *buffer) error {
	if !vm.claim(b, claimword.SwapOut, false, true, claimword.NeedUnpinned) {
		return errRetry
	}
	if !b.load().Resident() {
		vm.settle(b, false, 0)
		return nil // evicted meanwhile; already host-only
	}
	if b.host == nil {
		b.host = make([]float32, b.floats())
	}
	dev := b.device()
	if err := vm.inject(fault.SwapOut, dev, b.t); err != nil {
		vm.settle(b, true, 0)
		return err
	}
	start := vm.clk.Now()
	copyChunked(b.host, b.dev)
	vm.linkSleep(b.t.Bytes)
	vm.record(dev, trace.SwapOut, "out "+b.t.String(), start)

	b.dirty.Store(false)
	sh := vm.shards[dev]
	sh.mu.Lock()
	sh.stats.SwapOutBytes += b.t.Bytes
	sh.stats.SwapOuts++
	sh.syncOuts++
	vm.lruRemove(sh, b)
	sh.used -= b.t.Bytes
	if vm.consumePrefetch(b) {
		sh.pfBytes -= b.t.Bytes
	}
	sh.mu.Unlock()
	b.dev = nil
	b.setDevice(-1)
	vm.settle(b, false, 0)
	return nil
}

// Alloc creates a fresh device buffer for an output tensor (dirty, no
// host copy) and pins it.
func (vm *VM) Alloc(dev int, t *tensor.Tensor) ([]float32, error) {
	for {
		vm.bufMu.Lock()
		b, ok := vm.bufs[t.ID]
		if !ok {
			b = newBuffer(t)
			vm.bufs[t.ID] = b
		}
		vm.bufMu.Unlock()
		w := b.load()
		if w.State() != claimword.Idle {
			vm.waitSettle(b)
			continue
		}
		if w.Resident() || b.host != nil {
			return nil, fmt.Errorf("exec: tensor %s already materialized", t)
		}
		// Claim while reserving: reserve may drop the shard lock to
		// drain evictions, and nothing must touch a half-allocated
		// buffer meanwhile.
		if !vm.claim(b, claimword.SwapIn, false, false, claimword.NeedEmpty) {
			continue
		}
		if b.host != nil { // re-check under claim ownership
			vm.settle(b, false, 0)
			return nil, fmt.Errorf("exec: tensor %s already materialized", t)
		}
		sh := vm.shards[dev]
		sh.mu.Lock()
		if err := vm.reserve(sh, t.Bytes); err != nil {
			sh.mu.Unlock()
			vm.settle(b, false, 0)
			return nil, err
		}
		dst := make([]float32, b.floats())
		b.dev = dst
		b.setDevice(dev)
		b.dirty.Store(true)
		vm.commit(b)
		sh.used += t.Bytes
		vm.lruPush(sh, b)
		sh.mu.Unlock()
		vm.settle(b, true, +1)
		return dst, nil
	}
}

// MarkDirty records an in-place mutation of the device copy. The
// caller must hold a pin on t (task outputs are pinned while their
// kernels run), which is what makes the dirty write race-free against
// eviction's clean checks.
func (vm *VM) MarkDirty(t *tensor.Tensor) error {
	b, ok := vm.lookup(t.ID)
	if !ok || !b.load().Resident() {
		return fmt.Errorf("exec: MarkDirty on non-resident %s", t)
	}
	b.dirty.Store(true)
	return nil
}

// Unpin releases one pin.
func (vm *VM) Unpin(t *tensor.Tensor) error {
	b, ok := vm.lookup(t.ID)
	if !ok || !vm.unpin(b) {
		return fmt.Errorf("exec: Unpin underflow on %s", t)
	}
	return nil
}

// Free destroys the tensor entirely, waiting out any in-flight DMA.
func (vm *VM) Free(t *tensor.Tensor) error {
	for {
		b, ok := vm.lookup(t.ID)
		if !ok {
			return nil
		}
		w := b.load()
		if w.State() != claimword.Idle {
			vm.waitSettle(b)
			continue
		}
		if w.Pins() > 0 {
			return fmt.Errorf("exec: Free of pinned %s", t)
		}
		if !vm.claim(b, claimword.SwapOut, false, true, claimword.NeedUnpinned) {
			continue
		}
		if b.load().Resident() {
			vm.dropResidency(b)
		}
		vm.bufMu.Lock()
		delete(vm.bufs, t.ID)
		vm.bufMu.Unlock()
		vm.settle(b, false, 0)
		return nil
	}
}

// reserve evicts victims on sh until `bytes` fit. Requires sh.mu
// held; may release and reacquire it while write-backs drain or
// async DMAs complete, so callers must not rely on unrelated shard
// state across the call. Synchronous uncommitted claims held by other
// goroutines are treated like pins (they complete into a pinned
// buffer anyway); waitable claims — async operations and committed
// sync claims — are waited on, since both finish without help.
func (vm *VM) reserve(sh *vmShard, bytes int64) error {
	if bytes > vm.capacity {
		return fmt.Errorf("exec: tensor of %d bytes exceeds device capacity %d", bytes, vm.capacity)
	}
	for sh.used+bytes > vm.capacity {
		victim, inFlight := vm.victim(sh, false)
		if victim == nil {
			if inFlight != nil {
				sh.mu.Unlock()
				vm.waitSettle(inFlight)
				sh.mu.Lock()
				continue
			}
			return fmt.Errorf("exec: device %d cannot free %d bytes (used %d, all pinned)",
				sh.dev, bytes, sh.used)
		}
		if err := vm.evict(sh, victim); err != nil {
			if err == errRetry {
				continue // victim changed under the claim race; rescan
			}
			return err
		}
	}
	return nil
}

// evict removes b from sh: dirty-tracked clean buffers are dropped,
// everything else is written back first. Requires sh.mu held
// (released around the write-back copy). The eviction claim carries
// committed in its CAS — write-backs never reserve — so concurrent
// reserves on the shard may wait on it from its first visible word.
func (vm *VM) evict(sh *vmShard, b *buffer) error {
	if !vm.claim(b, claimword.SwapOut, false, true, claimword.NeedUnpinned) {
		return errRetry // raced with a pin or another claim
	}
	if vm.pol.DirtyTracking && !b.dirty.Load() && b.host != nil {
		sh.stats.DropBytes += b.t.Bytes
		sh.stats.Drops++
		vm.lruRemove(sh, b)
		sh.used -= b.t.Bytes
		if vm.consumePrefetch(b) {
			sh.pfBytes -= b.t.Bytes
		}
		b.dev = nil
		b.setDevice(-1)
		vm.settle(b, false, 0)
		return nil
	}
	// Write back. Naive virtualization (DirtyTracking off) writes back
	// unconditionally.
	if b.host == nil {
		b.host = make([]float32, b.floats())
	}
	src, host := b.dev, b.host
	sh.mu.Unlock()
	err := vm.inject(fault.SwapOut, sh.dev, b.t)
	if err == nil {
		start := vm.clk.Now()
		copyChunked(host, src)
		vm.linkSleep(b.t.Bytes)
		vm.record(sh.dev, trace.SwapOut, "out "+b.t.String(), start)
	}
	sh.mu.Lock()
	if err != nil {
		vm.settle(b, true, 0) // stays resident (and dirty)
		return err
	}
	b.dirty.Store(false)
	sh.stats.SwapOutBytes += b.t.Bytes
	sh.stats.SwapOuts++
	sh.syncOuts++
	sh.lastOut = b.t.ID
	vm.lruRemove(sh, b)
	sh.used -= b.t.Bytes
	if vm.consumePrefetch(b) {
		sh.pfBytes -= b.t.Bytes
	}
	b.dev = nil
	b.setDevice(-1)
	vm.settle(b, false, 0)
	return nil
}

// dropResidency releases b's device residency. Requires the caller to
// hold b's claim; takes (and releases) the shard lock of b's device.
func (vm *VM) dropResidency(b *buffer) {
	sh := vm.shards[b.device()]
	sh.mu.Lock()
	vm.lruRemove(sh, b)
	sh.used -= b.t.Bytes
	if vm.consumePrefetch(b) {
		sh.pfBytes -= b.t.Bytes
	}
	sh.mu.Unlock()
	b.dev = nil
	b.setDevice(-1)
}

// Invalidate discards any device copy without writeback, making the
// host backing authoritative (used when host contents are overwritten
// externally, e.g. checkpoint restore). Fails on pinned tensors.
func (vm *VM) Invalidate(t *tensor.Tensor) error {
	for {
		b, ok := vm.lookup(t.ID)
		if !ok {
			return nil
		}
		w := b.load()
		if w.State() != claimword.Idle {
			vm.waitSettle(b)
			continue
		}
		if !w.Resident() {
			return nil
		}
		if w.Pins() > 0 {
			return fmt.Errorf("exec: Invalidate of pinned %s", t)
		}
		if b.host == nil {
			return fmt.Errorf("exec: Invalidate would lose the only copy of %s", t)
		}
		if !vm.claim(b, claimword.SwapOut, false, true, claimword.NeedUnpinned) {
			continue
		}
		if !b.load().Resident() {
			vm.settle(b, false, 0)
			continue
		}
		b.dirty.Store(false)
		vm.dropResidency(b)
		vm.settle(b, false, 0)
		return nil
	}
}
