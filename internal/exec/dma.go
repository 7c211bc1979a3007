package exec

import (
	"fmt"
	"runtime"
	"time"

	"harmony/internal/claimword"
	"harmony/internal/fault"
	"harmony/internal/nn"
	"harmony/internal/tensor"
	"harmony/internal/trace"
)

// This file is the VM's asynchronous DMA engine and the buffer claim
// state machine: per-device worker goroutines service prefetch
// swap-ins (EnsureAsync) and proactive write-backs (CleanAhead) while
// device workers compute. All copies run outside the shard locks
// under a buffer claim; completion is signaled through the packed
// claim word, so a demand Ensure on an in-flight buffer rides the DMA
// instead of copying twice.

type dmaKind int

const (
	dmaSwapIn    dmaKind = iota // prefetch: host→device fill of b.dev
	dmaWriteback                // clean-ahead: device→host, device copy kept
)

type dmaReq struct {
	b    *buffer
	kind dmaKind
	dev  int // device whose DMA lane services the request
}

// ------------------------------------------------------ state machine
//
// claim, commit, settle, pin, unpin and consumePrefetch are the only
// functions allowed to mutate a buffer's claim word (and its done
// channel), and they do so exclusively through CAS on the pure
// transitions in internal/claimword — every other path must go
// through them so waiters, eviction and the reserve path always see a
// coherent claim. The claimdiscipline analyzer (internal/analyzers)
// rejects word/done mutations anywhere else, and raw stores even
// here.

// claim CASes b into the claimed state st. async marks claims
// serviced by a DMA worker; committed marks sync claims that already
// hold everything they need (write-backs, p2p with the destination
// charged) — set in the claim CAS itself so no observer ever sees a
// resident claimed-unwaitable word. Returns false when the buffer is
// not claimable under need (already claimed, pinned, resident);
// callers re-observe and retry or bail. On success the claim's
// wakeup channel is published to b.done.
func (vm *VM) claim(b *buffer, st claimword.State, async, committed bool, need claimword.Need) bool {
	for {
		w := b.load()
		n, ok := claimword.Claim(w, st, async, committed, need)
		if !ok {
			return false
		}
		if b.word.CompareAndSwap(uint64(w), uint64(n)) {
			ch := make(chan struct{})
			b.done.Store(&ch)
			return true
		}
	}
}

// commit publishes residency for a claimed swap-in whose reserve
// completed: residency and the waitable mark land in one CAS (async
// claims also gain the prefetched mark). Requires the caller to hold
// b's claim; callers must commit before the buffer becomes visible to
// any eviction scan (lruPush), which the claimdiscipline analyzer
// checks lexically.
func (vm *VM) commit(b *buffer) {
	for {
		w := b.load()
		n, ok := claimword.Commit(w)
		if !ok {
			panic(fmt.Sprintf("exec: commit of unclaimed %s", b.t))
		}
		if b.word.CompareAndSwap(uint64(w), uint64(n)) {
			return
		}
	}
}

// settle completes b's in-flight DMA — state back to idle, residency
// set to the outcome, pinDelta applied (paths that hand the buffer to
// their caller pinned pass +1) — and wakes every waiter by closing
// the claim's channel. Requires the caller to hold b's claim. The
// pointer-CAS on done tolerates a successor claim publishing its own
// channel between our word CAS and the cleanup.
func (vm *VM) settle(b *buffer, resident bool, pinDelta int) {
	p := b.done.Load()
	for {
		w := b.load()
		n, ok := claimword.Settle(w, resident, pinDelta)
		if !ok {
			panic(fmt.Sprintf("exec: settle of unclaimed %s", b.t))
		}
		if b.word.CompareAndSwap(uint64(w), uint64(n)) {
			break
		}
	}
	if p != nil {
		b.done.CompareAndSwap(p, nil)
		close(*p)
	}
}

// pin takes one pin via a single CAS against the word the caller just
// observed — not a retry loop, so the caller's placement reads stay
// tied to the exact word that was pinned. Fails when the buffer is
// claimed, not resident, or the word moved; the caller re-observes.
func (vm *VM) pin(b *buffer, w claimword.Word) bool {
	n, ok := claimword.Pin(w)
	if !ok {
		return false
	}
	return b.word.CompareAndSwap(uint64(w), uint64(n))
}

// unpin releases one pin. Returns false on underflow.
func (vm *VM) unpin(b *buffer) bool {
	for {
		w := b.load()
		n, ok := claimword.Unpin(w)
		if !ok {
			return false
		}
		if b.word.CompareAndSwap(uint64(w), uint64(n)) {
			return true
		}
	}
}

// consumePrefetch clears b's prefetched mark; exactly one caller wins
// and must return the bytes to the owning shard's prefetch budget
// (under that shard's lock).
func (vm *VM) consumePrefetch(b *buffer) bool {
	for {
		w := b.load()
		n, ok := claimword.ConsumePrefetch(w)
		if !ok {
			return false
		}
		if b.word.CompareAndSwap(uint64(w), uint64(n)) {
			return true
		}
	}
}

// waitSettle blocks until b's current claim settles, then returns so
// the caller can re-observe the word (a new claim may land at any
// time). Tolerates the tiny window where a claim won its CAS but has
// not published its channel yet, and stale channels from claims that
// already settled (closed channels wake immediately).
func (vm *VM) waitSettle(b *buffer) {
	p := b.done.Load()
	if p == nil {
		runtime.Gosched()
		return
	}
	<-*p
}

// ---------------------------------------------------------- DMA engine

// StartEngine launches one DMA worker goroutine per device and allows
// async swap-in bytes in flight per device up to budgetBytes. Call
// Close to drain and stop the workers (recovery does, before
// discarding a VM). Idempotent; must be called before the first
// EnsureAsync/CleanAhead.
func (vm *VM) StartEngine(budgetBytes int64) {
	vm.engMu.Lock()
	defer vm.engMu.Unlock()
	if vm.started || vm.closed.Load() {
		return
	}
	if budgetBytes <= 0 || budgetBytes > vm.capacity {
		budgetBytes = vm.capacity / 2
	}
	vm.budget = budgetBytes
	vm.started = true
	vm.wg.Add(len(vm.shards))
	for d := range vm.shards {
		go vm.dmaWorker(d)
	}
	vm.engOn.Store(true) // publishes budget to EnsureAsync
}

// Close stops the DMA workers after draining queued requests. Safe to
// call on a VM whose engine never started, and more than once. Shard
// conds are poked one at a time in ascending device order.
func (vm *VM) Close() {
	vm.engMu.Lock()
	if !vm.started || vm.closed.Load() {
		vm.engMu.Unlock()
		return
	}
	vm.closed.Store(true)
	vm.engMu.Unlock()
	for _, sh := range vm.shards {
		sh.mu.Lock()
		sh.work.Broadcast()
		sh.mu.Unlock()
	}
	vm.wg.Wait()
}

// WaitIdle blocks until no async DMA is queued or in flight, then
// returns (and clears) the first fatal fault a DMA worker hit, if
// any. The trainer calls it at every step boundary so stats are
// settled and recovery never races a live DMA. Holding engMu between
// the pending check and the wait pairs with the worker's
// broadcast-under-engMu, so the zero-crossing wakeup is never lost.
func (vm *VM) WaitIdle() error {
	vm.engMu.Lock()
	defer vm.engMu.Unlock()
	if !vm.started {
		return nil
	}
	for vm.pending.Load() > 0 {
		vm.idle.Wait()
	}
	err := vm.asyncErr
	vm.asyncErr = nil
	return err
}

// latchAsyncErr records the first fatal DMA-worker fault for WaitIdle.
func (vm *VM) latchAsyncErr(err error) {
	if _, fatal := fault.AsFatal(err); !fatal {
		return
	}
	vm.engMu.Lock()
	if vm.asyncErr == nil {
		vm.asyncErr = err
	}
	vm.engMu.Unlock()
}

// EnsureAsync requests that t become resident on dev without
// blocking: a prefetch. It never waits, never evicts, never pins —
// it fills spare capacity only — and silently does nothing when the
// tensor is missing, already resident or in flight, not host-backed,
// over the per-device async budget, or the device is full. A later
// Ensure either hits the prefetched copy or rides the in-flight DMA.
// The whole admission runs under the destination shard's lock alone.
func (vm *VM) EnsureAsync(dev int, t *tensor.Tensor) {
	if !vm.engOn.Load() || vm.closed.Load() {
		return
	}
	b, ok := vm.lookup(t.ID)
	if !ok {
		return
	}
	w := b.load()
	if w.State() != claimword.Idle || w.Pins() > 0 {
		return
	}
	sh := vm.shards[dev]
	if w.Resident() {
		if b.device() == dev {
			// Already where the upcoming task needs it: bump it so
			// eviction prefers colder pages. Re-validate under the shard
			// lock — only idle-resident-here buffers are linked here.
			sh.mu.Lock()
			if w2 := b.load(); w2.State() == claimword.Idle && w2.Resident() && b.device() == dev {
				vm.touch(sh, b)
			}
			sh.mu.Unlock()
		}
		return
	}
	if b.host == nil {
		return
	}
	bytes := t.Bytes
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// The budget counts prefetched bytes until their first demand hit
	// (not merely while in flight), bounding how much device memory
	// prefetch may occupy at the expense of the present working set.
	if sh.pfBytes+bytes > vm.budget {
		return
	}
	// Prefetch fills spare capacity only. Evicting on behalf of the
	// future is a Belady bet the prefetcher always loses under
	// pressure: dropped pages are exactly the stashes and activations
	// the backward pass re-demands, and measured swap traffic tripled
	// when prefetch was allowed to make room for itself. The demand
	// path keeps sole authority over eviction.
	if sh.used+bytes > vm.capacity {
		return
	}
	if !vm.claim(b, claimword.SwapIn, true, false, claimword.NeedEmpty) {
		return // raced with a demand path; it will do the work
	}
	b.dev = make([]float32, b.floats())
	b.setDevice(dev)
	b.dirty.Store(false)
	vm.commit(b) // async: residency + prefetched mark in one CAS
	sh.used += bytes
	sh.pfBytes += bytes
	vm.lruPush(sh, b)
	sh.stats.PrefetchIssued++
	vm.enqueue(sh, dmaReq{b: b, kind: dmaSwapIn, dev: dev})
}

// CleanAhead asynchronously writes back up to max dirty, idle,
// unpinned buffers on dev, in victim order (device copies kept, now
// clean), so later evictions find pages they can drop instead of
// stalling on a synchronous write-back. No-op without dirty tracking —
// dropping clean pages is only legal under that policy.
func (vm *VM) CleanAhead(dev int, max int) {
	if !vm.engOn.Load() || vm.closed.Load() || !vm.pol.DirtyTracking {
		return
	}
	sh := vm.shards[dev]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// Only act under real eviction pressure: a synchronous write-back
	// stall since the last batch and the device nearly full (≥3/4).
	// Outside that regime evictions drop clean pages for free, and a
	// write-back would be pure link traffic (weights are re-dirtied
	// every update, so eagerly cleaning them costs bandwidth forever
	// and buys nothing). Each stall re-arms one batch, so clean-ahead
	// tracks — and converts — the workload's real write-back rate.
	if sh.syncOuts == sh.cleanSeen || sh.used*4 < vm.capacity*3 {
		return
	}
	sh.cleanSeen = sh.syncOuts // re-arm on the next stall
	// Clean the pages eviction will pick next, in victim order (a
	// claimed page leaves the idle set, so each scan finds the next
	// one), but none nearer than the page the last stall wrote back:
	// eviction goes farthest first, so a dirty page that ranks below
	// the last forced write-back is not about to be evicted, and
	// cleaning it is wasted link traffic.
	floor := 0
	if vm.nextUse != nil && sh.lastOut >= 0 {
		floor = vm.nextUse(dev, sh.lastOut)
	}
	for issued := 0; issued < max; issued++ {
		b, _ := vm.victim(sh, true)
		if b == nil || vm.nextUse != nil && vm.nextUse(dev, b.t.ID) < floor {
			return // nothing dirty is as far out as the last stall
		}
		if !vm.claim(b, claimword.SwapOut, true, false, claimword.NeedUnpinned) {
			return // raced with a pin
		}
		if b.host == nil {
			b.host = make([]float32, b.floats())
		}
		sh.stats.CleanAheads++
		vm.enqueue(sh, dmaReq{b: b, kind: dmaWriteback, dev: dev})
	}
}

// enqueue hands a request to sh's DMA worker. Requires sh.mu held;
// the queue is an unbounded slice precisely so enqueueing never
// blocks while holding the shard lock.
func (vm *VM) enqueue(sh *vmShard, r dmaReq) {
	vm.pending.Add(1)
	sh.queue = append(sh.queue, r)
	sh.work.Signal()
}

// dmaWorker drains one device's request queue. Workers never wait on
// buffer states — every request arrives pre-claimed — so they always
// make progress, which is what lets synchronous paths safely wait on
// async operations. Each worker parks on its own shard's cond; DMA
// completions on different devices share nothing but the pending
// counter.
func (vm *VM) dmaWorker(dev int) {
	defer vm.wg.Done()
	sh := vm.shards[dev]
	sh.mu.Lock()
	for {
		for len(sh.queue) == 0 {
			if vm.closed.Load() {
				sh.mu.Unlock()
				return
			}
			sh.work.Wait()
		}
		req := sh.queue[0]
		sh.queue = sh.queue[1:]
		sh.mu.Unlock()
		vm.service(req)
		if vm.pending.Add(-1) == 0 {
			vm.engMu.Lock()
			vm.idle.Broadcast()
			vm.engMu.Unlock()
		}
		sh.mu.Lock()
	}
}

// service performs one async DMA outside the shard lock.
func (vm *VM) service(req dmaReq) {
	b := req.b
	sh := vm.shards[req.dev]
	bytes := b.t.Bytes
	switch req.kind {
	case dmaSwapIn:
		err := vm.inject(fault.SwapIn, req.dev, b.t)
		if err == nil {
			start := vm.clk.Now()
			copyChunked(b.dev, b.host)
			vm.linkSleep(bytes)
			busy := vm.clk.Now().Sub(start)
			vm.record(req.dev, trace.Prefetch, "pf "+b.t.String(), start)
			b.dirty.Store(false)
			sh.mu.Lock()
			sh.stats.SwapInBytes += bytes
			sh.stats.SwapIns++
			sh.stats.AsyncDMANanos += busy.Nanoseconds()
			sh.mu.Unlock()
			vm.settle(b, true, 0) // stays prefetched until the demand hit
			return
		}
		// Failed prefetch: roll the residency back (dropResidency
		// returns the bytes to the budget) and let the demand path
		// retry (and surface) the fault. Fatal faults are also latched
		// so WaitIdle reports them even if no demand follows.
		vm.dropResidency(b)
		vm.latchAsyncErr(err)
		vm.settle(b, false, 0)
	case dmaWriteback:
		err := vm.inject(fault.SwapOut, req.dev, b.t)
		if err == nil {
			start := vm.clk.Now()
			copyChunked(b.host, b.dev)
			vm.linkSleep(bytes)
			busy := vm.clk.Now().Sub(start)
			vm.record(req.dev, trace.SwapOut, "cl "+b.t.String(), start)
			b.dirty.Store(false)
			sh.mu.Lock()
			sh.stats.SwapOutBytes += bytes
			sh.stats.SwapOuts++
			sh.stats.AsyncDMANanos += busy.Nanoseconds()
			sh.mu.Unlock()
			vm.settle(b, true, 0)
			return
		}
		// Failed clean-ahead: the page simply stays dirty.
		vm.latchAsyncErr(err)
		vm.settle(b, true, 0)
	}
}

// copyChunked copies src into dst through the shared kernel worker
// pool in cache-friendly chunks, so large DMAs use every core without
// starving compute (the pool interleaves fairly).
func copyChunked(dst, src []float32) {
	nn.ParallelFor(len(dst), 64<<10, func(lo, hi int) {
		copy(dst[lo:hi], src[lo:hi])
	})
}

// linkSleep charges the modeled host-link transfer time for a copy of
// the given size. Runs outside all VM locks on the transferring
// goroutine, so concurrent lanes genuinely overlap.
func (vm *VM) linkSleep(bytes int64) {
	vm.cfgMu.Lock()
	bps := vm.bytesPerSec
	vm.cfgMu.Unlock()
	if bps <= 0 {
		return
	}
	time.Sleep(time.Duration(bytes * int64(time.Second) / bps))
}

// record emits one DMA span to the installed recorder, if any.
func (vm *VM) record(dev int, lane trace.Lane, label string, start time.Time) {
	vm.cfgMu.Lock()
	rec := vm.rec
	vm.cfgMu.Unlock()
	if rec == nil {
		return
	}
	rec(dev, lane, label, start, vm.clk.Now())
}
