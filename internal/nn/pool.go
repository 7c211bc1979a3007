package nn

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file provides the shared compute substrate for all kernels:
//
//   - a persistent worker pool sized to runtime.GOMAXPROCS(0), shared
//     by every kernel invocation (no per-call goroutine spawn), and
//   - sync.Pool-backed float32 scratch buffers so backward passes do
//     not allocate in their inner loops.
//
// Parallel kernels are written to be bit-identical to their serial
// counterparts: work is only split along axes whose per-element
// accumulation order is unchanged by chunking (batch rows for outputs
// written disjointly, weight rows/output channels for gradient
// accumulation). That makes the chunk count — and therefore the
// worker count — invisible in the results, which the exec runtime
// relies on for its serial-vs-parallel determinism guarantee.

// poolTask is one contiguous chunk of a ParallelFor.
type poolTask struct {
	lo, hi int
	fn     func(lo, hi int)
	wg     *sync.WaitGroup
}

// workerPool is a fixed set of persistent worker goroutines draining a
// shared channel. The submitting goroutine always executes the final
// chunk itself, so a pool of size n runs at most n chunks of one call
// concurrently and a size-1 pool never touches the channel.
type workerPool struct {
	work chan poolTask
	size int
}

var activePool atomic.Pointer[workerPool]

func init() { SetWorkers(runtime.GOMAXPROCS(0)) }

// Workers reports the current kernel worker-pool size.
func Workers() int { return activePool.Load().size }

// SetWorkers replaces the shared worker pool with one of size n
// (clamped to ≥ 1). It exists for tests and benchmarks that need to
// force chunked execution on small machines or serial execution on
// large ones; it must not be called while kernels are running.
func SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	p := &workerPool{size: n}
	if n > 1 {
		p.work = make(chan poolTask)
		for i := 0; i < n-1; i++ {
			go func() {
				for t := range p.work {
					t.fn(t.lo, t.hi)
					t.wg.Done()
				}
			}()
		}
	}
	old := activePool.Swap(p)
	if old != nil && old.work != nil {
		close(old.work)
	}
}

// ParallelFor runs fn over [0, n) split into contiguous chunks of at
// least `grain` items fanned across the shared worker pool, at most
// one chunk per worker. The calling goroutine executes the last chunk
// itself and returns only when every chunk is done. With a size-1
// pool, or when n fits in a single grain, fn runs inline with no
// synchronization at all. n ≤ 0 never calls fn.
//
// grain ≤ 0 means no minimum chunk size, exactly as grain 1: the range
// is split as finely as the pool allows, so fn may run on several
// goroutines. A caller that needs one inline call passes grain ≥ n.
//
// fn must be safe to run concurrently on disjoint ranges.
func ParallelFor(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	p := activePool.Load()
	if p.size == 1 || n <= grain {
		fn(0, n)
		return
	}
	chunks := (n + grain - 1) / grain
	if chunks > p.size {
		chunks = p.size
	}
	per := (n + chunks - 1) / chunks
	var wg sync.WaitGroup
	lo := 0
	for lo+per < n {
		hi := lo + per
		wg.Add(1)
		p.work <- poolTask{lo: lo, hi: hi, fn: fn, wg: &wg}
		lo = hi
	}
	fn(lo, n)
	wg.Wait()
}

// grainFor sizes ParallelFor chunks so each carries roughly 64k scalar
// operations when one item costs perItem operations: tiny layers stay
// serial, large ones fan out.
func grainFor(perItem int) int {
	if perItem <= 0 {
		return 1 << 16
	}
	g := (1 << 16) / perItem
	if g < 1 {
		g = 1
	}
	return g
}

// scratch recycles float32 buffers across kernel calls. Buffers are
// stored by pointer to avoid re-boxing the slice header on every Put.
var scratch = sync.Pool{New: func() any { s := make([]float32, 0, 1024); return &s }}

// GetScratch returns a length-n buffer with undefined contents,
// drawn from the shared scratch pool. Pair with PutScratch.
func GetScratch(n int) []float32 {
	p := scratch.Get().(*[]float32)
	if cap(*p) < n {
		*p = make([]float32, n)
	}
	return (*p)[:n]
}

// GetZeroedScratch returns a length-n zeroed buffer from the pool.
func GetZeroedScratch(n int) []float32 {
	s := GetScratch(n)
	clear(s)
	return s
}

// PutScratch recycles a buffer obtained from GetScratch. The caller
// must not retain the slice afterwards.
func PutScratch(s []float32) {
	if cap(s) == 0 {
		return
	}
	s = s[:0]
	scratch.Put(&s)
}
