package nn

import (
	"runtime"
	"sort"
	"sync"
	"testing"
)

// fillRand fills s with deterministic values in [-1, 1) from the same
// xorshift family as XavierInit.
func fillRand(s []float32, seed uint64) {
	rng := seed*2862933555777941757 + 3037000493
	for i := range s {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		s[i] = float32(rng>>11)/float32(1<<53)*2 - 1
	}
}

func TestParallelForCoversRangeExactlyOnce(t *testing.T) {
	defer SetWorkers(runtime.GOMAXPROCS(0))
	for _, workers := range []int{1, 3, 8} {
		SetWorkers(workers)
		if Workers() != workers {
			t.Fatalf("Workers() = %d, want %d", Workers(), workers)
		}
		counts := make([]int, 1000)
		ParallelFor(1000, 7, func(lo, hi int) {
			// Ranges are disjoint, so plain increments cannot race.
			for i := lo; i < hi; i++ {
				counts[i]++
			}
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

// TestParallelForEdgeCases pins the documented meaning of the edge
// arguments: n ≤ 0 never calls fn, and grain ≤ 0 splits like grain 1
// (across the pool, covering the range exactly once), while a size-1
// pool or grain ≥ n keeps one inline [0,n) call. fn runs on pool
// goroutines, so it only records; every check runs on the test
// goroutine.
func TestParallelForEdgeCases(t *testing.T) {
	defer SetWorkers(Workers())

	type span struct{ lo, hi int }
	record := func(n, grain int) []span {
		var mu sync.Mutex
		var got []span
		ParallelFor(n, grain, func(lo, hi int) {
			mu.Lock()
			got = append(got, span{lo, hi})
			mu.Unlock()
		})
		sort.Slice(got, func(i, j int) bool { return got[i].lo < got[j].lo })
		return got
	}

	for _, workers := range []int{1, 3} {
		SetWorkers(workers)
		for _, n := range []int{0, -4} {
			if got := record(n, 10); len(got) != 0 {
				t.Fatalf("workers=%d: fn called for n=%d: %v", workers, n, got)
			}
		}
		for _, grain := range []int{0, -3, 1} {
			got := record(5, grain)
			next := 0
			for _, s := range got {
				if s.lo != next || s.hi <= s.lo {
					t.Fatalf("workers=%d grain=%d: chunks %v do not tile [0,5)", workers, grain, got)
				}
				next = s.hi
			}
			if next != 5 {
				t.Fatalf("workers=%d grain=%d: chunks %v do not cover [0,5)", workers, grain, got)
			}
			if want := min(workers, 5); len(got) != want {
				t.Fatalf("workers=%d grain=%d: %d chunks %v, want %d", workers, grain, len(got), got, want)
			}
		}
		if got := record(5, 5); len(got) != 1 || got[0] != (span{0, 5}) {
			t.Fatalf("workers=%d: grain ≥ n ran %v, want one [0,5) call", workers, got)
		}
	}
}

func TestScratchPoolRoundTrip(t *testing.T) {
	s := GetScratch(100)
	if len(s) != 100 {
		t.Fatalf("len = %d", len(s))
	}
	for i := range s {
		s[i] = 1
	}
	PutScratch(s)
	z := GetZeroedScratch(100)
	for i, v := range z {
		if v != 0 {
			t.Fatalf("GetZeroedScratch[%d] = %v", i, v)
		}
	}
	PutScratch(z)
}

// runKernelOnce runs a forward+backward pass at the given worker count
// on deterministic data and returns every output buffer.
func runKernelOnce(k Kernel, workers, batch int) (y, dx, grad []float32) {
	SetWorkers(workers)
	params := make([]float32, k.ParamCount())
	fillRand(params, 11)
	x := make([]float32, batch*k.InSize())
	fillRand(x, 22)
	dy := make([]float32, batch*k.OutSize())
	fillRand(dy, 33)
	y = make([]float32, batch*k.OutSize())
	stash := make([]float32, batch*k.StashSize())
	k.Forward(params, x, y, stash, batch)
	dx = make([]float32, batch*k.InSize())
	grad = make([]float32, k.ParamCount())
	k.Backward(params, stash, dy, dx, grad, batch)
	return y, dx, grad
}

// TestParallelKernelsBitIdenticalToSerial is the kernel half of the
// executor's determinism guarantee: chunked execution must not change
// a single bit of any output or gradient. The shapes are picked large
// enough that grainFor actually splits the work at 4 workers.
func TestParallelKernelsBitIdenticalToSerial(t *testing.T) {
	defer SetWorkers(runtime.GOMAXPROCS(0))
	kernels := []struct {
		k     Kernel
		batch int
	}{
		{Dense{In: 200, Out: 180, ReLU: true}, 16},
		{Dense{In: 200, Out: 180}, 16},
		{Conv2D{Cin: 3, H: 16, W: 16, Cout: 8, K: 3, ReLU: true}, 8},
		{MaxPool2D{C: 8, H: 14, W: 14, P: 2}, 8},
	}
	for _, tc := range kernels {
		y1, dx1, g1 := runKernelOnce(tc.k, 1, tc.batch)
		y4, dx4, g4 := runKernelOnce(tc.k, 4, tc.batch)
		cmp := func(name string, a, b []float32) {
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s: %s[%d] differs: serial %v vs parallel %v",
						tc.k.Name(), name, i, a[i], b[i])
				}
			}
		}
		cmp("y", y1, y4)
		cmp("dx", dx1, dx4)
		cmp("grad", g1, g4)
	}
}
