package sched

import (
	"testing"

	"harmony/internal/tensor"
)

// TestUseIndexNext checks every queue position of a Harmony-DP plan
// against a linear scan of the queue: the next use at or after the
// position, else the first use wrapped by the queue length, else
// NeverUsed.
func TestUseIndexNext(t *testing.T) {
	s := MustBuild(dpGraph(3, 2, 2), DefaultOptions(HarmonyDP), 2)
	u := s.UseIndex()
	uses := func(task int, d int, id int) bool {
		q := s.Queues[d][task]
		for _, set := range [][]*tensor.Tensor{q.Inputs, q.Outputs, q.Mutates} {
			for _, x := range set {
				if x.ID == id {
					return true
				}
			}
		}
		return false
	}
	for d, q := range s.Queues {
		n := len(q)
		for _, x := range s.Graph.Reg.All() {
			for pos := 0; pos <= n; pos++ {
				want := scanNext(func(k int) bool { return uses(k, d, x.ID) }, n, pos)
				if got := u.Next(d, x.ID, pos); got != want {
					t.Fatalf("gpu%d %v at %d: Next = %d, want %d", d, x, pos, got, want)
				}
			}
		}
	}
}

// scanNext is UseIndex.Next by linear scan over queue positions 0..n-1.
func scanNext(uses func(k int) bool, n, pos int) int {
	wrapped := NeverUsed
	for k := 0; k < n; k++ {
		if !uses(k) {
			continue
		}
		if k >= pos {
			return k
		}
		if wrapped == NeverUsed {
			wrapped = k + n
		}
	}
	return wrapped
}

// TestUseIndexRanksWrappedAfterInIteration: seen from any cursor, a
// use later this iteration ranks before any use that wraps to the
// next one, and a tensor the queue never touches ranks after both —
// the ordering Belady eviction relies on.
func TestUseIndexRanksWrappedAfterInIteration(t *testing.T) {
	s := MustBuild(dpGraph(3, 2, 1), DefaultOptions(HarmonyDP), 1)
	u := s.UseIndex()
	n := len(s.Queues[0])
	w0 := s.Graph.W[0][0]
	first := u.Next(0, w0.ID, 0)
	if first >= n {
		t.Fatalf("W[0] is unused in its own replica's queue")
	}
	for pos := 0; pos < n; pos++ {
		next := u.Next(0, w0.ID, pos)
		if next < pos {
			t.Fatalf("Next(%d) = %d lies behind the cursor", pos, next)
		}
		if next >= n && next != first+n {
			t.Fatalf("wrapped use at %d = %d, want first use %d + len %d", pos, next, first, n)
		}
		if next >= NeverUsed {
			t.Fatalf("a used tensor ranks as never used")
		}
	}
	other := s.Graph.Reg.All()[len(s.Graph.Reg.All())-1].ID + 1
	if u.Next(0, other, 0) != NeverUsed {
		t.Fatal("an unknown tensor must rank NeverUsed")
	}
}
