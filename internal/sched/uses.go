package sched

import (
	"math"
	"sort"

	"harmony/internal/tensor"
)

// NeverUsed is the rank UseIndex.Next gives a tensor its device's
// queue never touches: after every in-iteration and wrapped use.
const NeverUsed = math.MaxInt

// UseIndex records where each tensor is used in each device queue —
// the oracle behind schedule-informed (Belady-style) eviction, shared
// by the simulator's memory manager and the real trainer's VM. It is
// immutable once built, so concurrent readers need no lock.
type UseIndex struct {
	// uses[d][tensorID] lists the ascending positions in queue d where
	// the tensor is an input, output or mutation.
	uses []map[int][]int
	lens []int
}

// UseIndex builds the schedule's per-device use index.
func (s *Schedule) UseIndex() *UseIndex {
	u := &UseIndex{uses: make([]map[int][]int, len(s.Queues)), lens: make([]int, len(s.Queues))}
	for d, q := range s.Queues {
		idx := make(map[int][]int)
		for pos, t := range q {
			for _, set := range [][]*tensor.Tensor{t.Inputs, t.Outputs, t.Mutates} {
				for _, tt := range set {
					uses := idx[tt.ID]
					if len(uses) == 0 || uses[len(uses)-1] != pos {
						idx[tt.ID] = append(uses, pos)
					}
				}
			}
		}
		u.uses[d], u.lens[d] = idx, len(q)
	}
	return u
}

// Next ranks the next use of tensor id in dev's queue as seen from
// queue position pos: the first use at or after pos; otherwise the
// first use before pos, wrapped to use+len(queue) because the next
// iteration replays the queue; NeverUsed when the queue never uses
// the tensor. A larger rank is a farther use.
func (u *UseIndex) Next(dev, id, pos int) int {
	uses := u.uses[dev][id]
	if len(uses) == 0 {
		return NeverUsed
	}
	i := sort.SearchInts(uses, pos)
	if i == len(uses) {
		return uses[0] + u.lens[dev]
	}
	return uses[i]
}
