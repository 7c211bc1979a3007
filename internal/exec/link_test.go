package exec

import (
	"fmt"
	"testing"
	"time"

	"harmony/internal/memory"
	"harmony/internal/tensor"
)

// TestLinkModelNeverUndercharges: a modeled transfer takes at least
// bytes/bps of wall time, for sizes below, near and above the host's
// sleep granularity. The timer may round a charge up — on Linux a
// sub-millisecond sleep lasts about a millisecond (DESIGN.md §9) —
// but never down; any future pacing of the link must keep this bound.
func TestLinkModelNeverUndercharges(t *testing.T) {
	const bps = 1 << 20 // 1 MiB/s: 8 B ≈ 7.6 µs, 2 KiB ≈ 2 ms, 64 KiB ≈ 62.5 ms
	reg := tensor.NewRegistry()
	vm := NewVM(1, 1<<20, memory.Policy{DirtyTracking: true})
	vm.SetLinkBandwidth(bps)
	for i, bytes := range []int64{8, 2 << 10, 64 << 10} {
		x := reg.New(fmt.Sprintf("x%d", i), tensor.Activation, bytes, i, -1)
		vm.HostAlloc(x)
		want := time.Duration(bytes * int64(time.Second) / bps)
		timed := func(op string, f func() error) {
			t.Helper()
			start := time.Now()
			if err := f(); err != nil {
				t.Fatal(err)
			}
			if got := time.Since(start); got < want {
				t.Errorf("%s of %d bytes took %v, below the modeled %v", op, bytes, got, want)
			}
		}
		timed("swap-in", func() error { _, err := vm.Ensure(0, x); return err })
		if err := vm.MarkDirty(x); err != nil {
			t.Fatal(err)
		}
		if err := vm.Unpin(x); err != nil {
			t.Fatal(err)
		}
		timed("write-back", func() error { _, err := vm.Host(x); return err })
	}
}
