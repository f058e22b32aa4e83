//go:build !race

// The race detector instruments allocations, so this check runs in
// non-race builds only.

package cache

import (
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/storage"
)

// TestAllHitBatchDoesNotAllocate pins a warm vectored read at zero
// allocations: the per-position singleflight list is only made once a
// position misses.
func TestAllHitBatchDoesNotAllocate(t *testing.T) {
	inner := storage.NewMemStore(4)
	fill(t, inner, 16)
	c, err := New(inner, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	ids := []int{1, 3, 4, 9, 15}
	bufs := storage.SliceFrames(make([]float64, 4*len(ids)), len(ids), 4)
	if err := c.ReadBlocks(ids, bufs); err != nil { // warm
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := c.ReadBlocks(ids, bufs); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("all-hit ReadBlocks: %.1f allocs/op, want 0", n)
	}
	if bufs[3][0] != 9000 {
		t.Fatalf("cached block 9 = %v", bufs[3])
	}
}
