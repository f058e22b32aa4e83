//go:build !race

package storage

import (
	"fmt"
	"testing"
)

// flipSizes are the logical block counts of the benchmark's 256² and 1024²
// stores (standard form, tile_bits 2).
var flipSizes = []int{7225, 116281}

// newFlipStore returns a Versioned over a MemStore with every logical block
// mapped, as after a full load, and a one-block write-and-commit step.
func newFlipStore(tb testing.TB, logical int) (*Versioned, func()) {
	const bs = 16
	v, err := NewVersioned(NewMemStore(bs), logical)
	if err != nil {
		tb.Fatal(err)
	}
	ids := make([]int, logical)
	data := make([][]float64, logical)
	for i := range ids {
		ids[i] = i
		data[i] = fillSeq(bs, float64(i))
	}
	if err := v.WriteBlocks(ids, data); err != nil {
		tb.Fatal(err)
	}
	if err := v.Commit(); err != nil {
		tb.Fatal(err)
	}
	block := fillSeq(bs, -1)
	step := func() {
		if err := v.WriteBlock(0, block); err != nil {
			tb.Fatal(err)
		}
		if err := v.Commit(); err != nil {
			tb.Fatal(err)
		}
	}
	return v, step
}

// BenchmarkVersionedCommit times one epoch flip with a single dirty block.
// Only the table copy may grow with the logical block count; reclamation
// is proportional to the blocks remapped.
func BenchmarkVersionedCommit(b *testing.B) {
	for _, n := range flipSizes {
		b.Run(fmt.Sprintf("logical=%d", n), func(b *testing.B) {
			v, step := newFlipStore(b, n)
			defer v.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}

// TestVersionedCommitAllocsSizeIndependent is the gate behind the
// benchmark: a single-block Commit makes the same number of allocations on
// a 7225-block store as on a 116281-block one, so no per-flip pass builds
// a structure over the logical space. (Allocation counts under the race
// detector are inflated by its instrumentation, hence the build tag.)
func TestVersionedCommitAllocsSizeIndependent(t *testing.T) {
	var allocs []float64
	for _, n := range flipSizes {
		v, step := newFlipStore(t, n)
		step() // reach the steady state: one block on pending or free
		allocs = append(allocs, testing.AllocsPerRun(100, step))
		if err := v.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if allocs[0] != allocs[1] {
		t.Fatalf("allocs per single-block commit: %v at %d logical blocks, %v at %d — a flip allocates in proportion to the store",
			allocs[0], flipSizes[0], allocs[1], flipSizes[1])
	}
}
