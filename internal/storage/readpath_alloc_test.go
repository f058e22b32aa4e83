//go:build !race

// The race detector instruments allocations, so these checks run in
// non-race builds only.

package storage

import "testing"

// TestWarmBatchReadsDoNotAllocate pins the per-batch allocations of the
// snapshot read path at zero: Snapshot.ReadBlocks keeps its physical id
// and buffer lists in pooled scratch, and Degraded forwards a batch with
// no quarantined block as it is.
func TestWarmBatchReadsDoNotAllocate(t *testing.T) {
	v, err := NewVersioned(NewMemStore(4), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	for id := 0; id < 6; id++ { // blocks 6 and 7 stay unmapped
		if err := v.WriteBlock(id, fillSeq(4, float64(10*id))); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Commit(); err != nil {
		t.Fatal(err)
	}
	snap := v.Acquire()
	defer snap.Release()
	ids := []int{0, 2, 3, 5, 7}
	bufs := SliceFrames(make([]float64, 4*len(ids)), len(ids), 4)
	if n := testing.AllocsPerRun(100, func() {
		if err := snap.ReadBlocks(ids, bufs); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Snapshot.ReadBlocks: %.1f allocs/op, want 0", n)
	}
	if bufs[1][0] != 20 || bufs[4][0] != 0 {
		t.Fatalf("snapshot batch read %v", bufs)
	}

	q := NewQuarantine()
	q.Add(6, "test")
	dg, err := NewDegraded(NewMemStore(4), q)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := dg.ReadBlocks(ids[:4], bufs[:4]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Degraded.ReadBlocks with nothing quarantined in the batch: %.1f allocs/op, want 0", n)
	}
}
