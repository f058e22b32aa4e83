//go:build !race

// The race detector instruments allocations, so this gate runs in non-race
// builds only (make bench-smoke runs it).

package shiftsplit

import "testing"

// snapshotQueryAllocBudget bounds the allocations of one pinned query on a
// warm serving stack, pin and release included. The pin itself costs 3
// (the epoch snapshot, its tile view and the facade snapshot); the query
// kernel and the read stack below it run on pooled scratch.
const snapshotQueryAllocBudget = 4

// TestSnapshotQueryAllocs is the allocation gate of the query path: a
// durable, versioned store opened with OpenServingOpts and a warm cache.
func TestSnapshotQueryAllocs(t *testing.T) {
	st := warmSnapshotStore(t, 256)
	pts := benchPoints(st.Shape(), 64, 3)
	starts, extents := warmBoxes(256, 64, 5)
	i := 0
	point := testing.AllocsPerRun(200, func() {
		snap := st.AcquireSnapshot()
		_, _, err := snap.Point(pts[i%len(pts)]...)
		snap.Release()
		if err != nil {
			t.Fatal(err)
		}
		i++
	})
	i = 0
	rangeSum := testing.AllocsPerRun(200, func() {
		snap := st.AcquireSnapshot()
		_, _, err := snap.RangeSum(starts[i%len(starts)], extents[i%len(extents)])
		snap.Release()
		if err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("allocs/op: point %.1f, range sum %.1f (budget %d)", point, rangeSum, snapshotQueryAllocBudget)
	if point > snapshotQueryAllocBudget {
		t.Errorf("AcquireSnapshot+Point+Release: %.1f allocs/op, budget %d", point, snapshotQueryAllocBudget)
	}
	if rangeSum > snapshotQueryAllocBudget {
		t.Errorf("AcquireSnapshot+RangeSum+Release: %.1f allocs/op, budget %d", rangeSum, snapshotQueryAllocBudget)
	}
}
