package shiftsplit

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/dataset"
)

// warmSnapshotStore builds a durable, versioned n×n store the way the
// serving benchmark does (chunked load, tile_bits 2), reopens it with
// OpenServingOpts and a cache larger than the store, and warms the cache
// with one full read: every later query is served from cache hits.
func warmSnapshotStore(tb testing.TB, n int) *Store {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "warm.wav")
	st, err := CreateStore(StoreOptions{
		Shape: []int{n, n}, Form: Standard, TileBits: 2,
		Path: path, Durable: true, Versioned: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := st.TransformChunked(dataset.Dense([]int{n, n}, 11), 5); err != nil {
		st.Close()
		tb.Fatal(err)
	}
	if err := st.Close(); err != nil {
		tb.Fatal(err)
	}
	sv, err := OpenServingOpts(path, ServeOptions{CacheBlocks: 2 * st.NumBlocks()})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { sv.Close() })
	if _, err := sv.ReadTransform(); err != nil {
		tb.Fatal(err)
	}
	return sv
}

// warmBoxes draws range-sum boxes like the serving benchmark's: start
// uniform in [0, n/2), extent uniform in [1, n/2] per dimension.
func warmBoxes(n, count int, seed int64) (starts, extents [][]int) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < count; i++ {
		starts = append(starts, []int{rng.Intn(n / 2), rng.Intn(n / 2)})
		extents = append(extents, []int{1 + rng.Intn(n/2), 1 + rng.Intn(n/2)})
	}
	return starts, extents
}

// TestWarmSnapshotQueriesConcurrent runs root-path points and range sums
// from many goroutines at once over the warm versioned stack, whose query
// kernel and snapshot reads draw pooled scratch: every answer must carry
// the same bits as the same query run alone.
func TestWarmSnapshotQueriesConcurrent(t *testing.T) {
	st := warmSnapshotStore(t, 64)
	pts := benchPoints(st.Shape(), 64, 3)
	starts, extents := warmBoxes(64, 64, 5)
	wantPt := make([]float64, len(pts))
	wantRg := make([]float64, len(starts))
	for i := range pts {
		v, _, err := st.Point(pts[i]...)
		if err != nil {
			t.Fatal(err)
		}
		wantPt[i] = v
		if wantRg[i], _, err = st.RangeSum(starts[i], extents[i]); err != nil {
			t.Fatal(err)
		}
	}
	const goroutines = 8
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				i := (g*31 + k) % len(pts)
				snap := st.AcquireSnapshot()
				p, _, perr := snap.Point(pts[i]...)
				r, _, rerr := snap.RangeSum(starts[i], extents[i])
				snap.Release()
				switch {
				case perr != nil:
					errs <- perr
					return
				case rerr != nil:
					errs <- rerr
					return
				case p != wantPt[i] || r != wantRg[i]:
					errs <- fmt.Errorf("query %d: point %v range %v, alone %v and %v", i, p, r, wantPt[i], wantRg[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// BenchmarkSnapshotPointWarm times one pinned root-path point query on a
// warm serving stack: AcquireSnapshot, Point, Release.
func BenchmarkSnapshotPointWarm(b *testing.B) {
	st := warmSnapshotStore(b, 256)
	pts := benchPoints(st.Shape(), 1024, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := st.AcquireSnapshot()
		_, _, err := snap.Point(pts[i%len(pts)]...)
		snap.Release()
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotRangeSumWarm times one pinned range sum on a warm
// serving stack: AcquireSnapshot, RangeSum, Release.
func BenchmarkSnapshotRangeSumWarm(b *testing.B) {
	st := warmSnapshotStore(b, 256)
	starts, extents := warmBoxes(256, 256, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(starts)
		snap := st.AcquireSnapshot()
		_, _, err := snap.RangeSum(starts[k], extents[k])
		snap.Release()
		if err != nil {
			b.Fatal(err)
		}
	}
}
