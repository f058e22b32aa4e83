package main

import (
	"runtime"
	"time"

	"github.com/shiftsplit/shiftsplit"
	"github.com/shiftsplit/shiftsplit/internal/dataset"
	"github.com/shiftsplit/shiftsplit/internal/ingest"
	"github.com/shiftsplit/shiftsplit/internal/storage"
	"github.com/shiftsplit/shiftsplit/internal/tile"
	"github.com/shiftsplit/shiftsplit/internal/wavelet"
)

// This file holds the paper's cost bounds, computed from the tiling's
// public functions, and the per-layer figures built on them.

// lemmaBlocks is the Lemma 1 (point) or Lemma 2 (range sum) block count of
// q: the distinct tiles that hold the query's coefficient set.
func lemmaBlocks(t tile.Tiling, n int, q query) int {
	shape := []int{n, n}
	var coefs []wavelet.Coef
	if q.isPoint() {
		coefs = wavelet.PointPathStandard(shape, q.start[:])
	} else {
		coefs = wavelet.RangeSumCoefsStandard(shape, q.start[:], q.extent[:])
	}
	seen := make(map[int]struct{}, len(coefs))
	for _, c := range coefs {
		b, _ := t.Locate(c.Coords)
		seen[b] = struct{}{}
	}
	return len(seen)
}

// table1Tiles is Table 1's SHIFT+SPLIT tile count for merging an edge^2
// block into an n^2 standard-form transform: the cross product of the
// per-dimension counts.
func table1Tiles(n, edge int) int {
	m, nb := bitsOf(edge), bitsOf(n)
	perDim := tile.TheoreticalShiftTilesOneD(m, tileBits) + tile.TheoreticalSplitTilesOneD(nb, m, tileBits)
	return perDim * perDim
}

// r1Blocks is the R1 block count of the chunked transform of an n^2 array
// with chunks of edge 2^chunkBits: every chunk touches its Table 1 tile
// count once.
func r1Blocks(n int) int {
	chunks := (n >> chunkBits) * (n >> chunkBits)
	return chunks * table1Tiles(n, 1<<chunkBits)
}

// frameBytes is the on-disk size of one durable block frame.
func frameBytes() int {
	return 8 * (1<<(2*tileBits) + storage.ChecksumOverhead)
}

func addTileQueryLayers(L *metrics, r *replayResult) {
	L.add("tile.blocks_per_point", "count", ratio(r.pointBlocks, r.points), r.points)
	L.add("tile.blocks_per_rangesum", "count", ratio(r.rangeBlocks, r.ranges), r.ranges)
	L.add("tile.point_over_bound", "ratio", ratio(r.pointBlocks, int(r.pointBound)), r.points)
	L.add("tile.rangesum_over_bound", "ratio", ratio(r.rangeBlocks, int(r.rangeBound)), r.ranges)
}

// addMergeTileLayers reports logical block writes per merge (the store's
// own counter) against Table 1.
func addMergeTileLayers(L *metrics, n, edge int, writes int64, merges int) {
	per := ratio(writes, merges)
	over := 0.0
	if merges > 0 {
		over = per / float64(table1Tiles(n, edge))
	}
	L.add("tile.merge_writes", "count", per, merges)
	L.add("tile.merge_over_bound", "ratio", over, merges)
}

// addDeviceWriteLayers reports the data device's writes and syncs per
// maintenance operation and written bytes per changed cell.
func addDeviceWriteLayers(L *metrics, dev deviceSnap, ops, cells int) {
	L.add("storage.device_writes_per_op", "count", ratio(dev.writeBlocks, ops), ops)
	L.add("storage.device_write_bytes_per_cell", "B", ratio(dev.writeBlocks*int64(frameBytes()), cells), cells)
	L.add("storage.device_syncs_per_op", "count", ratio(dev.syncs, ops), ops)
	L.add("storage.device_sync_us_per_op", "us", ratio(dev.syncNs, ops)/1e3, ops)
}

// addIngestLayers reports the appender and ingester counters; st is nil
// on workloads without ingest.
func addIngestLayers(L *metrics, st *ingest.Stats, slabs int) {
	if st == nil {
		st = &ingest.Stats{}
	}
	L.add("appender.expansions", "count", float64(st.Expansions), slabs)
	L.add("appender.merge_blocks_per_slab", "count", ratio(st.MergeIO.Total(), slabs), slabs)
	L.add("appender.expansion_blocks_per_slab", "count", ratio(st.ExpansionIO.Total(), slabs), slabs)
	L.add("ingest.appends_per_journal_group", "count", st.AppendsPerJournalGroup, slabs)
	L.add("ingest.groups", "count", float64(st.Groups), slabs)
}

// waveletNsPerCoef times wavelet.Transform on a 2^chunkBits-edge chunk.
func waveletNsPerCoef() float64 {
	const reps = 2000
	edge := 1 << chunkBits
	chunk := dataset.Dense([]int{edge, edge}, 1)
	t := time.Now()
	for i := 0; i < reps; i++ {
		wavelet.Transform(chunk, wavelet.Standard)
	}
	return float64(time.Since(t)) / float64(reps*edge*edge)
}

// allocsPerQuery measures heap allocations per point (points) or range-sum
// query, pin and release included, over the kind's share of qs.
func allocsPerQuery(st *shiftsplit.Store, qs []query, points bool) (float64, error) {
	var before, after runtime.MemStats
	n := 0
	runtime.ReadMemStats(&before)
	for _, q := range qs {
		if q.isPoint() != points {
			continue
		}
		snap := st.AcquireSnapshot()
		var err error
		if points {
			_, _, err = snap.Point(q.start[:]...)
		} else {
			_, _, err = snap.RangeSum(q.start[:], q.extent[:])
		}
		snap.Release()
		if err != nil {
			return 0, err
		}
		n++
	}
	runtime.ReadMemStats(&after)
	if n == 0 {
		return 0, nil
	}
	return float64(after.Mallocs-before.Mallocs) / float64(n), nil
}
