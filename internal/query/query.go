// Package query answers point and range-sum queries directly from tiled,
// disk-resident wavelet transforms, counting the block I/O each strategy
// pays. It demonstrates the two benefits §3 claims for the block allocation
// strategy: path locality (a root path crosses ~log_B N tiles instead of
// log N blocks) and the stored per-tile scaling coefficients, which let a
// point query finish after reading a single block.
package query

import (
	"fmt"

	"github.com/shiftsplit/shiftsplit/internal/haar"
	"github.com/shiftsplit/shiftsplit/internal/tile"
)

// PointStandard answers a point query from a materialized standard-form
// tiled store using only the deepest tile per dimension: the tile's scaling
// slot plus the in-tile path details reconstruct the value, so exactly one
// block is read. The store must have been filled with
// tile.MaterializeStandard.
func PointStandard(st *tile.Store, point []int) (float64, int, error) {
	v, _, err := pointStandard(st, point)
	if err != nil {
		return 0, 0, err
	}
	return v, 1, nil
}

// PointBatchStandard answers many point queries from a materialized
// standard-form store, one leaf block per point, returning the values and
// the number of distinct leaf blocks read.
func PointBatchStandard(st *tile.Store, points [][]int) ([]float64, int, error) {
	sc := getScratch(1)
	defer scratchPool.Put(sc)
	out := make([]float64, len(points))
	for i, p := range points {
		v, block, err := pointStandard(st, p)
		if err != nil {
			return nil, sc.distinctIDs(), err
		}
		out[i] = v
		sc.ids = append(sc.ids, block)
	}
	return out, sc.distinctIDs(), nil
}

// pointStandard is PointStandard, returning the id of the block it read.
func pointStandard(st *tile.Store, point []int) (float64, int, error) {
	tiling, ok := st.Tiling().(*tile.Standard)
	if !ok {
		return 0, 0, fmt.Errorf("query: PointStandard needs a *Standard tiling, got %T", st.Tiling())
	}
	d := tiling.Dims()
	arrShape, _ := domainShape(st)
	if err := ValidatePoint(arrShape, point); err != nil {
		return 0, 0, err
	}
	// Per-dimension: the leaf tile and the weighted slots inside it.
	type sel struct {
		slot   int
		weight float64
	}
	perDim := make([][]sel, d)
	block := 0
	B := tiling.Dim(0).BlockSize()
	for t := 0; t < d; t++ {
		oneD := tiling.Dim(t)
		n := oneD.Levels()
		p := point[t]
		var leafBlock int
		var sels []sel
		if n == 0 {
			leafBlock = 0
			sels = []sel{{slot: 0, weight: 1}}
		} else {
			leaf := haar.Index(n, 1, p/2)
			leafBlock, _ = oneD.Locate1D(leaf)
			jr, _ := oneD.RootOf(leafBlock)
			sels = []sel{{slot: 0, weight: 1}} // the tile's scaling slot
			for level := jr; level >= 1; level-- {
				idx := haar.Index(n, level, p>>uint(level))
				_, slot := oneD.Locate1D(idx)
				w := 1.0
				if p>>uint(level-1)&1 == 1 {
					w = -1
				}
				sels = append(sels, sel{slot: slot, weight: w})
			}
		}
		perDim[t] = sels
		block = block*oneD.NumBlocks() + leafBlock
	}
	data, err := st.ReadTile(block)
	if err != nil {
		return 0, 0, err
	}
	// Cross product of per-dimension selections, all within this block.
	choice := make([]int, d)
	sum := 0.0
	for {
		w := 1.0
		slot := 0
		for t := 0; t < d; t++ {
			s := perDim[t][choice[t]]
			slot = slot*B + s.slot
			w *= s.weight
		}
		sum += w * data[slot]
		t := d - 1
		for ; t >= 0; t-- {
			choice[t]++
			if choice[t] < len(perDim[t]) {
				break
			}
			choice[t] = 0
		}
		if t < 0 {
			return sum, block, nil
		}
	}
}

// PointNonStandard answers a point query from a materialized non-standard
// tiled store, reading only the leaf tile (its scaling slot plus the
// quadtree path inside it).
func PointNonStandard(st *tile.Store, point []int) (float64, int, error) {
	tiling, ok := st.Tiling().(*tile.NonStandard)
	if !ok {
		return 0, 0, fmt.Errorf("query: PointNonStandard needs a *NonStandard tiling, got %T", st.Tiling())
	}
	n, rootPos := tiling.RootOf(0)
	d := len(rootPos)
	arrShape, _ := domainShape(st)
	if err := ValidatePoint(arrShape, point); err != nil {
		return 0, 0, err
	}
	if n == 0 {
		data, err := st.ReadTile(0)
		if err != nil {
			return 0, 0, err
		}
		return data[0], 1, nil
	}
	// The leaf tile: the block holding the level-1 details over the point.
	base := 1 << uint(n-1)
	leafCoords := make([]int, d)
	for t := 0; t < d; t++ {
		leafCoords[t] = point[t] / 2
	}
	leafCoords[0] += base
	block, _ := tiling.Locate(leafCoords)
	jr, _ := tiling.RootOf(block)
	data, err := st.ReadTile(block)
	if err != nil {
		return 0, 0, err
	}
	u := data[0] // the tile's root-cell scaling coefficient
	coords := make([]int, d)
	for j := jr; j >= 1; j-- {
		jbase := 1 << uint(n-j)
		for mask := 1; mask < 1<<uint(d); mask++ {
			w := 1.0
			for t := 0; t < d; t++ {
				coords[t] = point[t] >> uint(j)
				if mask>>uint(t)&1 == 1 {
					coords[t] += jbase
					if point[t]>>uint(j-1)&1 == 1 {
						w = -w
					}
				}
			}
			_, slot := tiling.Locate(coords)
			u += w * data[slot]
		}
	}
	return u, 1, nil
}

// PointViaRootPath answers a point query by reading the full Lemma-1
// coefficient cross product through whatever tiling the store uses — the
// strategy available without the stored scaling coefficients. The returned
// count is the number of distinct blocks read, which is what the tiling
// ablation compares.
func PointViaRootPath(st *tile.Store, shape, point []int) (float64, int, error) {
	if err := ValidatePoint(shape, point); err != nil {
		return 0, 0, err
	}
	sc := getScratch(len(shape))
	defer scratchPool.Put(sc)
	sc.pointLists(shape, point)
	return sc.evaluate(st)
}

// RangeSumStandard answers a box aggregate over [start, start+shape) by
// combining the Lemma-2 coefficient set through the store, returning the
// sum and the number of distinct blocks read.
func RangeSumStandard(st *tile.Store, arrShape, start, shape []int) (float64, int, error) {
	if err := ValidateBox(arrShape, start, shape); err != nil {
		return 0, 0, err
	}
	sc := getScratch(len(arrShape))
	defer scratchPool.Put(sc)
	sc.rangeLists(arrShape, start, shape)
	return sc.evaluate(st)
}

// RangeSumNonStandard answers a box aggregate from a non-standard tiled
// store by quadtree descent (fully covered cells contribute average times
// volume), reading blocks through a cache.
func RangeSumNonStandard(st *tile.Store, start, shape []int) (float64, int, error) {
	tiling, ok := st.Tiling().(*tile.NonStandard)
	if !ok {
		return 0, 0, fmt.Errorf("query: RangeSumNonStandard needs a *NonStandard tiling, got %T", st.Tiling())
	}
	n, rootPos := tiling.RootOf(0)
	d := len(rootPos)
	arrShape, _ := domainShape(st)
	if err := ValidateBox(arrShape, start, shape); err != nil {
		return 0, 0, err
	}
	reader := tile.NewReader(st)
	end := make([]int, d)
	for i := range start {
		end[i] = start[i] + shape[i]
	}
	origin := make([]int, d)
	rootAvg, err := reader.Get(origin)
	if err != nil {
		return 0, reader.BlocksRead(), err
	}
	coords := make([]int, d)
	var descend func(j int, cell []int, u float64) (float64, error)
	descend = func(j int, cell []int, u float64) (float64, error) {
		size := 1 << uint(j)
		fullyIn, disjoint := true, false
		for i := 0; i < d; i++ {
			lo, hi := cell[i]*size, (cell[i]+1)*size
			if hi <= start[i] || lo >= end[i] {
				disjoint = true
				break
			}
			if lo < start[i] || hi > end[i] {
				fullyIn = false
			}
		}
		if disjoint {
			return 0, nil
		}
		if fullyIn {
			vol := 1.0
			for i := 0; i < d; i++ {
				vol *= float64(size)
			}
			return u * vol, nil
		}
		base := 1 << uint(n-j)
		details := make([]float64, 1<<uint(d))
		for mask := 1; mask < 1<<uint(d); mask++ {
			for i := 0; i < d; i++ {
				coords[i] = cell[i]
				if mask>>uint(i)&1 == 1 {
					coords[i] += base
				}
			}
			v, err := reader.Get(coords)
			if err != nil {
				return 0, err
			}
			details[mask] = v
		}
		sum := 0.0
		child := make([]int, d)
		for q := 0; q < 1<<uint(d); q++ {
			cu := u
			for mask := 1; mask < 1<<uint(d); mask++ {
				w := 1.0
				for i := 0; i < d; i++ {
					if mask>>uint(i)&1 == 1 && q>>uint(i)&1 == 1 {
						w = -w
					}
				}
				cu += w * details[mask]
			}
			for i := 0; i < d; i++ {
				child[i] = 2*cell[i] + q>>uint(i)&1
			}
			part, err := descend(j-1, child, cu)
			if err != nil {
				return 0, err
			}
			sum += part
		}
		return sum, nil
	}
	rootCell := make([]int, d)
	sum, err := descend(n, rootCell, rootAvg)
	return sum, reader.BlocksRead(), err
}

// PointBatch answers many point queries against a standard-form tiled store
// with one vectored read of the union of their blocks, returning the values
// and the number of distinct blocks read for the whole batch. Batching
// amortizes the shared upper-tree tiles across queries — the access-pattern
// benefit the tiling was designed for.
func PointBatch(st *tile.Store, shape []int, points [][]int) ([]float64, int, error) {
	for _, p := range points {
		if err := ValidatePoint(shape, p); err != nil {
			return nil, 0, err
		}
	}
	sc := getScratch(len(shape))
	defer scratchPool.Put(sc)
	ends := make([]int, len(points))
	for i, p := range points {
		sc.pointLists(shape, p)
		sc.located(st.Tiling())
		ends[i] = len(sc.cells)
	}
	sc.resolve(st.Tiling().BlockSize())
	if err := sc.read(st); err != nil {
		return nil, 0, err
	}
	out := make([]float64, len(points))
	from := 0
	for i, to := range ends {
		out[i] = sc.sum(from, to)
		from = to
	}
	return out, len(sc.ids), nil
}
