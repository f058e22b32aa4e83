package query

import (
	"slices"
	"sort"
	"sync"

	"github.com/shiftsplit/shiftsplit/internal/bitutil"
	"github.com/shiftsplit/shiftsplit/internal/haar"
	"github.com/shiftsplit/shiftsplit/internal/storage"
	"github.com/shiftsplit/shiftsplit/internal/tile"
)

// This file is the query kernel behind PointViaRootPath, RangeSumStandard
// and PointBatch. A standard-form Lemma 1/2 coefficient set is the cross
// product of d one-dimensional lists (§3.1), and the standard tiling is the
// cross product of d one-dimensional tilings (§3.2), so a query is
// evaluated per dimension:
//
//  1. build each dimension's 1-D list (at most 2n+1 entries);
//  2. locate each entry once with OneD.Locate1D, recording its sorted
//     local tile index and its slot;
//  3. form the query's blocks as the mixed-radix product of the
//     per-dimension tile lists — already ascending — and read them with one
//     vectored read into a pooled slab;
//  4. sum the cross product, last dimension fastest, with the weight built
//     as w *= w_t per dimension: the order and arithmetic of summing
//     wavelet.PointPathStandard or RangeSumCoefsStandard term by term, so
//     answers match those lists bit for bit.
//
// Other tilings (the sequential ablation layout) and batches locate every
// cross-product cell with Tiling.Locate and dedup block ids by sorting.
// All working memory is pooled per query; nothing here allocates once the
// pool is warm.

// cell is one located cross-product term: its coefficient's index into
// the slab and its weight.
type cell struct {
	off int
	w   float64
}

// scratch is one query's working set. It lives in scratchPool between
// queries and never leaves the goroutine that took it.
type scratch struct {
	lists  [][]haar.Coef // per dimension: the 1-D Lemma 1/2 list
	tileOf [][]int       // per dimension: each list entry's tile, then its index in tiles
	offs   [][]int       // per dimension: each list entry's share of its slab offset
	tiles  [][]int       // per dimension: distinct tiles, ascending
	choice []int         // cross-product odometer
	coords []int         // one cell's transform coordinates
	cells  []cell
	blocks []int       // per cell, until resolve: the block Tiling.Locate named
	ids    []int       // the blocks to read, ascending and distinct
	bufs   [][]float64 // one slab frame per id
	slab   []float64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch takes a scratch from the pool sized for d dimensions; the
// caller puts it back when the query is done.
func getScratch(d int) *scratch {
	sc := scratchPool.Get().(*scratch)
	for len(sc.lists) < d {
		sc.lists = append(sc.lists, nil)
		sc.tileOf = append(sc.tileOf, nil)
		sc.offs = append(sc.offs, nil)
		sc.tiles = append(sc.tiles, nil)
	}
	if cap(sc.choice) < d {
		sc.choice = make([]int, d)
		sc.coords = make([]int, d)
	}
	sc.choice, sc.coords = sc.choice[:d], sc.coords[:d]
	sc.cells, sc.blocks, sc.ids = sc.cells[:0], sc.blocks[:0], sc.ids[:0]
	return sc
}

// pointLists sets each dimension's list to its Lemma-1 root path.
func (sc *scratch) pointLists(shape, point []int) {
	for t := range shape {
		sc.lists[t] = haar.AppendPointPath(sc.lists[t][:0], bitutil.Log2(shape[t]), point[t])
	}
}

// rangeLists sets each dimension's list to its Lemma-2 range-sum set.
func (sc *scratch) rangeLists(arrShape, start, shape []int) {
	for t := range arrShape {
		n := bitutil.Log2(arrShape[t])
		sc.lists[t] = haar.AppendRangeSumCoefs(sc.lists[t][:0], n, start[t], start[t]+shape[t]-1)
	}
}

// advance steps the odometer over the first dims dimensions, last of them
// fastest, ranging over len(lists[t]) (or len(tiles[t]) when overTiles),
// and reports false once that product is exhausted.
func (sc *scratch) advance(dims int, overTiles bool) bool {
	for t := dims - 1; t >= 0; t-- {
		sc.choice[t]++
		n := len(sc.lists[t])
		if overTiles {
			n = len(sc.tiles[t])
		}
		if sc.choice[t] < n {
			return true
		}
		sc.choice[t] = 0
	}
	return false
}

// separable locates one query on a standard tiling and lists its blocks
// (steps 2 and 3).
func (sc *scratch) separable(std *tile.Standard) {
	d := std.Dims()
	for t := 0; t < d; t++ {
		oneD := std.Dim(t)
		tiles, tileOf, offs := sc.tiles[t][:0], sc.tileOf[t][:0], sc.offs[t][:0]
		for _, c := range sc.lists[t] {
			b, s := oneD.Locate1D(c.Index)
			tileOf, offs = append(tileOf, b), append(offs, s)
		}
		tiles = append(tiles, tileOf...)
		slices.Sort(tiles)
		tiles = slices.Compact(tiles)
		for i, b := range tileOf {
			tileOf[i], _ = slices.BinarySearch(tiles, b)
		}
		sc.tiles[t], sc.tileOf[t], sc.offs[t] = tiles, tileOf, offs
	}
	// A coefficient's slab offset is pos*B^d + slot, where pos and slot are
	// the mixed-radix combinations of its entries' tile indices and slots;
	// it splits into one term per dimension, precomputed here per entry.
	posStride, slotStride := std.BlockSize(), 1
	for t := d - 1; t >= 0; t-- {
		for i, ti := range sc.tileOf[t] {
			sc.offs[t][i] = ti*posStride + sc.offs[t][i]*slotStride
		}
		posStride *= len(sc.tiles[t])
		slotStride *= std.Dim(t).BlockSize()
	}
	// Blocks: the mixed-radix product of the tile lists. Enumerating it
	// with the last dimension fastest yields ascending block ids, and the
	// k-th block enumerated sits at slab position k.
	clear(sc.choice)
	for {
		block := 0
		for t := 0; t < d; t++ {
			block = block*std.Dim(t).NumBlocks() + sc.tiles[t][sc.choice[t]]
		}
		sc.ids = append(sc.ids, block)
		if !sc.advance(d, true) {
			return
		}
	}
}

// sumSeparable sums the cross product of a separable query against the
// slab (step 4), last dimension fastest. The weight of the outer
// dimensions is accumulated as w *= w_t before the innermost multiply, the
// same sequence of products a per-cell w = 1; w *= w_t loop performs.
func (sc *scratch) sumSeparable() float64 {
	last := len(sc.choice) - 1
	inner, innerOffs := sc.lists[last], sc.offs[last]
	s := 0.0
	clear(sc.choice)
	for {
		w, off := 1.0, 0
		for t, e := range sc.choice[:last] {
			w *= sc.lists[t][e].Weight
			off += sc.offs[t][e]
		}
		for i, c := range inner {
			s += w * c.Weight * sc.slab[off+innerOffs[i]]
		}
		if !sc.advance(last, false) {
			return s
		}
	}
}

// located appends the query's cells with Tiling.Locate, recording each
// cell's slot as its offset and its block in blocks until resolve runs.
func (sc *scratch) located(tiling tile.Tiling) {
	clear(sc.choice)
	for {
		w := 1.0
		for t, e := range sc.choice {
			c := sc.lists[t][e]
			sc.coords[t] = c.Index
			w *= c.Weight
		}
		block, slot := tiling.Locate(sc.coords)
		sc.cells = append(sc.cells, cell{off: slot, w: w})
		sc.blocks = append(sc.blocks, block)
		if !sc.advance(len(sc.choice), false) {
			return
		}
	}
}

// resolve makes the distinct located blocks, sorted, the read list, and
// adds each cell's block position in the slab to its offset.
func (sc *scratch) resolve(bs int) {
	sc.ids = append(sc.ids, sc.blocks...)
	sc.distinctIDs()
	for i, b := range sc.blocks {
		pos, _ := slices.BinarySearch(sc.ids, b)
		sc.cells[i].off += pos * bs
	}
}

// distinctIDs sorts ids, drops duplicates and returns how many remain.
func (sc *scratch) distinctIDs() int {
	sort.Ints(sc.ids)
	sc.ids = slices.Compact(sc.ids)
	return len(sc.ids)
}

// read loads every block in ids with one vectored read into the slab.
func (sc *scratch) read(st *tile.Store) error {
	bs := st.Tiling().BlockSize()
	n := len(sc.ids)
	if cap(sc.slab) < n*bs {
		sc.slab = make([]float64, n*bs)
	}
	sc.bufs = sc.bufs[:0]
	for i := 0; i < n; i++ {
		sc.bufs = append(sc.bufs, sc.slab[i*bs:(i+1)*bs])
	}
	return storage.ReadBlocksOf(st.Blocks(), sc.ids, sc.bufs)
}

// sum evaluates cells [from, to) against the slab, in cell order.
func (sc *scratch) sum(from, to int) float64 {
	s := 0.0
	for _, c := range sc.cells[from:to] {
		s += c.w * sc.slab[c.off]
	}
	return s
}

// evaluate answers the one query whose lists are built, returning the
// value and the number of distinct blocks read.
func (sc *scratch) evaluate(st *tile.Store) (float64, int, error) {
	std, isStd := st.Tiling().(*tile.Standard)
	if isStd {
		sc.separable(std)
	} else {
		sc.located(st.Tiling())
		sc.resolve(st.Tiling().BlockSize())
	}
	if err := sc.read(st); err != nil {
		return 0, 0, err
	}
	if isStd {
		return sc.sumSeparable(), len(sc.ids), nil
	}
	return sc.sum(0, len(sc.cells)), len(sc.ids), nil
}
