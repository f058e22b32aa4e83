package shiftsplit

import (
	"fmt"

	"github.com/shiftsplit/shiftsplit/internal/bitutil"
	"github.com/shiftsplit/shiftsplit/internal/ndarray"
	"github.com/shiftsplit/shiftsplit/internal/query"
	"github.com/shiftsplit/shiftsplit/internal/reconstruct"
	"github.com/shiftsplit/shiftsplit/internal/storage"
	"github.com/shiftsplit/shiftsplit/internal/tile"
)

// Snapshot is a pinned, immutable read view of a Store. On a versioned
// store it holds a refcounted pin on one committed epoch: every query
// through the snapshot resolves that epoch's remap table, so a maintenance
// batch building (or flipping to) the next epoch is invisible for the
// snapshot's whole lifetime. On a non-versioned store it is a zero-cost
// pass-through to the live store, preserving that configuration's exact
// behavior and I/O accounting.
//
// Every acquired Snapshot must reach Release on all paths, including error
// branches — the shiftsplitvet snapshotrelease analyzer proves this for the
// tree — or the pinned epoch's physical blocks are never reclaimed.
// Release is idempotent; the usual shape is
//
//	snap := st.AcquireSnapshot()
//	defer snap.Release()
//
// Snapshots are safe for concurrent use whenever the store's read path is
// (anything opened with OpenServing, in-memory and plain file stores).
type Snapshot struct {
	st           *Store
	bs           *storage.Snapshot // nil on non-versioned stores
	ts           *tile.Store
	materialized bool
	epoch        uint64
}

// AcquireSnapshot pins the current committed epoch for reading (see
// Snapshot). The caller must Release it on every path.
func (s *Store) AcquireSnapshot() *Snapshot {
	if s.versioned == nil {
		return &Snapshot{st: s, ts: s.store, materialized: s.materialized.Load()}
	}
	bs := s.versioned.Acquire()
	ts, err := tile.NewStore(bs, s.tiling)
	if err != nil {
		// Unreachable: the snapshot's block size equals the tiling's by
		// construction. Degrade to the live store rather than failing reads.
		bs.Release()
		return &Snapshot{st: s, ts: s.store, materialized: s.materialized.Load()}
	}
	// Materialization is an epoch property here: only a snapshot of the
	// exact epoch whose blocks carry scaling coefficients may use the
	// single-block query path. matEpoch holds that epoch + 1.
	return &Snapshot{
		st:           s,
		bs:           bs,
		ts:           ts,
		materialized: s.matEpoch.Load() == bs.Epoch()+1,
		epoch:        bs.Epoch(),
	}
}

// Release unpins the snapshot's epoch (idempotent, no-op on non-versioned
// stores).
func (sn *Snapshot) Release() {
	if sn.bs != nil {
		sn.bs.Release()
	}
}

// Epoch returns the pinned epoch (always 0 on non-versioned stores).
func (sn *Snapshot) Epoch() uint64 { return sn.epoch }

// Materialized reports whether the pinned epoch's blocks carry the per-tile
// scaling coefficients that enable single-block point queries.
func (sn *Snapshot) Materialized() bool { return sn.materialized }

// Shape returns the transformed domain extents.
func (sn *Snapshot) Shape() []int { return sn.st.Shape() }

// Form returns the decomposition form.
func (sn *Snapshot) Form() Form { return sn.st.Form() }

// Point reconstructs a single cell as of the pinned epoch. On a
// materialized view this reads exactly one block (the §3 payoff of the
// stored scaling coefficients); otherwise it walks the root path.
func (sn *Snapshot) Point(point ...int) (float64, int, error) {
	s := sn.st
	if sn.materialized {
		if s.opts.Form == Standard {
			return query.PointStandard(sn.ts, point)
		}
		return query.PointNonStandard(sn.ts, point)
	}
	if s.opts.Form == Standard {
		return query.PointViaRootPath(sn.ts, s.opts.Shape, point)
	}
	// Non-standard root-path query: extract the 1-cell block.
	b := CubeBlock(0, point...)
	vals, io, err := sn.ExtractBlock(b)
	if err != nil {
		return 0, io, err
	}
	origin := make([]int, len(point))
	return vals.At(origin...), io, nil
}

// RangeSum evaluates the sum over [start, start+shape) as of the pinned
// epoch, returning the value and the number of blocks read.
func (sn *Snapshot) RangeSum(start, shape []int) (float64, int, error) {
	s := sn.st
	if s.opts.Form == Standard {
		return query.RangeSumStandard(sn.ts, s.opts.Shape, start, shape)
	}
	return query.RangeSumNonStandard(sn.ts, start, shape)
}

// ExtractBlock reconstructs the original contents of a dyadic block via
// inverse SHIFT-SPLIT (Result 6) as of the pinned epoch.
func (sn *Snapshot) ExtractBlock(b Block) (*Array, int, error) {
	s := sn.st
	if err := b.validate(s.opts.Shape); err != nil {
		return nil, 0, err
	}
	switch s.opts.Form {
	case Standard:
		return reconstruct.DyadicStandard(sn.ts, b.toRange())
	case NonStandard:
		if !b.isCubic() {
			return nil, 0, fmt.Errorf("shiftsplit: non-standard extract needs a cubic block")
		}
		return reconstruct.DyadicNonStandard(sn.ts, b.Levels[0], b.Pos)
	default:
		return nil, 0, fmt.Errorf("shiftsplit: unknown form %v", s.opts.Form)
	}
}

// ExtractBox reconstructs an arbitrary box by dyadic decomposition as of
// the pinned epoch.
func (sn *Snapshot) ExtractBox(start, shape []int) (*Array, int, error) {
	if sn.st.opts.Form == NonStandard {
		return reconstruct.BoxNonStandard(sn.ts, start, shape)
	}
	return reconstruct.Box(sn.ts, start, shape)
}

// ReadTransform reads the whole transform as of the pinned epoch.
func (sn *Snapshot) ReadTransform() (*Array, error) {
	s := sn.st
	hat := ndarray.New(s.opts.Shape...)
	reader := tile.NewReader(sn.ts)
	// Locate is pure arithmetic, so the blocks the read will touch are
	// known up front: preload them with one vectored read (the same
	// distinct-block set the per-coefficient loop loads one at a time).
	var blocks []int
	hat.Each(func(coords []int, _ float64) {
		block, _ := s.tiling.Locate(coords)
		blocks = append(blocks, block)
	})
	if err := reader.Preload(blocks); err != nil {
		return nil, err
	}
	var rerr error
	hat.Each(func(coords []int, _ float64) {
		if rerr != nil {
			return
		}
		v, err := reader.Get(coords)
		if err != nil {
			rerr = err
			return
		}
		hat.Set(v, coords...)
	})
	if rerr != nil {
		return nil, rerr
	}
	return hat, nil
}

// Points answers a batch of point queries against the pinned epoch, sharing
// one block cache across the batch. It returns the values in input order
// and the total number of distinct blocks read.
func (sn *Snapshot) Points(points [][]int) ([]float64, int, error) {
	s := sn.st
	if sn.materialized && s.opts.Form == Standard {
		// Single-tile queries: distinct leaf tiles dominate the cost.
		return query.PointBatchStandard(sn.ts, points)
	}
	if s.opts.Form == Standard {
		return query.PointBatch(sn.ts, s.opts.Shape, points)
	}
	// Non-standard: share a reader across per-point quadtree walks.
	out := make([]float64, len(points))
	reader := tile.NewReader(sn.ts)
	n := bitutil.Log2(s.opts.Shape[0])
	d := len(s.opts.Shape)
	origin := make([]int, d)
	coords := make([]int, d)
	for i, p := range points {
		u, err := reader.Get(origin)
		if err != nil {
			return nil, reader.BlocksRead(), err
		}
		for j := n; j >= 1; j-- {
			base := 1 << uint(n-j)
			for mask := 1; mask < 1<<uint(d); mask++ {
				w := 1.0
				for t := 0; t < d; t++ {
					coords[t] = p[t] >> uint(j)
					if mask>>uint(t)&1 == 1 {
						coords[t] += base
						if p[t]>>uint(j-1)&1 == 1 {
							w = -w
						}
					}
				}
				v, err := reader.Get(coords)
				if err != nil {
					return nil, reader.BlocksRead(), err
				}
				u += w * v
			}
		}
		out[i] = u
	}
	return out, reader.BlocksRead(), nil
}

// ProgressiveRangeSum answers a box aggregate progressively against the
// pinned epoch (coarse coefficients first); the final step is exact.
// Standard form only.
func (sn *Snapshot) ProgressiveRangeSum(start, shape []int) ([]ProgressiveStep, error) {
	s := sn.st
	if s.opts.Form != Standard {
		return nil, fmt.Errorf("shiftsplit: progressive queries need a standard-form store")
	}
	return query.ProgressiveRangeSum(sn.ts, s.opts.Shape, start, shape)
}

// ProgressiveRangeSumFunc is the streaming form of ProgressiveRangeSum: fn
// receives every refinement step as soon as it is computed. The snapshot
// stays pinned for the whole stream, so every refinement describes the same
// epoch even while maintenance flips underneath.
func (sn *Snapshot) ProgressiveRangeSumFunc(start, shape []int, fn func(ProgressiveStep) error) error {
	s := sn.st
	if s.opts.Form != Standard {
		return fmt.Errorf("shiftsplit: progressive queries need a standard-form store")
	}
	return query.ProgressiveRangeSumFunc(sn.ts, s.opts.Shape, start, shape, fn)
}

// Versioned reports whether the store runs on the MVCC epoch layer.
func (s *Store) Versioned() bool { return s.versioned != nil }

// CurrentEpoch returns the current committed epoch (0 on non-versioned
// stores, where there is exactly one ever-current version).
func (s *Store) CurrentEpoch() uint64 {
	if s.versioned == nil {
		return 0
	}
	return s.versioned.Epoch()
}

// EpochStats re-exports the epoch layer's observability counters.
type EpochStats = storage.EpochStats

// EpochStats reports the epoch layer's state; ok is false on non-versioned
// stores.
func (s *Store) EpochStats() (EpochStats, bool) {
	if s.versioned == nil {
		return EpochStats{}, false
	}
	return s.versioned.Stats(), true
}
