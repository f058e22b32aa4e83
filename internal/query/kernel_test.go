package query

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/bitutil"
	"github.com/shiftsplit/shiftsplit/internal/dataset"
	"github.com/shiftsplit/shiftsplit/internal/storage"
	"github.com/shiftsplit/shiftsplit/internal/tile"
	"github.com/shiftsplit/shiftsplit/internal/wavelet"
)

// refEvaluate is the coefficient-loop evaluator the kernel replaced, kept
// here as the differential oracle: materialize the weighted coefficient
// list, preload the distinct blocks it touches, then read every
// coefficient through a tile.Reader and sum in list order.
func refEvaluate(st *tile.Store, coefs []wavelet.Coef) (float64, int, error) {
	reader := tile.NewReader(st)
	blocks := make([]int, len(coefs))
	for i, c := range coefs {
		blocks[i], _ = st.Tiling().Locate(c.Coords)
	}
	if err := reader.Preload(blocks); err != nil {
		return 0, reader.BlocksRead(), err
	}
	sum := 0.0
	for _, c := range coefs {
		v, err := reader.Get(c.Coords)
		if err != nil {
			return 0, reader.BlocksRead(), err
		}
		sum += c.Weight * v
	}
	return sum, reader.BlocksRead(), nil
}

// kernelStore is one tiled layout of a transform, behind an I/O counter.
type kernelStore struct {
	name  string
	st    *tile.Store
	count *storage.Counting
}

// kernelStores writes the standard transform of a seeded array of the
// given shape under both the paper's tiling and the sequential layout.
func kernelStores(t *testing.T, shape []int, b int) []kernelStore {
	t.Helper()
	hat := wavelet.TransformStandard(dataset.Dense(shape, int64(len(shape))))
	ns := make([]int, len(shape))
	for i, s := range shape {
		ns[i] = bitutil.Log2(s)
	}
	std := tile.NewStandard(ns, b)
	var out []kernelStore
	for _, tl := range []struct {
		name   string
		tiling tile.Tiling
	}{
		{"standard", std},
		{"sequential", tile.NewSequential(shape, std.BlockSize())},
	} {
		count := storage.NewCounting(storage.NewMemStore(tl.tiling.BlockSize()))
		st, err := tile.NewStore(count, tl.tiling)
		if err != nil {
			t.Fatal(err)
		}
		if err := tile.WriteArray(st, hat); err != nil {
			t.Fatal(err)
		}
		out = append(out, kernelStore{name: tl.name, st: st, count: count})
	}
	return out
}

var kernelShapes = []struct {
	shape []int
	b     int
}{
	{[]int{64}, 2},
	{[]int{32, 32}, 2},
	{[]int{32, 8}, 2},
	{[]int{4, 64}, 3},
	{[]int{8, 16, 4}, 1},
	{[]int{8, 8, 8}, 2},
}

// TestKernelMatchesCoefficientLoop is the differential test of the query
// kernel against the evaluator it replaced, on both tilings and on 1-, 2-
// and 3-D, square and non-square domains: the same blocks read (by count
// and at the device), and the same bits. The kernel sums the same terms in
// the same order as the materialized coefficient list — now that range-sum
// coefficient lists are deterministic — so range sums match bit for bit
// as well, which is stricter than the float policy asks.
func TestKernelMatchesCoefficientLoop(t *testing.T) {
	for _, ks := range kernelShapes {
		for _, s := range kernelStores(t, ks.shape, ks.b) {
			t.Run(fmt.Sprintf("%v/%s", ks.shape, s.name), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(len(ks.shape)*100 + ks.b)))
				d := len(ks.shape)
				for q := 0; q < 60; q++ {
					p := make([]int, d)
					start := make([]int, d)
					ext := make([]int, d)
					for i, e := range ks.shape {
						p[i] = rng.Intn(e)
						start[i] = rng.Intn(e)
						ext[i] = 1 + rng.Intn(e-start[i])
					}
					want, wantIO, err := refEvaluate(s.st, wavelet.PointPathStandard(ks.shape, p))
					if err != nil {
						t.Fatal(err)
					}
					before := s.count.Stats().Reads
					got, io, err := PointViaRootPath(s.st, ks.shape, p)
					if err != nil {
						t.Fatal(err)
					}
					if dev := int(s.count.Stats().Reads - before); io != wantIO || dev != wantIO {
						t.Fatalf("point %v: %d blocks (%d at the device), coefficient loop %d", p, io, dev, wantIO)
					}
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("point %v = %v, coefficient loop %v", p, got, want)
					}

					want, wantIO, err = refEvaluate(s.st, wavelet.RangeSumCoefsStandard(ks.shape, start, ext))
					if err != nil {
						t.Fatal(err)
					}
					before = s.count.Stats().Reads
					got, io, err = RangeSumStandard(s.st, ks.shape, start, ext)
					if err != nil {
						t.Fatal(err)
					}
					if dev := int(s.count.Stats().Reads - before); io != wantIO || dev != wantIO {
						t.Fatalf("range %v+%v: %d blocks (%d at the device), coefficient loop %d", start, ext, io, dev, wantIO)
					}
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("range %v+%v = %v, coefficient loop %v", start, ext, got, want)
					}
				}
			})
		}
	}
}

// TestPointBatchMatchesCoefficientLoop checks the batched form: one read
// of the union of the points' blocks, each answer bit-identical to the
// single-point coefficient loop.
func TestPointBatchMatchesCoefficientLoop(t *testing.T) {
	for _, ks := range kernelShapes {
		for _, s := range kernelStores(t, ks.shape, ks.b) {
			rng := rand.New(rand.NewSource(7))
			points := make([][]int, 25)
			var all []wavelet.Coef
			for i := range points {
				points[i] = make([]int, len(ks.shape))
				for t, e := range ks.shape {
					points[i][t] = rng.Intn(e)
				}
				all = append(all, wavelet.PointPathStandard(ks.shape, points[i])...)
			}
			_, wantIO, err := refEvaluate(s.st, all)
			if err != nil {
				t.Fatal(err)
			}
			before := s.count.Stats().Reads
			got, io, err := PointBatch(s.st, ks.shape, points)
			if err != nil {
				t.Fatal(err)
			}
			if dev := int(s.count.Stats().Reads - before); io != wantIO || dev != wantIO {
				t.Fatalf("%v/%s: batch read %d blocks (%d at the device), coefficient loop %d", ks.shape, s.name, io, dev, wantIO)
			}
			for i, p := range points {
				want, _, err := refEvaluate(s.st, wavelet.PointPathStandard(ks.shape, p))
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("%v/%s: batch point %v = %v, coefficient loop %v", ks.shape, s.name, p, got[i], want)
				}
			}
		}
	}
}

// TestRangeSumRepeatsBitIdenticalOnStore repeats one range sum against one
// store: every call must return the same bits.
func TestRangeSumRepeatsBitIdenticalOnStore(t *testing.T) {
	shape := []int{64, 64}
	s := kernelStores(t, shape, 2)[0]
	first, _, err := RangeSumStandard(s.st, shape, []int{3, 10}, []int{41, 29})
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 100; rep++ {
		got, _, err := RangeSumStandard(s.st, shape, []int{3, 10}, []int{41, 29})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(first) {
			t.Fatalf("repeat %d = %v, first call %v", rep, got, first)
		}
	}
}

// TestKernelReadErrorReportsNoBlocks keeps the old contract on a failed
// read: no answer and no blocks counted.
func TestKernelReadErrorReportsNoBlocks(t *testing.T) {
	tiling := tile.NewStandard([]int{4, 4}, 2)
	faulty := storage.NewFaulty(storage.NewMemStore(tiling.BlockSize()))
	st, err := tile.NewStore(faulty, tiling)
	if err != nil {
		t.Fatal(err)
	}
	faulty.FailReadAfter(1)
	if _, io, err := PointViaRootPath(st, []int{16, 16}, []int{3, 4}); err == nil || io != 0 {
		t.Fatalf("point over a failing device: io=%d err=%v", io, err)
	}
	if _, io, err := RangeSumStandard(st, []int{16, 16}, []int{1, 2}, []int{5, 6}); err == nil || io != 0 {
		t.Fatalf("range sum over a failing device: io=%d err=%v", io, err)
	}
}
