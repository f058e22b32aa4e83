package haar

import (
	"math"
	"math/rand"
	"testing"
)

// bruteRangeSumWeights sums the Lemma-1 point paths of every cell in
// [l, r]: the weight each transform entry carries in the range sum.
// Weights are small integers, so the sums are exact.
func bruteRangeSumWeights(n, l, r int) map[int]float64 {
	w := map[int]float64{}
	for i := l; i <= r; i++ {
		for _, c := range PointPath(n, i) {
			w[c.Index] += c.Weight
		}
	}
	for idx, v := range w {
		if v == 0 {
			delete(w, idx)
		}
	}
	return w
}

func TestRangeSumCoefsMatchBruteForce(t *testing.T) {
	for n := 0; n <= 6; n++ {
		N := 1 << uint(n)
		for l := 0; l < N; l++ {
			for r := l; r < N; r++ {
				want := bruteRangeSumWeights(n, l, r)
				got := RangeSumCoefs(n, l, r)
				if len(got) != len(want) {
					t.Fatalf("n=%d [%d,%d]: %d coefficients, brute force has %d", n, l, r, len(got), len(want))
				}
				if len(got) > 2*n+1 {
					t.Fatalf("n=%d [%d,%d]: %d coefficients exceed Lemma 2's 2n+1", n, l, r, len(got))
				}
				seen := map[int]bool{}
				for _, c := range got {
					if seen[c.Index] {
						t.Fatalf("n=%d [%d,%d]: index %d listed twice", n, l, r, c.Index)
					}
					seen[c.Index] = true
					if want[c.Index] != c.Weight {
						t.Fatalf("n=%d [%d,%d]: index %d weight %v, brute force %v", n, l, r, c.Index, c.Weight, want[c.Index])
					}
				}
			}
		}
	}
}

// TestRangeSumRepeatsBitIdentical pins the evaluation order: the same range
// over the same transform must give the same bits every time, which a
// map-ordered coefficient list did not.
func TestRangeSumRepeatsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 10
	a := make([]float64, 1<<uint(n))
	for i := range a {
		a[i] = rng.NormFloat64() * 1e3
	}
	hat := Transform(a)
	for q := 0; q < 20; q++ {
		l := rng.Intn(len(a))
		r := l + rng.Intn(len(a)-l)
		first := math.Float64bits(RangeSum(hat, l, r))
		for rep := 0; rep < 100; rep++ {
			if got := math.Float64bits(RangeSum(hat, l, r)); got != first {
				t.Fatalf("[%d,%d] repeat %d: bits %x, first call %x", l, r, rep, got, first)
			}
		}
	}
}

func TestAppendVariantsExtendDst(t *testing.T) {
	head := []Coef{{Index: 7, Weight: 2}}
	got := AppendRangeSumCoefs(append([]Coef(nil), head...), 5, 3, 20)
	if got[0] != head[0] || len(got) != 1+len(RangeSumCoefs(5, 3, 20)) {
		t.Fatalf("AppendRangeSumCoefs did not extend dst: %v", got)
	}
	got = AppendPointPath(append([]Coef(nil), head...), 5, 9)
	if got[0] != head[0] || len(got) != 1+6 {
		t.Fatalf("AppendPointPath did not extend dst: %v", got)
	}
}
