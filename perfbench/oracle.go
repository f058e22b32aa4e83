package main

import (
	"fmt"
	"math"
)

// relTol is the float policy of every answer check. The store sums Haar
// coefficients built chunk by chunk and merge by merge; the oracle sums
// data-domain cells in row-major order. The two orders round differently,
// so an answer agrees when |got - want| <= relTol * (sum of |cell| over
// the query + 1). Rounding in either order stays near 1e-13 of that mass
// at these sizes; a real defect (a lost or doubled delta) moves an answer
// by a whole cell value or more.
const relTol = 1e-9

// grid is the data-domain oracle of an n0×n1 array: the cells plus
// summed-area tables of the values and of their magnitudes.
type grid struct {
	n0, n1 int
	cells  []float64 // row-major
	sum    []float64 // (n0+1)×(n1+1) summed-area table of cells
	mass   []float64 // same for |cells|
	dirty  bool
}

func newGrid(cells []float64, n0, n1 int) *grid {
	g := &grid{n0: n0, n1: n1, cells: append([]float64(nil), cells...), dirty: true}
	g.sum = make([]float64, (n0+1)*(n1+1))
	g.mass = make([]float64, (n0+1)*(n1+1))
	return g
}

// apply adds a merge's data-domain delta.
func (g *grid) apply(op mergeOp) {
	r0, c0 := op.pos[0]*op.edge, op.pos[1]*op.edge
	for i := 0; i < op.edge; i++ {
		row := (r0 + i) * g.n1
		for j := 0; j < op.edge; j++ {
			g.cells[row+c0+j] += op.delta[i*op.edge+j]
		}
	}
	g.dirty = true
}

func (g *grid) rebuild() {
	w := g.n1 + 1
	for i := 0; i < g.n0; i++ {
		rs, rm := 0.0, 0.0
		for j := 0; j < g.n1; j++ {
			v := g.cells[i*g.n1+j]
			rs += v
			rm += math.Abs(v)
			g.sum[(i+1)*w+j+1] = g.sum[i*w+j+1] + rs
			g.mass[(i+1)*w+j+1] = g.mass[i*w+j+1] + rm
		}
	}
	g.dirty = false
}

// want returns the oracle's answer to q and the magnitude mass it covers.
func (g *grid) want(q query) (value, mass float64) {
	if q.isPoint() {
		v := g.cells[q.start[0]*g.n1+q.start[1]]
		return v, math.Abs(v)
	}
	if g.dirty {
		g.rebuild()
	}
	w := g.n1 + 1
	a0, a1 := q.start[0], q.start[1]
	b0, b1 := a0+q.extent[0], a1+q.extent[1]
	box := func(t []float64) float64 {
		return t[b0*w+b1] - t[a0*w+b1] - t[b0*w+a1] + t[a0*w+a1]
	}
	return box(g.sum), box(g.mass)
}

// check compares an answer with the oracle; a non-nil error describes the
// mismatch.
func (g *grid) check(q query, got float64) error {
	want, mass := g.want(q)
	if agrees(got, want, mass) {
		return nil
	}
	if q.isPoint() {
		return fmt.Errorf("point %v = %.17g, oracle %.17g", q.start, got, want)
	}
	return fmt.Errorf("rangesum %v+%v = %.17g, oracle %.17g", q.start, q.extent, got, want)
}

// agrees applies the float policy to one answer.
func agrees(got, want, mass float64) bool {
	return math.Abs(got-want) <= relTol*(mass+1)
}
