package main

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"strconv"
	"time"
)

// rng is a splitmix64 generator: small, fast, and fixed by this file, so a
// seed names the same inputs on every Go version.
type rng struct{ s uint64 }

// newRNG derives an independent stream for one purpose (a client, the
// merge writer, ...) from the workload seed.
func newRNG(seed int64, stream string) *rng {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	h.Write([]byte(stream))
	return &rng{s: h.Sum64()}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value uniform in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// unit returns a value uniform in [0, 1).
func (r *rng) unit() float64 { return float64(r.next()>>11) / (1 << 53) }

// query is one served read over a 2-d domain: a point at start, or the
// range sum over [start, start+extent).
type query struct {
	start, extent [2]int
	point         bool
}

func (q query) isPoint() bool { return q.point }

// body renders the request body the HTTP API expects.
func (q query) body(buf []byte) []byte {
	buf = buf[:0]
	ints := func(key string, v [2]int) {
		buf = append(buf, '"')
		buf = append(buf, key...)
		buf = append(buf, `":[`...)
		for i, x := range v {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, int64(x), 10)
		}
		buf = append(buf, ']')
	}
	buf = append(buf, '{')
	if q.isPoint() {
		ints("point", q.start)
	} else {
		ints("start", q.start)
		buf = append(buf, ',')
		ints("extent", q.extent)
	}
	return append(buf, '}')
}

// pointShare is the fraction of point queries in the read mix; the rest
// are range sums.
const pointShare = 0.7

// queryGen yields the read mix over an n×n domain: 70% points uniform over
// the domain, 30% range sums with start uniform in [0, n/2) and extent
// uniform in [1, n/2] per dimension.
type queryGen struct {
	r *rng
	n int
}

func newQueryGen(seed int64, client, n int) *queryGen {
	return &queryGen{r: newRNG(seed, "query/"+strconv.Itoa(client)), n: n}
}

func (g *queryGen) next() query {
	if g.r.unit() < pointShare {
		return query{start: [2]int{g.r.intn(g.n), g.r.intn(g.n)}, point: true}
	}
	h := g.n / 2
	return query{
		start:  [2]int{g.r.intn(h), g.r.intn(h)},
		extent: [2]int{1 + g.r.intn(h), 1 + g.r.intn(h)},
	}
}

// mergeOp is one SHIFT-SPLIT block merge: the data-domain delta of an
// edge×edge block at block position pos (cells pos*edge onward).
type mergeOp struct {
	pos   []int
	edge  int
	delta []float64 // row-major edge×edge
}

// mergeGen yields seeded block merges over an n×n domain.
type mergeGen struct {
	r       *rng
	n, edge int
}

func newMergeGen(seed int64, n, edge int) *mergeGen {
	return &mergeGen{r: newRNG(seed, "merge"), n: n, edge: edge}
}

func (g *mergeGen) next() mergeOp {
	op := mergeOp{
		pos:   []int{g.r.intn(g.n / g.edge), g.r.intn(g.n / g.edge)},
		edge:  g.edge,
		delta: make([]float64, g.edge*g.edge),
	}
	for i := range op.delta {
		op.delta[i] = 2*g.r.unit() - 1
	}
	return op
}

// slabGen yields the values of one client's append slabs (one column of
// cross cells each).
type slabGen struct {
	r     *rng
	cross int
}

func newSlabGen(seed int64, client, cross int) *slabGen {
	return &slabGen{r: newRNG(seed, "slab/"+strconv.Itoa(client)), cross: cross}
}

func (g *slabGen) next() []float64 {
	v := make([]float64, g.cross)
	for i := range v {
		// Quantized to 1/64 so the JSON round trip is exact.
		v[i] = math.Round((20*g.r.unit()-10)*64) / 64
	}
	return v
}

// clock is the time source of the open-loop generator; tests replace it
// to inject stalls.
type clock interface {
	now() time.Time
	sleepUntil(ctx context.Context, t time.Time)
}

type wallClock struct{}

func (wallClock) now() time.Time { return time.Now() }

func (wallClock) sleepUntil(ctx context.Context, t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-ctx.Done():
	}
}

// openLoopResult holds, per operation, the latency measured from its due
// time and how late the generator started it.
type openLoopResult struct {
	latency samples   // ms, completion minus due time
	late    samples   // ms, start minus due time
	last    time.Time // completion of the last operation
	done    int
}

// runOpenLoop calls op(k) for k in [0, n) at due times start + k*period,
// whatever the previous calls cost. A stall therefore delays later
// operations, and that delay is charged to them: latency runs from the
// due time, not from when the call actually began.
func runOpenLoop(ctx context.Context, clk clock, start time.Time, n int, period time.Duration, op func(k int) error) (openLoopResult, error) {
	var res openLoopResult
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(k) * period)
		clk.sleepUntil(ctx, due)
		if err := ctx.Err(); err != nil {
			return res, err
		}
		began := clk.now()
		if err := op(k); err != nil {
			return res, err
		}
		end := clk.now()
		res.late.addMs(began.Sub(due))
		res.latency.addMs(end.Sub(due))
		res.last = end
		res.done++
	}
	return res, nil
}
