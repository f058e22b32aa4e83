package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"time"
)

// streams renders the query, merge and slab streams of one seed as bytes.
func streams(seed int64) []byte {
	var out []byte
	f64 := func(x float64) { out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x)) }
	for c := 0; c < 2; c++ {
		g := newQueryGen(seed, c, 1024)
		for i := 0; i < 2000; i++ {
			out = g.next().body(out)
		}
	}
	m := newMergeGen(seed, 1024, 16)
	for i := 0; i < 200; i++ {
		op := m.next()
		out = binary.LittleEndian.AppendUint64(out, uint64(op.pos[0]<<32|op.pos[1]))
		for _, d := range op.delta {
			f64(d)
		}
	}
	for c := 0; c < 2; c++ {
		g := newSlabGen(seed, c, 8)
		for i := 0; i < 500; i++ {
			for _, v := range g.next() {
				f64(v)
			}
		}
	}
	return out
}

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	a, b := streams(7), streams(7)
	if !bytes.Equal(a, b) {
		t.Fatal("one seed gave two different input streams")
	}
	if bytes.Equal(a, streams(8)) {
		t.Fatal("seeds 7 and 8 gave identical input streams")
	}
}

func TestQueryMixWithinDomain(t *testing.T) {
	const n = 256
	g := newQueryGen(3, 0, n)
	points := 0
	for i := 0; i < 10000; i++ {
		q := g.next()
		if q.isPoint() {
			points++
			if q.start[0] >= n || q.start[1] >= n {
				t.Fatalf("point %v outside %d²", q.start, n)
			}
			continue
		}
		for d := 0; d < 2; d++ {
			if q.start[d] >= n/2 || q.extent[d] < 1 || q.extent[d] > n/2 {
				t.Fatalf("range %v+%v outside the mix", q.start, q.extent)
			}
		}
	}
	if points < 6800 || points > 7200 {
		t.Fatalf("%d points in 10000 queries, want about 7000", points)
	}
}

func TestQuantileRefusesThinTail(t *testing.T) {
	var s samples
	for i := 1; i <= 999; i++ {
		s.add(float64(i))
	}
	if _, err := s.quantile(0.99); err == nil || !strings.Contains(err.Error(), "n=999") {
		t.Fatalf("p99 of 999 samples: err = %v, want a refusal naming n=999", err)
	}
	s.add(1000)
	v, err := s.quantile(0.99)
	if err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	var small samples
	for i := 0; i < 19; i++ {
		small.add(float64(i))
	}
	if _, err := small.quantile(0.5); err == nil {
		t.Fatal("p50 of 19 samples was not refused")
	}
	small.add(19)
	if v, err := small.quantile(0.5); err != nil || v != 9 {
		t.Fatalf("p50 of 0..19 = %v, %v; want 9", v, err)
	}
}

func TestWindowedQuantileIgnoresAStalledWindow(t *testing.T) {
	var s samples
	for w := 0; w < 5; w++ {
		for i := 1; i <= 100; i++ {
			x := float64(i)
			if w == 2 {
				x *= 50 // a window the host stalled
			}
			s.add(x)
		}
	}
	s.add(1e9) // a short last window is dropped
	ws := chunks(&s, 100)
	if len(ws) != 5 {
		t.Fatalf("%d windows of 100 in 501 samples, want 5", len(ws))
	}
	v, n, err := windowed(ws, 0.5)
	if err != nil || v != 50 || n != 500 {
		t.Fatalf("windowed p50 = %v over n=%d, %v; want 50 over n=500", v, n, err)
	}
	if _, _, err := windowed(ws, 0.99); err == nil || !strings.Contains(err.Error(), "n=100") {
		t.Fatalf("windowed p99 of 100-sample windows: err = %v, want a refusal naming n=100", err)
	}
}

// fakeClock advances only when told to: sleeping jumps to the target,
// an operation's cost moves it forward.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time { return c.t }

func (c *fakeClock) sleepUntil(_ context.Context, t time.Time) {
	if t.After(c.t) {
		c.t = t
	}
}

func TestOpenLoopChargesStallToLaterOperations(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	const period = 10 * time.Millisecond
	res, err := runOpenLoop(context.Background(), clk, clk.t, 9, period, func(k int) error {
		cost := time.Millisecond
		if k == 2 {
			cost = 50 * time.Millisecond // the injected stall
		}
		clk.t = clk.t.Add(cost)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Op 2 is due at 20ms and ends at 70ms; ops 3..7 queue behind it and
	// each is charged from its own due time, op 8 is back on schedule.
	wantLat := []float64{1, 1, 50, 41, 32, 23, 14, 5, 1}
	wantLate := []float64{0, 0, 0, 40, 31, 22, 13, 4, 0}
	for k := range wantLat {
		if res.latency.v[k] != wantLat[k] || res.late.v[k] != wantLate[k] {
			t.Errorf("op %d: latency %v late %v, want %v and %v", k, res.latency.v[k], res.late.v[k], wantLat[k], wantLate[k])
		}
	}
	if res.done != 9 {
		t.Fatalf("done = %d, want 9", res.done)
	}
}

func TestGridMatchesBruteForce(t *testing.T) {
	const n = 16
	r := newRNG(5, "grid")
	cells := make([]float64, n*n)
	for i := range cells {
		cells[i] = r.unit() - 0.5
	}
	g := newGrid(cells, n, n)
	op := mergeOp{pos: []int{1, 2}, edge: 4, delta: make([]float64, 16)}
	for i := range op.delta {
		op.delta[i] = r.unit()
	}
	g.apply(op)
	for i, d := range op.delta {
		cells[(4+i/4)*n+8+i%4] += d // block (1,2) of edge 4 starts at cell (4,8)
	}
	qg := newQueryGen(5, 0, n)
	for i := 0; i < 500; i++ {
		q := qg.next()
		want := 0.0
		if q.isPoint() {
			want = cells[q.start[0]*n+q.start[1]]
		} else {
			for a := q.start[0]; a < q.start[0]+q.extent[0]; a++ {
				for b := q.start[1]; b < q.start[1]+q.extent[1]; b++ {
					want += cells[a*n+b]
				}
			}
		}
		if err := g.check(q, want); err != nil {
			t.Fatal(err)
		}
		if err := g.check(q, want+0.5); err == nil {
			t.Fatalf("query %v+%v accepted an answer off by 0.5", q.start, q.extent)
		}
	}
}
