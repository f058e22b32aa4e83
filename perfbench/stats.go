package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a percentile before the
// benchmark reports it: a p99 needs at least 1000 samples.
const minTail = 10

// samples collects the measurements of one quantity.
type samples struct {
	v      []float64
	sorted bool
}

func (s *samples) add(x float64) {
	s.v = append(s.v, x)
	s.sorted = false
}

func (s *samples) addMs(d time.Duration) { s.add(float64(d) / 1e6) }

func (s *samples) n() int { return len(s.v) }

// quantile returns the nearest-rank p-quantile. It refuses, naming the
// sample count, when fewer than minTail samples lie beyond p on the side
// of the nearer tail.
func (s *samples) quantile(p float64) (float64, error) {
	n := len(s.v)
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile %g outside (0, 1)", p*100)
	}
	rank := int(math.Ceil(p*float64(n) - 1e-9)) // 1-based nearest rank
	beyond := n - rank
	if p < 0.5 {
		beyond = rank - 1
	}
	if beyond < minTail {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of n=%d", p*100, minTail, beyond, n)
	}
	if !s.sorted {
		sort.Float64s(s.v)
		s.sorted = true
	}
	return s.v[rank-1], nil
}

// median is quantile(0.5) for callers that tolerate too few samples by
// reporting 0 (used only for per-layer figures, which carry their n).
func (s *samples) median() float64 {
	v, err := s.quantile(0.5)
	if err != nil {
		return 0
	}
	return v
}

// windowed returns the median over windows of each window's p-quantile,
// and the number of samples it rests on. A host stall that covers fewer
// than half the windows moves it less than it moves the quantile of the
// pooled samples. Each window must hold minTail samples beyond p.
func windowed(ws []samples, p float64) (float64, int, error) {
	if len(ws) == 0 {
		return 0, 0, fmt.Errorf("p%g: no windows", p*100)
	}
	per := make([]float64, 0, len(ws))
	n := 0
	for i := range ws {
		v, err := ws[i].quantile(p)
		if err != nil {
			return 0, 0, fmt.Errorf("window %d of %d: %w", i, len(ws), err)
		}
		per = append(per, v)
		n += ws[i].n()
	}
	return medianOf(per), n, nil
}

// chunks splits s, in the order its samples were taken, into windows of
// size samples each; a last, short window is dropped.
func chunks(s *samples, size int) []samples {
	var ws []samples
	for i := 0; i+size <= len(s.v); i += size {
		ws = append(ws, samples{v: append([]float64(nil), s.v[i:i+size]...)})
	}
	return ws
}
