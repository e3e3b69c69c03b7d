package main

import (
	"math"
	"sort"
	"time"
)

// samples is a set of measurements of one kind.
type samples []float64

func (s *samples) add(v float64) { *s = append(*s, v) }

// addDur records a duration in milliseconds.
func (s *samples) addDur(d time.Duration) { s.add(float64(d.Nanoseconds()) / 1e6) }

// pct is the nearest-rank percentile (0 for an empty set).
func (s samples) pct(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	i := int(math.Ceil(p/100*float64(len(c)))) - 1
	return c[max(0, min(i, len(c)-1))]
}

// upper is the highest percentile up to p99 — the percentile the
// metrics are named for — that has at least ten samples beyond it, with
// its label; below 20 samples none has, and the maximum is reported
// instead.
func (s samples) upper() (string, float64) {
	for _, p := range []struct {
		label string
		p     float64
	}{{"p99", 99}, {"p95", 95}, {"p90", 90}, {"p75", 75}, {"p50", 50}} {
		if float64(len(s))*(100-p.p)/100 >= 10 {
			return p.label, s.pct(p.p)
		}
	}
	return "max", s.pct(100)
}

func (s samples) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / float64(len(s))
}

// quartiles returns the three cut points of values the way Python's
// statistics.quantiles(values, n=4) computes them (the default
// "exclusive" method), so spreads read the same here as in any other
// tool that checks them.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := max(1, min(i*m/4, n-1))
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}
