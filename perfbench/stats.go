package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks, and how many samples lie
// strictly above it — the support a tail percentile stands on.
func percentile(xs []float64, q float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	value = s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	beyond = len(s) - sort.Search(len(s), func(i int) bool { return s[i] > value })
	return value, beyond
}

// median is percentile(xs, 0.5) without the tail count.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// quartiles returns the first and third quartiles with the method of
// Python's statistics.quantiles(xs, n=4) (the default "exclusive"
// method), so spreads computed here match the acceptance check. It
// needs at least two samples; with one, both quartiles are that sample.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := len(s) + 1
	q := func(i int) float64 {
		j := i * m / n
		j = min(max(j, 1), len(s)-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(q3-q1) / math.Abs(m)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
