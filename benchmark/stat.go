package main

import (
	"math"
	"sort"

	"upcxx/internal/stats"
)

// median returns the middle of vs (mean of the two middles for even counts).
func median(vs []float64) float64 {
	return (&stats.Sample{Values: vs}).Percentile(50)
}

// quartiles returns the first and third quartile by the exclusive method
// (the default of Python's statistics.quantiles(vs, n=4)), so the numbers
// printed here are the ones the acceptance rule is written against.
func quartiles(vs []float64) (q1, q3 float64) {
	n := len(vs)
	if n < 2 {
		m := median(vs)
		return m, m
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vs []float64) float64 {
	m := median(vs)
	if m == 0 || math.IsNaN(m) {
		return 0
	}
	q1, q3 := quartiles(vs)
	return math.Abs((q3 - q1) / m)
}

// latencySummary condenses one round's per-op samples (ns): the median,
// and the highest percentile that still has at least ten samples beyond
// it, capped at p99.
func latencySummary(ns []int64) (p50, tail float64, tailPct float64) {
	n := len(ns)
	if n == 0 {
		return math.NaN(), math.NaN(), 0
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if n%2 == 1 {
		p50 = float64(s[n/2])
	} else {
		p50 = float64(s[n/2-1]+s[n/2]) / 2
	}
	idx := int(0.99 * float64(n))
	if n-1-idx < 10 {
		idx = n - 11
	}
	if idx < 0 {
		idx = n - 1
	}
	return p50, float64(s[idx]), 100 * float64(idx) / float64(n)
}

// p50us is the median of per-op samples, in µs.
func p50us(ns []int64) float64 {
	p50, _, _ := latencySummary(ns)
	return p50 / 1e3
}
