package main

import (
	"math"
	"sort"
)

// dist summarises one timing: the median and the percentiles the sample
// supports. A percentile is reported only with at least ten samples beyond
// it (p90 from 100 samples, p99 from 1000); otherwise it is 0 and N says why.
type dist struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
}

// summarize sorts v in place and returns its distribution summary.
func summarize(v []float64) dist {
	sort.Float64s(v)
	d := dist{N: len(v)}
	if len(v) == 0 {
		return d
	}
	d.P50 = percentile(v, 0.50)
	if len(v) >= 100 {
		d.P90 = percentile(v, 0.90)
	}
	if len(v) >= 1000 {
		d.P99 = percentile(v, 0.99)
	}
	return d
}

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// median returns the middle of v (mean of the two middles for even counts)
// without reordering it.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns Q1 and Q3 as Python's statistics.quantiles(v, n=4) gives
// them (the exclusive method), which is how the benchmark's acceptance rule
// measures spread. It needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spreadShare is the interquartile distance of v as a share of its median:
// the run-to-run spread the bounds are judged against. Fewer than four
// values give 0 (no spread can be stated).
func spreadShare(v []float64) float64 {
	if len(v) < 4 {
		return 0
	}
	q1, q3 := quartiles(v)
	m := median(v)
	if m == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(m)
}
