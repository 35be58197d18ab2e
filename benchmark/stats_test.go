package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1) // 1..100
	}
	for _, c := range []struct{ p, want float64 }{{0.50, 50}, {0.90, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// A percentile is stated only with ten samples beyond it.
func TestSummarizeSampleCounts(t *testing.T) {
	mk := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // descending: summarize must sort
		}
		return v
	}
	d := summarize(mk(99))
	if d.N != 99 || d.P50 != 50 || d.P90 != 0 || d.P99 != 0 {
		t.Errorf("99 samples: %+v, want p50=50 and no p90/p99", d)
	}
	d = summarize(mk(100))
	if d.P90 != 90 || d.P99 != 0 {
		t.Errorf("100 samples: %+v, want p90=90 and no p99", d)
	}
	d = summarize(mk(1000))
	if d.P50 != 500 || d.P90 != 900 || d.P99 != 990 {
		t.Errorf("1000 samples: %+v", d)
	}
	if d := summarize(nil); d != (dist{}) {
		t.Errorf("no samples: %+v", d)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its input")
	}
}

// Values from Python: statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		data   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 20, 30, 40}, 12.5, 37.5},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.data)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.data, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSpreadShare(t *testing.T) {
	if got := spreadShare([]float64{1, 2, 3}); got != 0 {
		t.Errorf("three values state no spread, got %v", got)
	}
	// 1..10: Q1 2.75, Q3 8.25, median 5.5.
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spreadShare(v), 5.5/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spreadShare = %v, want %v", got, want)
	}
}
