package main

import (
	"strings"
	"testing"
)

func TestWorsening(t *testing.T) {
	cases := []struct {
		base, now float64
		better    string
		want      float64
	}{
		{100, 110, "lower", 0.10},
		{100, 90, "lower", -0.10},
		{100, 90, "higher", 0.10},
		{100, 120, "higher", -0.20},
		{0, 5, "lower", 0},
	}
	for _, c := range cases {
		if got := worsening(c.base, c.now, c.better); !near(got, c.want) {
			t.Errorf("worsening(%v→%v, better %s) = %v, want %v", c.base, c.now, c.better, got, c.want)
		}
	}
}

func near(a, b float64) bool { return a-b < 1e-9 && b-a < 1e-9 }

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "lat", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "tps", Unit: "1/s", Better: "higher", Bound: 0.10}
	cases := []struct {
		def               metricDef
		base, now, spread float64
		want              string
	}{
		{lower, 100, 109, 0.02, verdictOK},
		{lower, 100, 111, 0.02, verdictRegression},
		{lower, 100, 50, 0.02, verdictOK}, // an improvement is never a regression
		{higher, 100, 91, 0.02, verdictOK},
		{higher, 100, 89, 0.02, verdictRegression},
		{higher, 100, 300, 0.02, verdictOK},
		{lower, 100, 150, 0.11, verdictUnresolved}, // spread beyond the bound: cannot be judged
		{lower, 100, 100, 0.11, verdictUnresolved}, // … not even as unchanged
		{lower, 100, 111, 0.10, verdictRegression}, // spread at the bound still judges
	}
	for _, c := range cases {
		if got := judge(c.def, c.base, c.now, c.spread); got != c.want {
			t.Errorf("judge(%s, %v→%v, spread %v) = %s, want %s", c.def.Name, c.base, c.now, c.spread, got, c.want)
		}
	}
}

func resultsWith(tps []float64, failed int) *results {
	wr := &workloadResult{EndToEnd: make(map[string]*series), Attempted: 1000, Failed: failed, Correct: true}
	for _, def := range endToEndMetrics {
		wr.EndToEnd[def.Name] = &series{Unit: def.Unit, Values: []float64{10}, Median: 10}
	}
	wr.EndToEnd["commit_tps"] = &series{Unit: "1/s", Values: tps, Median: median(tps)}
	return &results{Seconds: defaultSeconds, Workloads: map[string]*workloadResult{"rate2k": wr}}
}

func TestCompareResults(t *testing.T) {
	base := resultsWith([]float64{1000}, 0)
	var out strings.Builder
	if code := compareResults(base, resultsWith([]float64{990}, 0), &out); code != 0 {
		t.Errorf("1%% slower throughput: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "rate2k") || !strings.Contains(out.String(), "commit_tps") || !strings.Contains(out.String(), "0.9900") {
		t.Errorf("the row lacks workload, metric or ratio:\n%s", out.String())
	}
	out.Reset()
	if code := compareResults(base, resultsWith([]float64{500}, 0), &out); code != 1 || !strings.Contains(out.String(), verdictRegression) {
		t.Errorf("halved throughput: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareResults(base, resultsWith([]float64{1000}, 3), &out); code != 1 {
		t.Errorf("a rise in failed operations: exit %d\n%s", code, out.String())
	}
	out.Reset()
	// Five runs each, the second set slower but so scattered that its own
	// spread exceeds the bound: reported, not failed.
	noisy := resultsWith([]float64{300, 500, 700, 900, 1100}, 0)
	if code := compareResults(resultsWith([]float64{1000, 1001, 1002, 1003, 1004}, 0), noisy, &out); code != 0 || !strings.Contains(out.String(), verdictUnresolved) {
		t.Errorf("spread beyond the bound: exit %d\n%s", code, out.String())
	}
}
