package main

import (
	"fmt"
	"io"
	"math"
)

// verdict of one (workload, end-to-end metric) pair.
const (
	verdictOK         = "ok"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
)

// worsening returns by what share of base a metric got worse going from base
// to now (negative: it improved).
func worsening(base, now float64, better string) float64 {
	if base == 0 {
		return 0
	}
	if better == "higher" {
		return (base - now) / math.Abs(base)
	}
	return (now - base) / math.Abs(base)
}

// judge applies the benchmark's rule to one pair of medians: where either
// side's own run-to-run spread exceeds the bound the pair cannot be judged;
// otherwise a worsening beyond the bound is a regression.
func judge(def metricDef, base, now, spread float64) string {
	switch {
	case spread > def.Bound:
		return verdictUnresolved
	case worsening(base, now, def.Better) > def.Bound:
		return verdictRegression
	default:
		return verdictOK
	}
}

// compareMain implements `benchmark compare A.json B.json`: one row per
// (workload, end-to-end metric) with both medians, the ratio B/A (base A)
// and the bound. It returns 1 on any regression or any rise in the share of
// failed operations, 2 on unusable input.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(w, "usage: benchmark compare A.json B.json")
		return 2
	}
	a, err := loadResults(args[0])
	if err == nil {
		var b *results
		if b, err = loadResults(args[1]); err == nil {
			return compareResults(a, b, w)
		}
	}
	fmt.Fprintln(w, "benchmark compare:", err)
	return 2
}

func compareResults(a, b *results, w io.Writer) int {
	code := 0
	if a.Quick || b.Quick {
		fmt.Fprintln(w, "note: a -quick set is not comparable; rows below are for smoke use only")
	}
	if a.Seconds != b.Seconds {
		fmt.Fprintf(w, "note: window lengths differ (%gs vs %gs)\n", a.Seconds, b.Seconds)
	}
	fmt.Fprintf(w, "%-8s %-16s %14s %14s %9s %7s %7s  %s\n", "workload", "metric", "A (base)", "B", "B/A", "bound", "spread", "verdict")
	for _, wl := range workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if ra == nil || rb == nil {
			continue
		}
		for _, def := range endToEndMetrics {
			sa, sb := ra.EndToEnd[def.Name], rb.EndToEnd[def.Name]
			if sa == nil || sb == nil {
				continue
			}
			spread := math.Max(spreadShare(sa.Values), spreadShare(sb.Values))
			v := judge(def, sa.Median, sb.Median, spread)
			if v == verdictRegression {
				code = 1
			}
			fmt.Fprintf(w, "%-8s %-16s %14.4f %14.4f %9.4f %6.0f%% %6.1f%%  %s\n",
				wl.Name, def.Name, sa.Median, sb.Median, ratio(sb.Median, sa.Median), 100*def.Bound, 100*spread, v)
		}
		fa, fb := ratio(float64(ra.Failed), float64(ra.Attempted)), ratio(float64(rb.Failed), float64(rb.Attempted))
		v := verdictOK
		if fb > fa || (!rb.Correct && ra.Correct) {
			v, code = verdictRegression, 1
		}
		fmt.Fprintf(w, "%-8s %-16s %14.6f %14.6f %9s %7s %7s  %s\n", wl.Name, "fail_share", fa, fb, "", "rise", "", v)
	}
	return code
}
