package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"

	"repro/benchmark/wire"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// Every name in BENCHMARK.json is well-formed and is one the runner knows,
// with the same unit, direction and bound; and the runner knows no other.
func TestManifestMatchesRunner(t *testing.T) {
	m := loadManifest(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the runner's default window is %d", m.RunSeconds, defaultSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in the runner", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if !name.MatchString(w.Name) {
			t.Errorf("workload name %q is malformed", w.Name)
		}
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: manifest has %q (%q), runner has %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(m.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics in the manifest, %d in the runner", len(m.EndToEnd), len(endToEndMetrics))
	}
	for i, e := range m.EndToEnd {
		d := endToEndMetrics[i]
		if !name.MatchString(e.Name) || e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better || e.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: manifest %+v, runner %+v", i, e, d)
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
	}
	if len(m.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("%d per-layer metrics in the manifest, %d in the runner", len(m.PerLayer), len(perLayerMetrics))
	}
	seen := make(map[string]bool)
	for i, e := range m.PerLayer {
		d := perLayerMetrics[i]
		if !name.MatchString(e.Name) || e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better {
			t.Errorf("per-layer metric %d: manifest %+v, runner %+v", i, e, d)
		}
		if seen[e.Name] {
			t.Errorf("metric %s is declared twice", e.Name)
		}
		seen[e.Name] = true
	}
}

// syntheticPass is a pass with just enough in it for the metric code to run:
// a one-second window, two sessions committing a write every 5 ms in 3 ms,
// four nodes that each burnt 0.1 s of CPU.
func syntheticPass(w workload) *pass {
	p := &pass{w: w, window: time.Second, winStart: warmup, winEnd: warmup + time.Second, epoch: time.Unix(1000, 0), elapsed: time.Second}
	for i := 0; i < sessions; i++ {
		s := &loadSession{clientID: loadClientBase + uint64(i), w: w}
		for k := 0; k < 200; k++ {
			at := warmup + time.Duration(k)*5*time.Millisecond
			s.writes = append(s.writes, write{seq: uint64(k + 1), due: at, sent: at, done: at + 3*time.Millisecond})
		}
		p.sessions = append(p.sessions, s)
	}
	for i := 0; i < clusterSize; i++ {
		p.deltas = append(p.deltas, wire.Stats{wire.ProcCPUNs: 1e8, wire.FloTxs: 400, wire.FloBlocks: 20})
	}
	p.end0 = wire.Stats{wire.FloTxs: 400}
	p.setups = []float64{0.03, 0.05, 0.04}
	return p
}

// The runner emits every declared metric and computes no undeclared one.
func TestRunnerEmitsDeclaredMetrics(t *testing.T) {
	for _, w := range workloads {
		p := syntheticPass(w)
		got := p.endToEnd()
		if len(got) != len(endToEndMetrics) {
			t.Errorf("%s: %d end-to-end metrics computed, %d declared", w.Name, len(got), len(endToEndMetrics))
		}
		for _, def := range endToEndMetrics {
			m, ok := got[def.Name]
			if !ok || m.Unit != def.Unit || !(m.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %+v (present: %v)", w.Name, def.Name, m, ok)
			}
		}
		declared := make(map[string]bool)
		for _, def := range perLayerMetrics {
			declared[def.Name] = true
		}
		values, _ := p.perLayer(nil, map[string]float64{"flcrypto.sign_us": 1})
		for name := range values {
			if !declared[name] {
				t.Errorf("%s: per-layer metric %s is computed but not declared", w.Name, name)
			}
		}
	}
}

// The end-to-end metrics and the commit latencies of the traced pass are
// whole-window figures: receipts in the window per second, the nodes' CPU per
// commit, and percentiles over all of the window's writes.
func TestMetricsOverWholeWindow(t *testing.T) {
	p := syntheticPass(workloads[0])
	// A write that failed and one whose receipt landed after the window
	// count for nothing.
	p.sessions[0].writes[0].failed = true
	p.sessions[1].writes[199].done = p.winEnd + time.Millisecond
	got := p.endToEnd()
	want := map[string]measure{
		"setup_s":       {Value: 0.04, Unit: "s", N: 3},
		"commit_tps":    {Value: 398, Unit: "1/s", N: 398},
		"cpu_us_per_tx": {Value: 4e5 / 398, Unit: "us", N: 398},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %+v, want %+v", name, got[name], w)
		}
	}
	// The slowest tenth of the writes took 9 ms, not 3.
	for i := 0; i < 40; i++ {
		w := &p.sessions[0].writes[1+i]
		w.done = w.due + 9*time.Millisecond
	}
	layer, _ := p.perLayer(nil, nil)
	for name, w := range map[string]float64{"session.commit_p50_ms": 3, "session.commit_p90_ms": 9} {
		if layer[name] != w {
			t.Errorf("%s = %v, want %v", name, layer[name], w)
		}
	}
}
