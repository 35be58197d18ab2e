package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// results is the file a full set writes and compare reads.
type results struct {
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Quick     bool                       `json:"quick,omitempty"` // 3 s windows: not comparable with anything
	Env       environment                `json:"env"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// workloadResult keeps every untraced run's value of each end-to-end metric
// (their median is what compare judges, their quartiles its spread) and the
// one traced pass's per-layer metrics.
type workloadResult struct {
	EndToEnd  map[string]*series `json:"end_to_end"`
	PerLayer  map[string]measure `json:"per_layer"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Correct   bool               `json:"correct"`
	Problems  []string           `json:"problems,omitempty"`
}

type series struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Values []float64 `json:"values"`
	N      []int     `json:"n"` // sample count behind each value
}

// fullSet runs every workload: repeat untraced runs on
// seeds seed, seed+1, …, then one traced pass, and writes the results file.
// It returns the process exit code.
func (r *runner) fullSet(seed int64, window time.Duration, repeat int, quick bool, out string) int {
	res := &results{Seed: seed, Seconds: window.Seconds(), Quick: quick, Env: fingerprint(), Workloads: make(map[string]*workloadResult)}
	if out != "" {
		r.logs = strings.TrimSuffix(out, filepath.Ext(out)) + ".logs"
	}
	code := 0
	for _, w := range workloads {
		wr := &workloadResult{EndToEnd: make(map[string]*series), PerLayer: make(map[string]measure), Correct: true}
		res.Workloads[w.Name] = wr
		absorb := func(o *outcome) {
			wr.Attempted += o.Attempted
			wr.Failed += o.Failed
			wr.Problems = append(wr.Problems, o.Problems...)
			wr.Correct = wr.Correct && o.Correct
			res.Env.Nodes = o.GoMaxProcs
		}
		for i := 0; i < repeat; i++ {
			fmt.Fprintf(os.Stderr, "== %s, seed %d, tracing off\n", w.Name, seed+int64(i))
			o, err := r.run(w, seed+int64(i), window, false)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				r.dumpLogs(os.Stderr)
				return 1
			}
			absorb(o)
			for _, def := range endToEndMetrics {
				s := wr.EndToEnd[def.Name]
				if s == nil {
					s = &series{Unit: def.Unit}
					wr.EndToEnd[def.Name] = s
				}
				s.Values = append(s.Values, o.Metrics[def.Name].Value)
				s.N = append(s.N, o.Metrics[def.Name].N)
				s.Median = median(s.Values)
			}
		}
		fmt.Fprintf(os.Stderr, "== %s, seed %d, traced\n", w.Name, seed)
		o, err := r.run(w, seed, window, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			r.dumpLogs(os.Stderr)
			return 1
		}
		absorb(o)
		wr.PerLayer = o.Metrics
		if r.logs != "" {
			if err := os.MkdirAll(r.logs, 0o755); err == nil {
				err = saveSpans(filepath.Join(r.logs, w.Name+".spans.jsonl"), o.spans)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark: save spans:", err)
				code = 1
			}
		}
		printWorkload(w.Name, wr, quick)
		if !wr.Correct {
			code = 1
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: write results:", err)
			return 1
		}
	}
	return code
}

// printWorkload prints every metric of one workload by name with its unit.
func printWorkload(name string, wr *workloadResult, quick bool) {
	label := ""
	if quick {
		label = "  [quick: not comparable]"
	}
	fmt.Printf("workload %s%s  attempted=%d failed=%d correct=%v\n", name, label, wr.Attempted, wr.Failed, wr.Correct)
	for _, p := range wr.Problems {
		fmt.Printf("  verification: %s\n", p)
	}
	for _, def := range endToEndMetrics {
		s := wr.EndToEnd[def.Name]
		fmt.Printf("  %-44s %14.4f %-6s n=%v", def.Name, s.Median, s.Unit, s.N)
		if len(s.Values) >= 4 {
			fmt.Printf("  spread=%.1f%% of %d runs", 100*spreadShare(s.Values), len(s.Values))
		}
		fmt.Println()
	}
	names := make([]string, 0, len(wr.PerLayer))
	for n := range wr.PerLayer {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-44s %14.4f %s\n", n, wr.PerLayer[n].Value, wr.PerLayer[n].Unit)
	}
}

func loadResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
