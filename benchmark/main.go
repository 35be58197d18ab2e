// Command benchmark is the repository's one benchmark: a client's Submit over
// TCP to its COMMIT receipt against a cluster of separate node processes, on
// four named workloads, with a traced pass that breaks the same latency down
// by the stages of Fig 9. See README.md beside this file.
//
// One workload, one pass (what BENCHMARK.json's command runs; the last line
// of standard output is the result object):
//
//	go run ./benchmark --workload rate2k --seed 7 --seconds 20 --trace 0
//
// Every workload, untraced then traced, into one results file:
//
//	go run ./benchmark -seed 7 -out results.json [-repeat 5] [-quick]
//
// Two results files against the bounds:
//
//	go run ./benchmark compare A.json B.json
//
// Run it from the repository root: it builds benchmark/node and keeps every
// file it writes under ./.bench_build.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	buildDir       = ".bench_build"
	defaultSeconds = 20 // BENCHMARK.json's run_seconds
	quickSeconds   = 3
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain())
}

// runMain is main for the measuring modes; it returns the exit code so that
// its deferred clean-up runs on every path.
func runMain() int {
	var (
		name    = flag.String("workload", "", "run this one workload and print its result object (default: run all into -out)")
		seed    = flag.Int64("seed", 1, "seed of payload bytes, key order and the Poisson schedule")
		seconds = flag.Int("seconds", defaultSeconds, "length of the measured window")
		trace   = flag.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics, 1 runs the traced pass for the per-layer metrics")
		out     = flag.String("out", "", "results file of a full set (node stderr and spans are kept beside it)")
		repeat  = flag.Int("repeat", 1, "untraced runs per workload in a full set; the file keeps every value")
		quick   = flag.Bool("quick", false, "3 s windows for smoke use; the numbers are not comparable")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fail(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *quick {
		*seconds = quickSeconds
	}
	if *seconds < 1 || *repeat < 1 {
		return fail(fmt.Errorf("-seconds and -repeat must be at least 1"))
	}
	window := time.Duration(*seconds) * time.Second

	// Children die with the runner on every path: a signal kills them here,
	// a normal return stops them where they were launched, and a runner
	// killed outright closes their stdin, which they treat as "exit".
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killLiveClusters()
		os.Exit(130)
	}()

	runDir, err := filepath.Abs(filepath.Join(buildDir, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(runDir)
	bin, err := buildNode(filepath.Join(filepath.Dir(runDir), "bin"))
	if err != nil {
		return fail(err)
	}
	r := &runner{bin: bin, dir: runDir}

	if *name == "" {
		return r.fullSet(*seed, window, *repeat, *quick, *out)
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fail(fmt.Errorf("unknown workload %q", *name))
	}
	o, err := r.run(w, *seed, window, *trace != 0)
	if err != nil {
		r.dumpLogs(os.Stderr)
		return fail(err)
	}
	for _, p := range o.Problems {
		fmt.Fprintln(os.Stderr, "verification:", p)
	}
	printResult(os.Stdout, o)
	if !o.Correct {
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 1
}

// runner holds what every pass of this process shares.
type runner struct {
	bin  string
	dir  string // scratch, removed at exit
	pass int    // passes launched so far (names their directories)
	logs string // when set, node stderr files are copied here after each pass
}

func (r *runner) passDir() (string, error) {
	r.pass++
	dir := filepath.Join(r.dir, fmt.Sprintf("pass%d", r.pass))
	return dir, os.MkdirAll(dir, 0o755)
}

// run executes one workload once: the untraced pass with its repeated
// set-up, or the traced pass with its probes (and, for a closed loop, an
// untraced reference of the same length to state the tracing overhead).
func (r *runner) run(w workload, seed int64, window time.Duration, traced bool) (*outcome, error) {
	o := &outcome{Metrics: make(map[string]measure)}
	absorb := func(p *pass) {
		a, f := p.counts()
		o.Attempted += a
		o.Failed += f
		o.Problems = append(o.Problems, p.problems...)
		o.GoMaxProcs = p.procs
	}
	do := func(window time.Duration, traced bool, setups int) (*pass, error) {
		kind := "untraced"
		if traced {
			kind = "traced"
		}
		dir, err := r.passDir()
		if err != nil {
			return nil, err
		}
		p, err := runPass(r.bin, dir, w, seed, window, traced, setups)
		if err != nil {
			return nil, err
		}
		r.keepLogs(dir, fmt.Sprintf("%s-%s-pass%d", w.Name, kind, r.pass))
		os.RemoveAll(dir)
		absorb(p)
		return p, nil
	}

	if !traced {
		p, err := do(window, false, setupRounds)
		if err != nil {
			return nil, err
		}
		o.Metrics = p.endToEnd()
	} else {
		var ref *pass
		if w.closedLoop() {
			window /= 2
			var err error
			if ref, err = do(window, false, 1); err != nil {
				return nil, err
			}
		}
		p, err := do(window, true, 1)
		if err != nil {
			return nil, err
		}
		probeDir, err := r.passDir()
		if err != nil {
			return nil, err
		}
		probes, err := runProbes(seed, probeDir)
		os.RemoveAll(probeDir)
		if err != nil {
			return nil, err
		}
		values, spans := p.perLayer(ref, probes)
		o.spans = spans
		for _, def := range perLayerMetrics {
			o.Metrics[def.Name] = measure{Value: values[def.Name], Unit: def.Unit}
		}
	}
	o.Correct = len(o.Problems) == 0
	return o, nil
}

// keepLogs copies a pass's node stderr files beside the results.
func (r *runner) keepLogs(passDir, label string) {
	if r.logs == "" {
		return
	}
	files, _ := filepath.Glob(filepath.Join(passDir, "cluster*", "node*.stderr"))
	for _, f := range files {
		dst := filepath.Join(r.logs, label)
		if err := os.MkdirAll(dst, 0o755); err != nil {
			return
		}
		if data, err := os.ReadFile(f); err == nil {
			os.WriteFile(filepath.Join(dst, filepath.Base(f)), data, 0o644)
		}
	}
}

// dumpLogs prints the tail of every node stderr file still in the scratch
// directory: the first thing wanted when a pass failed.
func (r *runner) dumpLogs(w io.Writer) {
	files, _ := filepath.Glob(filepath.Join(r.dir, "pass*", "cluster*", "node*.stderr"))
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil || len(data) == 0 {
			continue
		}
		if len(data) > 2000 {
			data = data[len(data)-2000:]
		}
		fmt.Fprintf(w, "--- %s\n%s\n", f, data)
	}
}

// printResult writes the result object of the driver contract as one line.
func printResult(w io.Writer, o *outcome) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.Correct, max(o.Attempted, 1), o.Failed, make(map[string]value, len(o.Metrics))}
	names := make([]string, 0, len(o.Metrics))
	for name := range o.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := o.Metrics[name]
		res.Metrics[name] = value{m.Value, m.Unit}
		fmt.Fprintf(os.Stderr, "%-44s %14.4f %-6s", name, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Fprintf(os.Stderr, " n=%d", m.N)
		}
		fmt.Fprintln(os.Stderr)
	}
	line, _ := json.Marshal(res) // plain numbers and strings cannot fail to marshal
	fmt.Fprintln(w, string(line))
}

// environment is the fingerprint recorded with every results file.
type environment struct {
	Host       string  `json:"host"`
	NProc      int     `json:"nproc"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	GoMaxProcs int     `json:"gomaxprocs_runner"`
	Nodes      []int64 `json:"gomaxprocs_nodes,omitempty"`
}

func fingerprint() environment {
	host, _ := os.Hostname()
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{Host: host, NProc: runtime.NumCPU(), Go: runtime.Version(), Commit: commit, GoMaxProcs: runtime.GOMAXPROCS(0)}
}
