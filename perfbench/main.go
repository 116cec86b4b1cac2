// Command perfbench is the repository's benchmark: for one workload and
// seed it generates the inputs, drives the system under test for a
// fixed window, checks every output, and prints each metric with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// separate traced run adds span-derived per-layer metrics and the
// tracing overhead. Run it through run.sh from the repository root,
// which builds reapd and this program first. NOTES.md describes the
// workloads, the metrics and the layer each should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Run-level constants shared by every workload.
const (
	warmup       = 2 * time.Second // load before the window opens
	setupReps    = 9               // daemon boots per run; setup_s is their median
	simSetupReps = 15              // fleet-sim set-ups per run
	sliceLength  = 5 * time.Second // figures are medians over slices of the window this long
)

var selfPID = os.Getpid()

type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	reapd    string // daemon binary
	state    string // working directory inside the checkout
}

// window is one measurement window's length. A traced run measures two
// windows, untraced and traced, of half the length each, so it takes
// about as long as an untraced run.
func (rc runConfig) window() time.Duration {
	if rc.trace {
		return time.Duration(rc.seconds) * time.Second / 2
	}
	return time.Duration(rc.seconds) * time.Second
}

// slices is how many equal slices a window is cut into for medians.
func (rc runConfig) slices() int { return max(1, int(rc.window()/sliceLength)) }

// check is one correctness assertion of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is everything one run measured; it is written to the run
// record and summarized on standard output.
type runResult struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  int                `json:"seconds"`
	Trace    bool               `json:"trace"`
	Checks   []check            `json:"checks"`
	Phases   []phase            `json:"phases"`
	Inputs   map[string]float64 `json:"inputs"`
	Samples  map[string]float64 `json:"samples"`
	// Slices holds each slice's throughput, p50, tail and CPU per op, in
	// window order; the end-to-end figures are their medians.
	Slices  [][4]float64      `json:"slices,omitempty"`
	Metrics map[string]metric `json:"metrics"`
}

func newRunResult(rc runConfig) *runResult {
	return &runResult{
		Workload: rc.workload, Seed: rc.seed, Seconds: rc.seconds, Trace: rc.trace,
		Phases: newPhases(), Inputs: map[string]float64{}, Samples: map[string]float64{},
	}
}

func newPhases() []phase {
	ps := make([]phase, numPhases)
	for i := range ps {
		ps[i].Name = phaseNames[i]
	}
	return ps
}

// correct reports whether every check passed and no op failed.
func (r *runResult) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	t := totals(r.Phases)
	return t.Failed == 0 && t.balanced()
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, runConfig) (*runResult, error){
	"solve-batch": func(ctx context.Context, rc runConfig) (*runResult, error) {
		return runDaemonWorkload(ctx, rc, solveSpec)
	},
	"report-replicated": func(ctx context.Context, rc runConfig) (*runResult, error) {
		return runDaemonWorkload(ctx, rc, reportSpec)
	},
	"telemetry-replicated": func(ctx context.Context, rc runConfig) (*runResult, error) {
		return runDaemonWorkload(ctx, rc, telemetrySpec)
	},
	"fleet-sim": runFleetSim,
}

func main() {
	var rc runConfig
	var traceFlag int
	var spinMode bool
	flag.StringVar(&rc.workload, "workload", "", "workload to run: solve-batch | report-replicated | telemetry-replicated | fleet-sim")
	flag.Int64Var(&rc.seed, "seed", 1, "input seed")
	flag.IntVar(&rc.seconds, "seconds", 10, "measurement window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 adds a traced run and reports per-layer metrics")
	flag.StringVar(&rc.reapd, "reapd", ".bench_build/reapd", "reapd binary built from the tree under test")
	flag.StringVar(&rc.state, "state", ".bench_build", "working directory for journals, replays and run records")
	flag.BoolVar(&spinMode, "spin", false, "internal: run as the idle-priority CPU spinner (see spin.go)")
	flag.Parse()
	if spinMode {
		spin()
	}
	rc.trace = traceFlag == 1
	run, ok := workloads[rc.workload]
	if !ok || rc.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", rc.workload, rc.seconds, traceFlag)
		os.Exit(2)
	}
	os.Exit(runAndReport(rc, run))
}

// runAndReport runs one workload with the spinner going and returns the
// exit code: 0 for a correct run, 1 otherwise.
func runAndReport(rc runConfig, run func(context.Context, runConfig) (*runResult, error)) int {
	spinner, err := startSpinner()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer stopSpinner(spinner)
	// The spinner reads the CPUs it may use when it starts, so this
	// process pins itself only afterwards.
	if err := pinSelf(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	res, err := run(ctx, rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", rc.workload, rc.seed, err)
		return 1
	}
	if err := report(rc, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.correct() {
		return 1
	}
	return 0
}

// report writes the run record and prints the summary, ending with the
// one-line JSON result.
func report(rc runConfig, res *runResult) error {
	dir := filepath.Join(rc.state, "runs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", rc.workload, rc.seed, map[bool]int{false: 0, true: 1}[rc.trace])
	if err := os.WriteFile(filepath.Join(dir, name), rec, 0o644); err != nil {
		return err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "workload %s seed %d window %ds trace %v\n", res.Workload, res.Seed, res.Seconds, res.Trace)
	for _, c := range res.Checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "check %s %s %s\n", status, c.Name, c.Detail)
	}
	for _, p := range append(res.Phases, totals(res.Phases)) {
		fmt.Fprintf(&b, "phase %-8s ops_attempted %d ops_completed %d ops_failed %d ops_refused %d\n",
			p.Name, p.Attempted, p.Completed, p.Failed, p.Refused)
	}
	for _, k := range sortedKeys(res.Inputs) {
		fmt.Fprintf(&b, "input %s %.6g\n", k, res.Inputs[k])
	}
	for _, k := range sortedKeys(res.Samples) {
		fmt.Fprintf(&b, "sample %s %.6g\n", k, res.Samples[k])
	}
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Fprintf(&b, "metric %s %.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	t := totals(res.Phases)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct(), t.Attempted, t.Failed + t.Refused, res.Metrics})
	if err != nil {
		return err
	}
	b.Write(line)
	b.WriteByte('\n')
	_, err = os.Stdout.WriteString(b.String())
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
