package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"sort"
	"time"

	reap "repro"
	"repro/sim"
)

// The fleet-sim world: the corpus scenario geo-fleet (three regions
// with independent weather) scaled up, solved by the compiled plan,
// with consumption synthesis on. The size keeps one sim.Run near a
// third of a second so a window holds a few dozen runs.
const (
	simScenario = "geo-fleet"
	simDevices  = 128
	simDays     = 4
)

// scenarioJSON renders the workload's scenario config for a seed.
func scenarioJSON(seed int64) ([]byte, error) {
	corpus, err := sim.Corpus()
	if err != nil {
		return nil, err
	}
	sc, err := corpus.Lookup(simScenario)
	if err != nil {
		return nil, err
	}
	cfg, err := sim.ConfigFromScenario(sc)
	if err != nil {
		return nil, err
	}
	cfg.Devices, cfg.Days, cfg.Seed, cfg.Solver = simDevices, simDays, seed, reap.SolverPlan
	return cfg.Encode()
}

// fleetOptions mirrors the options sim.Run builds its fleet with.
func fleetOptions(sc sim.Scenario) []reap.Option {
	alpha := sc.Alpha
	if alpha == 0 {
		alpha = 1
	}
	return []reap.Option{
		reap.WithAlpha(alpha),
		reap.WithBattery(sc.BatteryJ, sc.CapacityJ),
		reap.WithSolver(sc.Solver),
		reap.WithWorkers(sc.Workers),
		reap.WithoutSolveCache(),
	}
}

// simSetup is the fleet-sim set-up: parse the scenario and build its
// fleet.
func simSetup(data []byte) (sim.Scenario, time.Duration, error) {
	start := time.Now()
	sc, err := sim.ParseScenario(data)
	if err != nil {
		return sc, 0, err
	}
	if _, err := reap.NewFleet(sc.Devices, fleetOptions(sc)...); err != nil {
		return sc, 0, err
	}
	return sc, time.Since(start), nil
}

// simSetups repeats the set-up simSetupReps times and returns the
// scenario with the median set-up time in seconds.
func simSetups(data []byte) (sim.Scenario, float64, error) {
	var sc sim.Scenario
	setups := make([]float64, simSetupReps)
	for i := range setups {
		var d time.Duration
		var err error
		if sc, d, err = simSetup(data); err != nil {
			return sc, 0, fmt.Errorf("fleet-sim setup: %w", err)
		}
		setups[i] = d.Seconds()
	}
	return sc, median(setups), nil
}

// simRun is one timed sim.Run.
type simRun struct {
	res *sim.Result
	dur time.Duration
	cpu cpuTimes
}

func runSim(ctx context.Context, sc sim.Scenario) (simRun, error) {
	cpu0, start := selfCPU(), time.Now()
	res, err := sim.Run(ctx, sc)
	dur, cpu1 := time.Since(start), selfCPU()
	return simRun{res: res, dur: dur, cpu: cpu1.sub(cpu0)}, err
}

// comparableSummary drops the wall-clock fields of a run summary.
func comparableSummary(s sim.Summary) sim.Summary {
	s.Elapsed, s.StepsPerSec = 0, 0
	return s
}

func traceHash(res *sim.Result) uint64 {
	h := fnv.New64a()
	h.Write(res.Trace.Bytes())
	return h.Sum64()
}

// tick is one simulated hour as the trace recorded it: the budgets
// Fleet.Run handed to the fleet and the consumption it reported back.
type tick struct {
	budgets, consumed []float64
	allocs            []reap.Allocation
}

func ticksOf(res *sim.Result) []tick {
	tr := res.Trace
	ticks := make([]tick, tr.Steps)
	for i := range ticks {
		ticks[i] = tick{make([]float64, tr.Devices), make([]float64, tr.Devices), make([]reap.Allocation, tr.Devices)}
	}
	for _, r := range tr.Records {
		t := &ticks[r.Step]
		t.budgets[r.Device] = r.BudgetJ
		t.consumed[r.Device] = r.ConsumedJ
		t.allocs[r.Device] = reap.Allocation{Active: r.Active, Off: r.OffS, Dead: r.DeadS}
	}
	return ticks
}

// replayStats is one replay of a run through the public fleet API.
type replayStats struct {
	stepAll, reportAll time.Duration
	ticks              int
	allocs             uint64 // heap objects allocated by StepAll (alloc pass only)
}

// replayFleet feeds a run's recorded ticks through Fleet.StepAll and
// Fleet.ReportAll on a fresh fleet built like sim.Run's. With verify it
// also checks every allocation against the trace; with countAllocs it
// reads the heap-object counter around each StepAll instead of timing.
func replayFleet(ctx context.Context, sc sim.Scenario, ticks []tick, verify, countAllocs bool) (replayStats, error) {
	fleet, err := reap.NewFleet(sc.Devices, fleetOptions(sc)...)
	if err != nil {
		return replayStats{}, err
	}
	var st replayStats
	var ms runtime.MemStats
	for step, t := range ticks {
		var before uint64
		if countAllocs {
			runtime.ReadMemStats(&ms)
			before = ms.Mallocs
		}
		t0 := time.Now()
		allocs, err := fleet.StepAll(ctx, t.budgets)
		t1 := time.Now()
		if countAllocs {
			runtime.ReadMemStats(&ms)
			st.allocs += ms.Mallocs - before
		}
		if err != nil {
			return st, fmt.Errorf("replay step %d: %w", step, err)
		}
		if verify {
			for d, a := range allocs {
				w := t.allocs[d]
				if !sameFloats(a.Active, w.Active) || !sameFloats([]float64{a.Off, a.Dead}, []float64{w.Off, w.Dead}) {
					return st, fmt.Errorf("replay step %d device %d: StepAll %+v, sim.Run recorded %+v", step, d, a, w)
				}
			}
		}
		t2 := time.Now()
		if err := fleet.ReportAll(t.consumed); err != nil {
			return st, fmt.Errorf("replay report %d: %w", step, err)
		}
		st.stepAll += t1.Sub(t0)
		st.reportAll += time.Since(t2)
		st.ticks++
	}
	return st, nil
}

// verifySimRuns checks a window's runs: identical summaries, identical
// trace bytes for the first and last run, and a public-API replay that
// reproduces every recorded allocation.
func verifySimRuns(ctx context.Context, sc sim.Scenario, first, last *sim.Result, summariesDiffer int) []check {
	checks := []check{{Name: "sim.deterministic_summaries", OK: summariesDiffer == 0,
		Detail: fmt.Sprintf("%d runs summarized differently from the first", summariesDiffer)}}
	same := traceHash(first) == traceHash(last)
	checks = append(checks, check{Name: "sim.deterministic_trace", OK: same,
		Detail: "first and last run trace bytes " + map[bool]string{true: "match", false: "differ"}[same]})
	_, err := replayFleet(ctx, sc, ticksOf(last), true, false)
	checks = append(checks, check{Name: "sim.public_replay_matches", OK: err == nil, Detail: errString(err)})
	if last.Summary.Devices*last.Summary.Steps != sc.Devices*sc.Days*24 {
		checks = append(checks, check{Name: "sim.size", Detail: fmt.Sprintf("summary %d×%d", last.Summary.Devices, last.Summary.Steps)})
	}
	return checks
}

// runFleetSim is the fleet-sim workload: in-process sim.Run, repeated
// until the window ends, at GOMAXPROCS=1 like the daemon.
func runFleetSim(ctx context.Context, rc runConfig) (*runResult, error) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	res := newRunResult(rc)
	data, err := scenarioJSON(rc.seed)
	if err != nil {
		return nil, err
	}

	sc, setupS, err := simSetups(data)
	if err != nil {
		return nil, err
	}
	deviceSteps := sc.Devices * sc.Days * 24
	res.Inputs["devices"] = float64(sc.Devices)
	res.Inputs["steps"] = float64(sc.Days * 24)

	un, err := simWindow(ctx, rc, sc, nil)
	if err != nil {
		return nil, err
	}
	res.Phases = un.phases
	res.Checks = append(res.Checks, verifySimRuns(ctx, sc, un.first, un.last, un.differ)...)
	e2e := un.endToEnd(res, setupS)
	if !rc.trace {
		res.Metrics = e2e
		return res, nil
	}

	// Traced window: the same runs, each followed by a replay of its
	// ticks through Fleet.StepAll/ReportAll.
	traced, err := simWindow(ctx, rc, sc, func(r *sim.Result) (replayStats, error) {
		return replayFleet(ctx, sc, ticksOf(r), false, false)
	})
	if err != nil {
		return nil, err
	}
	allocPass, err := replayFleet(ctx, sc, ticksOf(traced.last), false, true)
	if err != nil {
		return nil, err
	}
	for i, p := range traced.phases {
		res.Phases[i].add(p)
	}
	var runTotal, stepAll, reportAll time.Duration
	ticks := 0
	for i, r := range traced.runs {
		runTotal += r.dur
		stepAll += traced.replays[i].stepAll
		reportAll += traced.replays[i].reportAll
		ticks += traced.replays[i].ticks
	}
	n := float64(len(traced.runs))
	lm := layerMetrics()
	lm.set("reap.stepall_us_per_step", us(stepAll)/float64(ticks))
	lm.set("reap.stepall_allocs_per_step", float64(allocPass.allocs)/float64(allocPass.ticks))
	lm.set("reap.reportall_us_per_step", us(reportAll)/float64(ticks))
	lm.set("sim.self_us_per_device_step", us(runTotal-stepAll-reportAll)/(n*float64(deviceSteps)))
	cpu := un.cpu
	lm.set("proc.user_us_per_op", us(cpu.user)/float64(un.ops))
	lm.set("proc.sys_us_per_op", us(cpu.sys)/float64(un.ops))
	_, tracedSetupS, err := simSetups(data)
	if err != nil {
		return nil, err
	}
	lm.overhead(e2e, traced.endToEnd(newRunResult(rc), tracedSetupS))
	res.Metrics = lm.metrics
	return res, nil
}

// simWindowResult is one window of back-to-back sim.Run calls.
type simWindowResult struct {
	runs        []simRun
	replays     []replayStats
	first, last *sim.Result
	differ      int
	phases      []phase
	ops         int
	cpu         cpuTimes
	rssMB       float64
}

// simWindow runs sim.Run back to back: one warm-up run, then runs until
// the window's seconds have elapsed. after, when set, runs between runs
// and outside their timing.
func simWindow(ctx context.Context, rc runConfig, sc sim.Scenario, after func(*sim.Result) (replayStats, error)) (*simWindowResult, error) {
	w := &simWindowResult{phases: newPhases()}
	ops := sc.Devices * sc.Days * 24
	warm, err := runSim(ctx, sc)
	w.phases[phaseWarmup].Attempted += ops
	if err != nil {
		w.phases[phaseWarmup].Failed += ops
		return nil, fmt.Errorf("fleet-sim warm-up: %w", err)
	}
	w.phases[phaseWarmup].Completed += ops
	w.first = warm.res
	want := comparableSummary(warm.res.Summary)
	deadline := time.Now().Add(rc.window())
	for time.Now().Before(deadline) {
		r, err := runSim(ctx, sc)
		w.phases[phaseWindow].Attempted += ops
		if err != nil {
			w.phases[phaseWindow].Failed += ops
			return nil, fmt.Errorf("fleet-sim: %w", err)
		}
		w.phases[phaseWindow].Completed += ops
		if !reflect.DeepEqual(comparableSummary(r.res.Summary), want) {
			w.differ++
		}
		w.ops += ops
		w.cpu.user += r.cpu.user
		w.cpu.sys += r.cpu.sys
		w.last = r.res
		if after != nil {
			st, err := after(r.res)
			if err != nil {
				return nil, err
			}
			w.replays = append(w.replays, st)
		}
		r.res = nil // a run's trace is large; keep only the first and last
		w.runs = append(w.runs, r)
	}
	rss, err := peakRSSMB(selfPID)
	if err != nil {
		return nil, err
	}
	w.rssMB = rss
	return w, nil
}

// endToEnd derives the workload's end-to-end metrics. Each run is a
// slice: throughput (device-steps over the run's wall time) and CPU per
// device-step are medians over runs; latency is per run, p50 and tail
// over all runs of the window.
func (w *simWindowResult) endToEnd(res *runResult, setupS float64) map[string]metric {
	slices := make([]slice, len(w.runs))
	var lat []float64
	for i, r := range w.runs {
		slices[i] = slice{ops: w.ops / len(w.runs), seconds: r.dur.Seconds(), lat: []float64{ms(r.dur)}, cpu: r.cpu.total()}
		lat = append(lat, ms(r.dur))
	}
	f := sliceMedians(slices, res)
	sort.Float64s(lat)
	f.p50 = nearestRank(lat, 0.5)
	var pct float64
	f.p99, pct, _ = tail(lat, 0.99)
	res.Samples["latency_tail_percentile"] = pct
	f.rssMB, f.setupS = w.rssMB, setupS
	return f.metrics()
}
