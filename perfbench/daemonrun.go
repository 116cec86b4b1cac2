package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/service"
	"repro/wire"
)

// daemonSpec describes one workload served by reapd.
type daemonSpec struct {
	name      string
	journaled bool // -journal with the default interval fsync, plus the benchmark's replication stream
	// inputs generates the workload's seeded inputs and returns a
	// factory of fresh loaders over them.
	inputs func(seed int64) (func() (loader, error), error)
	// layers replays a traced window through the layers' public
	// functions and fills the per-layer metrics.
	layers func(ctx context.Context, tw *tracedWindow, ls *layerSet) error
}

// serviceConfig is the daemon shape every workload runs: reapd's
// defaults (1024 devices over 8 shards, plan-direct) with a small
// battery so a device's budget follows its harvest.
func serviceConfig(journalDir string) service.Config {
	return service.Config{Devices: fleetDevices, CapacityJ: batteryCapJ, JournalDir: journalDir, FsyncPolicy: service.FsyncInterval}
}

// daemonArgs are the reapd flags equivalent to serviceConfig.
func daemonArgs(journalDir string) []string {
	args := []string{"-devices", strconv.Itoa(fleetDevices), "-capacity", strconv.FormatFloat(batteryCapJ, 'g', -1, 64)}
	if journalDir != "" {
		args = append(args, "-journal", journalDir, "-fsync", service.FsyncInterval)
	}
	return args
}

// target is the system under test for one window: the reapd process,
// or (traced) the service handler served inside this process.
type target interface {
	addr() string
	cpu() (cpuTimes, error)
	rssMB() (float64, error)
	stop() error
}

type processTarget struct{ d *daemon }

func (t processTarget) addr() string            { return t.d.addr }
func (t processTarget) cpu() (cpuTimes, error)  { return procCPU(t.d.pid()) }
func (t processTarget) rssMB() (float64, error) { return peakRSSMB(t.d.pid()) }
func (t processTarget) stop() error             { return t.d.stop() }

// inProcessTarget serves service.New(cfg).Handler() behind the tracer's
// wrapper. Its CPU and RSS figures are this whole process's, load
// clients included.
type inProcessTarget struct {
	svc *service.Service
	srv *http.Server
	lis net.Listener
}

func startInProcess(journalDir string, tr *tracer) (*inProcessTarget, error) {
	svc, err := service.New(serviceConfig(journalDir))
	if err != nil {
		return nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	t := &inProcessTarget{svc: svc, lis: lis,
		srv: &http.Server{Handler: tr.wrapHandler(svc.Handler()), ReadHeaderTimeout: 10 * time.Second}}
	go func() { _ = t.srv.Serve(lis) }()
	return t, nil
}

func (t *inProcessTarget) addr() string            { return t.lis.Addr().String() }
func (t *inProcessTarget) cpu() (cpuTimes, error)  { return selfCPU(), nil }
func (t *inProcessTarget) rssMB() (float64, error) { return peakRSSMB(selfPID) }
func (t *inProcessTarget) stop() error {
	// Close (not Shutdown): the hijacked replication stream is not
	// tracked by the server, and the benchmark has already stopped.
	return errors.Join(t.srv.Close(), t.svc.Close())
}

// windowRun is one measured load window against one target.
type windowRun struct {
	w        *window
	recs     [][]record
	setups   []float64
	cpu      cpuTimes // target CPU inside the window
	slices   []slice
	rss      float64
	st0, st1 *wire.StatsResponse // at window start, and after the drain
	stream   followerState
	payloads [][]byte // traced: every journal event the stream carried
	phases   []phase
	ops      int // ops completed inside the window
	requests int // requests answered in the window and drain
}

// session is a booted target plus its replication stream.
type session struct {
	t   target
	f   *follower
	dir string
}

func (s *session) close() error {
	if s.f != nil {
		s.f.close()
	}
	err := s.t.stop()
	if s.dir != "" {
		err = errors.Join(err, os.RemoveAll(s.dir))
	}
	return err
}

// boot starts a target on a fresh journal directory and, on journaled
// workloads, attaches the stream. It returns the set-up time: exec (or
// service.New) to the first 200 on /healthz, plus the stream's hello.
func boot(ctx context.Context, rc runConfig, spec daemonSpec, tr *tracer, n int) (*session, time.Duration, error) {
	s := &session{}
	if spec.journaled {
		s.dir = filepath.Join(rc.state, "journal", fmt.Sprintf("%s-%d-%d-%d", spec.name, rc.seed, selfPID, n))
		if err := os.RemoveAll(s.dir); err != nil {
			return nil, 0, err
		}
	}
	start := time.Now()
	if tr == nil {
		d, err := startDaemon(rc.reapd, daemonArgs(s.dir)...)
		if err != nil {
			return nil, 0, err
		}
		s.t = processTarget{d}
	} else {
		t, err := startInProcess(s.dir, tr)
		if err != nil {
			return nil, 0, err
		}
		s.t = t
	}
	hctx, cancel := context.WithTimeout(ctx, daemonBootTimeout)
	defer cancel()
	if err := waitHealthy(hctx, "http://"+s.t.addr()); err != nil {
		return nil, 0, errors.Join(err, s.close())
	}
	if spec.journaled {
		f, err := attachFollower(s.t.addr(), 0, tr != nil)
		if err == nil {
			s.f = f
			err = f.waitHello(daemonBootTimeout)
		}
		if err != nil {
			return nil, 0, errors.Join(err, s.close())
		}
	}
	return s, time.Since(start), nil
}

// measure boots the target setupReps times (keeping the last boot), runs
// the load window and collects the target's counters around it. The
// caller closes the returned session.
func measure(ctx context.Context, rc runConfig, spec daemonSpec, l loader, tr *tracer) (*windowRun, *session, error) {
	wr := &windowRun{}
	var s *session
	for i := 0; i < setupReps; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, nil, err
			}
		}
		var d time.Duration
		var err error
		if s, d, err = boot(ctx, rc, spec, tr, i); err != nil {
			return nil, nil, fmt.Errorf("boot %d: %w", i, err)
		}
		wr.setups = append(wr.setups, d.Seconds())
	}
	base := "http://" + s.t.addr()
	// A traced window shares the tracer's clock, so client spans and
	// handler spans compare directly.
	epoch := time.Now()
	if tr != nil {
		epoch = tr.epoch
	}
	off := time.Since(epoch)
	wr.w = &window{epoch: epoch, warm: off + warmup, end: off + warmup + rc.window(), slices: rc.slices()}

	// The sampler reads the target's CPU at every slice edge, its stats
	// as the window opens and its peak RSS as it closes.
	type edges struct {
		cpu   []cpuTimes
		stats *wire.StatsResponse
		rss   float64
		err   error
	}
	edgec := make(chan edges, 1)
	go func() {
		var e edges
		for j := 0; j <= wr.w.slices && e.err == nil; j++ {
			time.Sleep(time.Until(wr.w.epoch.Add(wr.w.sliceStart(j))))
			var c cpuTimes
			c, e.err = s.t.cpu()
			e.cpu = append(e.cpu, c)
			if j == 0 && e.err == nil {
				e.stats, e.err = fetchStats(base)
			}
		}
		if e.err == nil {
			e.rss, e.err = s.t.rssMB()
		}
		edgec <- e
	}()
	recs, loadErr := runLoad(ctx, l, base, wr.w, tr)
	e := <-edgec
	if err := errors.Join(loadErr, e.err); err != nil {
		return nil, s, err
	}
	wr.recs, wr.rss, wr.st0 = recs, e.rss, e.stats
	wr.cpu = e.cpu[len(e.cpu)-1].sub(e.cpu[0])
	wr.phases, wr.slices, wr.ops, wr.requests = tally(wr.w, recs)
	for j := range wr.slices {
		wr.slices[j].cpu = e.cpu[j+1].sub(e.cpu[j]).total()
	}
	st1, err := fetchStats(base)
	if err != nil {
		return nil, s, err
	}
	wr.st1 = st1
	if s.f != nil && st1.Journal != nil {
		if err := s.f.waitSeq(st1.Journal.Seq, 10*time.Second); err != nil {
			return nil, s, err
		}
		wr.stream = s.f.snapshot()
		wr.payloads = s.f.takePayloads()
	}
	return wr, s, nil
}

// endToEnd reports the window's metrics: slice medians, the peak RSS at
// the window's end and the median set-up time.
func (wr *windowRun) endToEnd(res *runResult) map[string]metric {
	f := sliceMedians(wr.slices, res)
	f.rssMB, f.setupS = wr.rss, median(wr.setups)
	return f.metrics()
}

// streamChecks verifies acked ⇒ journaled ⇒ shipped: the stream saw
// every journal append, gapless, and nothing else.
func streamChecks(wr *windowRun) []check {
	js := wr.st1.Journal
	if js == nil {
		return []check{{Name: "ship.journal_present", Detail: "/v1/stats has no journal block"}}
	}
	st := wr.stream
	return []check{
		{Name: "ship.stream_healthy", OK: st.err == nil, Detail: errString(st.err)},
		{Name: "ship.gapless_seqs", OK: st.gaps == 0 && st.last == js.Seq,
			Detail: fmt.Sprintf("%d gaps; stream at seq %d, journal at %d", st.gaps, st.last, js.Seq)},
		{Name: "ship.events_equal_appended", OK: uint64(st.events) == js.Appended,
			Detail: fmt.Sprintf("stream carried %d events, journal appended %d", st.events, js.Appended)},
	}
}

// durability kills the daemon with SIGKILL, restarts it on the same
// journal and checks that it recovered at least every acknowledged
// report and step. It returns the restart's time to /healthz 200.
func durability(ctx context.Context, rc runConfig, s *session, ackedReports, ackedSteps int64, res *runResult) (time.Duration, uint64, *wire.StatsResponse, error) {
	pt, ok := s.t.(processTarget)
	if !ok {
		return 0, 0, nil, errors.New("durability check needs the reapd process")
	}
	s.f.close()
	s.f = nil
	pt.d.kill()
	start := time.Now()
	d, err := startDaemon(rc.reapd, daemonArgs(s.dir)...)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	s.t = processTarget{d}
	hctx, cancel := context.WithTimeout(ctx, daemonBootTimeout)
	defer cancel()
	if err := waitHealthy(hctx, "http://"+d.addr); err != nil {
		return 0, 0, nil, err
	}
	replay := time.Since(start)
	st, err := fetchStats("http://" + d.addr)
	if err != nil {
		return 0, 0, nil, err
	}
	var replayed uint64
	if st.Journal != nil {
		replayed = st.Journal.Replayed
	}
	res.Checks = append(res.Checks,
		check{Name: "durable.reports", OK: st.Reports >= uint64(ackedReports),
			Detail: fmt.Sprintf("recovered %d reports, %d acked", st.Reports, ackedReports)},
		check{Name: "durable.steps", OK: st.Steps >= uint64(ackedSteps),
			Detail: fmt.Sprintf("recovered %d steps, %d acked", st.Steps, ackedSteps)})
	return replay, replayed, st, nil
}

// runDaemonWorkload runs a reapd workload: the untraced window against
// the reapd process with its checks and, on journaled workloads, the
// SIGKILL durability check; then, with -trace 1, the traced window.
func runDaemonWorkload(ctx context.Context, rc runConfig, spec daemonSpec) (*runResult, error) {
	res := newRunResult(rc)
	newLoad, err := spec.inputs(rc.seed)
	if err != nil {
		return nil, err
	}
	l, err := newLoad()
	if err != nil {
		return nil, err
	}
	wr, s, err := measure(ctx, rc, spec, l, nil)
	if err != nil {
		if s != nil {
			err = errors.Join(err, s.close())
		}
		return nil, err
	}
	res.Phases = wr.phases
	e2e := wr.endToEnd(res)
	res.Samples["requests"] = float64(wr.requests)
	res.Checks = append(res.Checks, loadChecks(l)...)
	for k, v := range l.shares() {
		res.Inputs[k] = v
	}

	var replay time.Duration
	var replayed uint64
	if spec.journaled {
		res.Checks = append(res.Checks, streamChecks(wr)...)
		res.Inputs["compactions_in_window"] = float64(wr.st1.Journal.Compactions - wr.st0.Journal.Compactions)
		reports, steps := acked(l)
		var st *wire.StatsResponse
		replay, replayed, st, err = durability(ctx, rc, s, reports, steps, res)
		if err != nil {
			return nil, errors.Join(err, s.close())
		}
		if tl, ok := l.(*telemetryLoad); ok {
			want := tl.shadowBatteryJ()
			res.Checks = append(res.Checks, check{Name: "durable.fleet_battery",
				OK:     math.Abs(st.TotalBatteryJ-want) <= 1e-9*math.Max(1, math.Abs(want)),
				Detail: fmt.Sprintf("recovered fleet battery %.9g J, client mirror %.9g J", st.TotalBatteryJ, want)})
		}
	}
	if err := s.close(); err != nil {
		return nil, err
	}
	if !rc.trace {
		res.Metrics = e2e
		return res, nil
	}

	// Traced window: the service handler in-process behind the span
	// wrapper, the same load, then the replay through each layer.
	tl, err := newLoad()
	if err != nil {
		return nil, err
	}
	if err := unpinSelf(); err != nil {
		return nil, err
	}
	tr := newTracer()
	twr, ts, err := measure(ctx, rc, spec, tl, tr)
	if ts != nil {
		if cerr := ts.close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, fmt.Errorf("traced window: %w", err)
	}
	for i, p := range twr.phases {
		res.Phases[i].add(p)
	}
	res.Checks = append(res.Checks, loadChecks(tl)...)
	if spec.journaled {
		for _, c := range streamChecks(twr) {
			c.Name = "traced." + c.Name
			res.Checks = append(res.Checks, c)
		}
	}
	ls := layerMetrics()
	tw := &tracedWindow{wr: twr, tr: tr, load: tl}
	if err := httpLayer(tw, ls); err != nil {
		return nil, err
	}
	// The journal replay runs first: the request replays subtract its
	// per-request share from the handler's self time.
	if spec.journaled {
		if err := journalLayers(rc, tw, ls); err != nil {
			return nil, err
		}
		ls.set("journal.replay_ms", ms(replay))
		ls.set("journal.replayed_events", float64(replayed))
	}
	if err := spec.layers(ctx, tw, ls); err != nil {
		return nil, err
	}
	ls.set("proc.user_us_per_op", us(wr.cpu.user)/float64(wr.ops))
	ls.set("proc.sys_us_per_op", us(wr.cpu.sys)/float64(wr.ops))
	ls.overhead(e2e, twr.endToEnd(newRunResult(rc)))
	res.Samples["traced_requests"] = float64(twr.requests)
	res.Metrics = ls.metrics
	return res, nil
}

// loadChecks are the per-workload output checks made during the load.
func loadChecks(l loader) []check {
	switch l := l.(type) {
	case *solveLoad:
		return l.verify()
	case *reportLoad:
		return []check{{Name: "report.accepted_all", OK: l.mismatch == 0,
			Detail: fmt.Sprintf("%d requests without accepted == %d", l.mismatch, reportsPerReq)}}
	case *telemetryLoad:
		return []check{{Name: "telemetry.results_match_mirror", OK: l.bad == 0,
			Detail: fmt.Sprintf("%d bad results; first: %s", l.bad, l.firstBad)}}
	}
	return nil
}

// acked returns the reports and steps the daemon acknowledged.
func acked(l loader) (reports, steps int64) {
	switch l := l.(type) {
	case *reportLoad:
		return l.acked.Load(), 0
	case *telemetryLoad:
		n := l.acked.Load()
		return n, n // every event carries both a consumption and a harvest
	}
	return 0, 0
}
