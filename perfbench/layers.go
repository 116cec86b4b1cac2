package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	reap "repro"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/replicate"
	"repro/wire"
)

// Replay sample caps: replays run after the traced window, so they
// bound how long a traced run takes, not what the window measures.
const (
	maxReplayRequests = 1000
	maxAllocSamples   = 200
	maxJournalReplay  = 20000
)

// tracedWindow is a traced window's raw material for the layer replays.
type tracedWindow struct {
	wr   *windowRun
	tr   *tracer
	load loader
}

// replayed is one request of the traced window chosen for replay, with
// its handler span.
type replayed struct {
	rec     record
	handler span
}

// sample returns up to max window requests that completed and have a
// handler span, evenly spaced over the window.
func (tw *tracedWindow) sample(max int) []replayed {
	handlers := tw.tr.byName()["service.handler"]
	var all []replayed
	for _, rs := range tw.wr.recs {
		for _, r := range rs {
			hs := handlers[r.id]
			if r.outcome != completed || r.end < tw.wr.w.warm || r.end >= tw.wr.w.end || len(hs) != 1 {
				continue
			}
			all = append(all, replayed{rec: r, handler: hs[0]})
		}
	}
	if max <= 0 || len(all) <= max {
		return all
	}
	out := make([]replayed, max)
	for i := range out {
		out[i] = all[i*len(all)/max]
	}
	return out
}

// httpLayer derives the client-side figures: the client span minus the
// handler span it contains, request and answer bytes, refusals.
func httpLayer(tw *tracedWindow, ls *layerSet) error {
	all := tw.sample(0)
	if len(all) == 0 {
		return errors.New("traced window: no request has a handler span")
	}
	var self, handler time.Duration
	var reqB, respB int
	for _, r := range all {
		client := span{id: r.rec.id, start: r.rec.start, end: r.rec.end}
		self += selfTime(client, []span{r.handler})
		handler += r.handler.dur()
		reqB += r.rec.reqBytes
		respB += r.rec.respBytes
	}
	n := float64(len(all))
	ls.set("http.self_us_per_req", us(self)/n)
	ls.set("http.req_bytes_per_req", float64(reqB)/n)
	ls.set("http.resp_bytes_per_req", float64(respB)/n)
	ls.set("service.handler_us_per_req", us(handler)/n)
	var reqs, refusedReqs int
	for _, rs := range tw.wr.recs {
		for _, r := range rs {
			if r.end >= tw.wr.w.warm && r.end < tw.wr.w.end {
				reqs++
				if r.outcome == refused {
					refusedReqs++
				}
			}
		}
	}
	ls.set("service.refused_per_kreq", 1000*float64(refusedReqs)/float64(reqs))
	return nil
}

// replayClock times consecutive replayed calls of one request as
// replayed child spans.
type replayClock struct {
	tr       *tracer
	id       uint64
	last     time.Duration
	children []span
}

func (tw *tracedWindow) clock(id uint64) *replayClock {
	return &replayClock{tr: tw.tr, id: id, last: tw.tr.now()}
}

// lap closes a child span named name at now and returns its duration.
func (c *replayClock) lap(name string) time.Duration {
	now := c.tr.now()
	s := span{id: c.id, name: name, start: c.last, end: now, replayed: true}
	c.children = append(c.children, s)
	c.tr.add(s)
	c.last = now
	return s.dur()
}

// allocsPer counts heap objects allocated per call of f over n calls.
// Callers run it with nothing else allocating (after the window).
func allocsPer(n int, f func(i int)) float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs-before) / float64(n)
}

// encodeDiscard is the encode writeJSON does, minus the socket.
func encodeDiscard(v any) error { return json.NewEncoder(io.Discard).Encode(v) }

var sink uint64 // keeps benchmark-only results alive

// solveLayers replays batch-solve requests in the handler's order:
// strict decode, ToRequest, reap.SolveBatch, NewSolveResponse, encode.
// The replay runs at GOMAXPROCS=1, as the daemon does.
func solveLayers(ctx context.Context, tw *tracedWindow, ls *layerSet) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	l := tw.load.(*solveLoad)
	sample := tw.sample(maxReplayRequests)
	var decode, convert, solve, encode, self time.Duration
	var items []reap.Request
	for _, r := range sample {
		body := l.bodies[r.rec.input].body
		clk := tw.clock(r.rec.id)
		var req wire.BatchSolveRequest
		if err := wire.DecodeStrict(bytes.NewReader(body), &req); err != nil {
			return err
		}
		decode += clk.lap("wire.decode")
		reqs := make([]reap.Request, len(req.Items))
		for i, it := range req.Items {
			reqs[i] = it.ToRequest()
		}
		convert += clk.lap("wire.convert")
		results := reap.SolveBatch(ctx, reqs)
		solve += clk.lap("reap.solve_batch")
		resp := wire.BatchSolveResponse{V: wire.Version, Results: make([]wire.SolveResult, len(results))}
		for i, res := range results {
			if res.Err != nil {
				resp.Results[i].Error = wire.AsError(res.Err)
				continue
			}
			resp.Results[i].Solve = wire.NewSolveResponse(reqs[i].Config, res.Allocation)
		}
		convert += clk.lap("wire.convert")
		if err := encodeDiscard(&resp); err != nil {
			return err
		}
		encode += clk.lap("wire.encode")
		self += selfTime(r.handler, clk.children)
		items = append(items, reqs...)
	}
	n := float64(len(sample))
	ls.set("wire.decode_us_per_req", us(decode)/n)
	ls.set("wire.convert_us_per_req", us(convert)/n)
	ls.set("reap.solve_batch_us_per_req", us(solve)/n)
	ls.set("wire.encode_us_per_req", us(encode)/n)
	ls.set("service.self_us_per_req", us(self)/n)

	// Per-item layers, timed as loops: one call is tens of nanoseconds.
	start := time.Now()
	for _, it := range items {
		sink ^= it.Config.Fingerprint()
	}
	ls.set("reap.fingerprint_ns_per_item", float64(time.Since(start).Nanoseconds())/float64(len(items)))
	plans := map[uint64]*core.Plan{}
	for _, it := range items {
		if _, ok := plans[it.Config.Fingerprint()]; !ok {
			p, err := core.NewPlan(it.Config)
			if err != nil {
				return err
			}
			plans[it.Config.Fingerprint()] = p
		}
	}
	itemPlans := make([]*core.Plan, len(items))
	for i, it := range items {
		itemPlans[i] = plans[it.Config.Fingerprint()]
	}
	start = time.Now()
	for i, it := range items {
		a, err := itemPlans[i].Solve(it.Budget)
		if err != nil {
			return err
		}
		sink += uint64(len(a.Active))
	}
	ls.set("core.plan_solve_ns_per_item", float64(time.Since(start).Nanoseconds())/float64(len(items)))

	na := min(len(sample), maxAllocSamples)
	ls.set("wire.decode_allocs_per_req", allocsPer(na, func(i int) {
		var req wire.BatchSolveRequest
		_ = wire.DecodeStrict(bytes.NewReader(l.bodies[sample[i].rec.input].body), &req)
	}))
	resps := make([]wire.BatchSolveResponse, na)
	for i := range resps {
		var err error
		if resps[i], err = solvedResponse(ctx, l.bodies[sample[i].rec.input].items); err != nil {
			return err
		}
	}
	ls.set("wire.encode_allocs_per_req", allocsPer(na, func(i int) { _ = encodeDiscard(&resps[i]) }))
	return nil
}

func solvedResponse(ctx context.Context, items []wire.SolveItem) (wire.BatchSolveResponse, error) {
	reqs := make([]reap.Request, len(items))
	for i, it := range items {
		reqs[i] = it.ToRequest()
	}
	resp := wire.BatchSolveResponse{V: wire.Version, Results: make([]wire.SolveResult, len(items))}
	for i, res := range reap.SolveBatch(ctx, reqs) {
		if res.Err != nil {
			return resp, res.Err
		}
		resp.Results[i].Solve = wire.NewSolveResponse(reqs[i].Config, res.Allocation)
	}
	return resp, nil
}

// replayControllers builds controllers shaped like the daemon's devices.
func replayControllers() ([]*reap.Controller, error) {
	fleet, err := reap.NewFleet(fleetDevices, reap.WithBattery(0, batteryCapJ))
	if err != nil {
		return nil, err
	}
	ctls := make([]*reap.Controller, fleetDevices)
	for i := range ctls {
		if ctls[i], err = fleet.Device(i); err != nil {
			return nil, err
		}
	}
	return ctls, nil
}

// journalChildUs is the journal and ship cost the replays attribute to
// one request: appends per request × (append + ship) per append.
func journalChildUs(ls *layerSet) float64 {
	m := ls.metrics
	return m["journal.appends_per_req"].Value * (m["journal.append_us_per_event"].Value + m["replicate.ship_us_per_event"].Value)
}

// reportLayers replays report requests: strict decode, Controller.Report
// per report, encode. The journal and ship children come from
// journalLayers, which runs first.
func reportLayers(ctx context.Context, tw *tracedWindow, ls *layerSet) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	l := tw.load.(*reportLoad)
	ctls, err := replayControllers()
	if err != nil {
		return err
	}
	sample := tw.sample(maxReplayRequests)
	var decode, report, encode, self time.Duration
	reports := 0
	for _, r := range sample {
		clk := tw.clock(r.rec.id)
		var req wire.ReportRequest
		if err := wire.DecodeStrict(bytes.NewReader(l.bodies[r.rec.input].body), &req); err != nil {
			return err
		}
		decode += clk.lap("wire.decode")
		for _, rep := range req.Reports {
			if err := ctls[rep.Device].Report(rep.ConsumedJ); err != nil {
				return err
			}
		}
		report += clk.lap("reap.report")
		reports += len(req.Reports)
		if err := encodeDiscard(&wire.ReportResponse{V: wire.Version, Accepted: len(req.Reports)}); err != nil {
			return err
		}
		encode += clk.lap("wire.encode")
		self += selfTime(r.handler, clk.children)
	}
	n := float64(len(sample))
	ls.set("wire.decode_us_per_req", us(decode)/n)
	ls.set("reap.report_ns_per_report", float64(report.Nanoseconds())/float64(reports))
	ls.set("wire.encode_us_per_req", us(encode)/n)
	ls.set("service.self_us_per_req", us(self)/n-journalChildUs(ls))
	na := min(len(sample), maxAllocSamples)
	ls.set("wire.decode_allocs_per_req", allocsPer(na, func(i int) {
		var req wire.ReportRequest
		_ = wire.DecodeStrict(bytes.NewReader(l.bodies[sample[i].rec.input].body), &req)
	}))
	ls.set("wire.encode_allocs_per_req", allocsPer(na, func(int) {
		_ = encodeDiscard(&wire.ReportResponse{V: wire.Version, Accepted: reportsPerReq})
	}))
	return nil
}

// telemetryLayers replays every event of both streams in order, on
// controllers shaped like the daemon's: decode, Controller.Report,
// Controller.StepContext, FromAllocation, encode.
func telemetryLayers(ctx context.Context, tw *tracedWindow, ls *layerSet) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	l := tw.load.(*telemetryLoad)
	ctls, err := replayControllers()
	if err != nil {
		return err
	}
	handlers := tw.tr.byName()["service.handler"]
	inWindow := map[uint64]bool{}
	for _, r := range tw.sample(0) {
		inWindow[r.rec.id] = true
	}
	var decode, step, convert, encode, self time.Duration
	var lines [][]byte
	var budgets []float64
	n := 0
	for c, events := range l.events {
		for k, ev := range events {
			id := eventID(c, k)
			harvest, consumed := ev.harvestJ, ev.consumed
			line, err := json.Marshal(&wire.TelemetryEvent{V: wire.Version, Device: ev.device, HarvestJ: &harvest, ConsumedJ: &consumed})
			if err != nil {
				return err
			}
			clk := tw.clock(id)
			var got wire.TelemetryEvent
			if err := wire.DecodeStrict(bytes.NewReader(line), &got); err != nil {
				return err
			}
			dDecode := clk.lap("wire.decode")
			ctl := ctls[got.Device]
			if err := ctl.Report(*got.ConsumedJ); err != nil {
				return err
			}
			clk.lap("reap.report")
			alloc, err := ctl.StepContext(ctx, *got.HarvestJ)
			if err != nil {
				return err
			}
			dStep := clk.lap("reap.step")
			wa := wire.FromAllocation(alloc)
			dConvert := clk.lap("wire.convert")
			if err := encodeDiscard(&wire.TelemetryResult{V: wire.Version, Device: got.Device, Allocation: &wa}); err != nil {
				return err
			}
			dEncode := clk.lap("wire.encode")
			budgets = append(budgets, ctl.LastBudget())
			if !inWindow[id] {
				continue
			}
			decode += dDecode
			step += dStep
			convert += dConvert
			encode += dEncode
			self += selfTime(handlers[id][0], clk.children)
			if len(lines) < maxAllocSamples {
				lines = append(lines, line)
			}
			n++
		}
	}
	if n == 0 {
		return errors.New("telemetry replay: no window event has a handler span")
	}
	fn := float64(n)
	ls.set("wire.decode_us_per_req", us(decode)/fn)
	ls.set("reap.step_us_per_event", us(step)/fn)
	ls.set("wire.convert_us_per_req", us(convert)/fn)
	ls.set("wire.encode_us_per_req", us(encode)/fn)
	ls.set("service.self_us_per_req", us(self)/fn-journalChildUs(ls))
	// Report is a few nanoseconds: time it as a loop on fresh controllers.
	fresh, err := replayControllers()
	if err != nil {
		return err
	}
	calls := 0
	start := time.Now()
	for _, events := range l.events {
		for _, ev := range events {
			_ = fresh[ev.device].Report(ev.consumed)
			calls++
		}
	}
	ls.set("reap.report_ns_per_report", float64(time.Since(start).Nanoseconds())/float64(calls))
	plan, err := core.NewPlan(ctls[0].Config())
	if err != nil {
		return err
	}
	start = time.Now()
	for _, b := range budgets {
		a, err := plan.Solve(b)
		if err != nil {
			return err
		}
		sink += uint64(len(a.Active))
	}
	ls.set("core.plan_solve_ns_per_item", float64(time.Since(start).Nanoseconds())/float64(len(budgets)))
	ls.set("wire.decode_allocs_per_req", allocsPer(len(lines), func(i int) {
		var ev wire.TelemetryEvent
		_ = wire.DecodeStrict(bytes.NewReader(lines[i]), &ev)
	}))
	wa := wire.FromAllocation(reap.Allocation{Active: make([]float64, 5)})
	ls.set("wire.encode_allocs_per_req", allocsPer(len(lines), func(int) {
		_ = encodeDiscard(&wire.TelemetryResult{V: wire.Version, Allocation: &wa})
	}))
	return nil
}

// journalLayers derives the journal and replication figures: counts from
// the /v1/stats deltas and the stream, append and ship times from
// replaying the stream's payloads into benchmark-owned stores.
func journalLayers(rc runConfig, tw *tracedWindow, ls *layerSet) error {
	wr := tw.wr
	j0, j1 := wr.st0.Journal, wr.st1.Journal
	appended := j1.Appended - j0.Appended
	ls.set("journal.appends_per_req", float64(appended)/float64(wr.requests))
	ls.set("journal.compactions_per_kevent", 1000*float64(j1.Compactions-j0.Compactions)/float64(appended))
	st := wr.stream
	ls.set("replicate.frames_per_event", float64(st.frames)/float64(st.events))
	ls.set("replicate.frame_bytes_per_event", float64(st.frameBytes)/float64(st.events))
	payloads := wr.payloads
	if len(payloads) == 0 {
		return errors.New("journal replay: the stream carried no events")
	}
	var bytesTotal int
	for _, p := range payloads {
		bytesTotal += len(p) + frameOverhead
	}
	ls.set("journal.bytes_per_event", float64(bytesTotal)/float64(len(payloads)))
	if len(payloads) > maxJournalReplay {
		payloads = payloads[len(payloads)-maxJournalReplay:]
	}

	dir := filepath.Join(rc.state, "replay", fmt.Sprintf("%s-%d-%d", rc.workload, rc.seed, selfPID))
	defer os.RemoveAll(dir)
	store, err := openStore(filepath.Join(dir, "store"))
	if err != nil {
		return err
	}
	defer store.Close()
	start := time.Now()
	for _, p := range payloads {
		if _, err := store.Append(p); err != nil {
			return err
		}
	}
	appendUs := us(time.Since(start)) / float64(len(payloads))

	hubUs, err := hubAppendUs(filepath.Join(dir, "hub"), payloads)
	if err != nil {
		return err
	}
	ls.set("journal.append_us_per_event", appendUs)
	ls.set("replicate.ship_us_per_event", hubUs-appendUs)
	return nil
}

// frameOverhead is the journal framing around each payload.
var frameOverhead = len(journal.EncodeFrame(nil))

func openStore(dir string) (*journal.Store, error) {
	// The daemon's store options under -fsync interval: no per-append
	// sync, four segments retained for replication.
	store, err := journal.Open(dir, journal.Options{RetainSegments: 4})
	if err != nil {
		return nil, err
	}
	if err := store.Start(func([]byte) error { return nil }); err != nil {
		store.Close()
		return nil, err
	}
	return store, nil
}

// hubAppendUs times replicate.Hub.Append with one live stream whose
// reader discards every frame.
func hubAppendUs(dir string, payloads [][]byte) (float64, error) {
	store, err := openStore(dir)
	if err != nil {
		return 0, err
	}
	defer store.Close()
	hub := replicate.NewHub(replicate.HubConfig{Store: store, Epoch: func() uint64 { return 1 }})
	defer hub.Close()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_ = hub.ServeStream(r.Context(), w, "discard", 0, false)
	})}
	go func() { _ = srv.Serve(lis) }()
	defer srv.Close()
	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		return 0, err
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		_, _ = io.Copy(io.Discard, conn)
	}()
	defer func() { conn.Close(); <-drained }()
	if _, err := io.WriteString(conn, "GET /v1/replicate HTTP/1.1\r\nHost: replay\r\n\r\n"); err != nil {
		return 0, err
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if fs := hub.Followers(); len(fs) == 1 && fs[0].Live {
			break
		}
		if time.Now().After(deadline) {
			return 0, errors.New("replay hub: discarding stream never attached")
		}
	}
	start := time.Now()
	for _, p := range payloads {
		if _, err := hub.Append(p); err != nil {
			return 0, err
		}
	}
	return us(time.Since(start)) / float64(len(payloads)), nil
}
