package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	reap "repro"
	"repro/wire"
)

// loadClients is the number of closed-loop connections: each sends its
// next request only after the previous answer arrived.
const loadClients = 2

type outcome uint8

const (
	completed outcome = iota
	failed
	refused // 429 or 503: the daemon declined the work
)

// record is one request (one event on telemetry) as the client saw it.
type record struct {
	id         uint64        // requestID, or eventID on telemetry
	start, end time.Duration // since the window's epoch
	ops        int
	outcome    outcome
	input      int // solve/report body index, or event number in its stream
	reqBytes   int
	respBytes  int
}

// window fixes a run's load schedule: warm-up until warm, measurement
// until end, both measured from epoch, the measurement cut into equal
// slices. A request belongs to the phase and slice in which it finished.
type window struct {
	epoch     time.Time
	warm, end time.Duration
	slices    int
}

func (w *window) sliceStart(j int) time.Duration {
	return w.warm + time.Duration(j)*(w.end-w.warm)/time.Duration(w.slices)
}

// sliceOf returns the slice a request finishing at end belongs to, or
// -1 outside the measurement.
func (w *window) sliceOf(end time.Duration) int {
	if end < w.warm || end >= w.end {
		return -1
	}
	return int(int64(end-w.warm) * int64(w.slices) / int64(w.end-w.warm))
}

func (w *window) since() time.Duration { return time.Since(w.epoch) }

func (w *window) phaseOf(end time.Duration) int {
	switch {
	case end < w.warm:
		return phaseWarmup
	case end < w.end:
		return phaseWindow
	default:
		return phaseDrain
	}
}

// tally sorts a window's requests into phases by when they finished,
// and the completed ones inside the measurement into slices (CPU is
// left for the caller). It returns the phases, the slices, the ops
// completed inside the measurement and the requests answered from the
// window's opening on.
func tally(w *window, recs [][]record) (phases []phase, slices []slice, ops, requests int) {
	phases = newPhases()
	slices = make([]slice, w.slices)
	for j := range slices {
		slices[j].seconds = (w.sliceStart(j+1) - w.sliceStart(j)).Seconds()
	}
	for _, rs := range recs {
		for _, r := range rs {
			p := &phases[w.phaseOf(r.end)]
			p.Attempted += r.ops
			switch r.outcome {
			case completed:
				p.Completed += r.ops
			case failed:
				p.Failed += r.ops
			case refused:
				p.Refused += r.ops
			}
			if r.end >= w.warm {
				requests++
			}
			if j := w.sliceOf(r.end); j >= 0 && r.outcome == completed {
				ops += r.ops
				slices[j].ops += r.ops
				slices[j].lat = append(slices[j].lat, ms(r.end-r.start))
			}
		}
	}
	return phases, slices, ops, requests
}

// Phase indices into a run's phase list.
const (
	phaseSetup = iota
	phaseWarmup
	phaseWindow
	phaseDrain
	phaseRecovery
	numPhases
)

var phaseNames = [numPhases]string{"setup", "warmup", "window", "drain", "recovery"}

// loader drives one workload's closed loop against a base URL.
type loader interface {
	// client runs connection c until the window ends.
	client(ctx context.Context, c int, base string, w *window, tr *tracer) ([]record, error)
	// shares reports the measured share of each input property.
	shares() map[string]float64
}

// runLoad runs every client to the end of the window and returns their
// records.
func runLoad(ctx context.Context, l loader, base string, w *window, tr *tracer) ([][]record, error) {
	var wg sync.WaitGroup
	recs := make([][]record, loadClients)
	errs := make([]error, loadClients)
	for c := 0; c < loadClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			recs[c], errs[c] = l.client(ctx, c, base, w, tr)
		}(c)
	}
	wg.Wait()
	return recs, errors.Join(errs...)
}

// newHTTPClient returns a client holding exactly one connection.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost:   1,
		MaxConnsPerHost:       1,
		DisableCompression:    true,
		ExpectContinueTimeout: time.Second,
		ResponseHeaderTimeout: 10 * time.Second,
	}}
}

// post sends one pre-encoded body and reads the whole answer into buf.
func post(ctx context.Context, cl *http.Client, url string, body []byte, id uint64, tr *tracer, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tr != nil {
		req.Header.Set(traceHeader, strconv.FormatUint(id, 10))
	}
	resp, err := cl.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

func classify(status int) outcome {
	switch status {
	case http.StatusOK:
		return completed
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return refused
	default:
		return failed
	}
}

// requestID numbers client c's i-th request uniquely across clients.
func requestID(c, i int) uint64 { return uint64(i)*loadClients + uint64(c) }

// ---- solve-batch ----

// solveLoad posts the seeded batch bodies and checks that each distinct
// body always gets a byte-identical answer.
type solveLoad struct {
	bodies []solveBody

	mu       sync.Mutex
	first    [][]byte // first answer seen per body
	sent     []int    // requests sent per body
	mismatch int
}

func newSolveLoad(bodies []solveBody) *solveLoad {
	return &solveLoad{bodies: bodies, first: make([][]byte, len(bodies)), sent: make([]int, len(bodies))}
}

func (l *solveLoad) client(ctx context.Context, c int, base string, w *window, tr *tracer) ([]record, error) {
	cl := newHTTPClient()
	defer cl.CloseIdleConnections()
	url := base + "/v1/batch-solve"
	var buf bytes.Buffer
	var recs []record
	for i := 0; w.since() < w.end; i++ {
		b := (c*len(l.bodies)/loadClients + i) % len(l.bodies)
		body := l.bodies[b].body
		start := w.since()
		status, err := post(ctx, cl, url, body, requestID(c, i), tr, &buf)
		rec := record{id: requestID(c, i), start: start, end: w.since(), ops: len(l.bodies[b].items), input: b,
			reqBytes: len(body), respBytes: buf.Len()}
		if err != nil {
			return recs, fmt.Errorf("batch-solve: %w", err)
		}
		rec.outcome = classify(status)
		if rec.outcome == completed && !l.observe(b, buf.Bytes()) {
			rec.outcome = failed
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

func (l *solveLoad) observe(b int, resp []byte) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sent[b]++
	if l.first[b] == nil {
		l.first[b] = append([]byte(nil), resp...)
		return true
	}
	if !bytes.Equal(l.first[b], resp) {
		l.mismatch++
		return false
	}
	return true
}

// verify checks every body's first answer against an in-process
// reap.SolveBatch of the same items, and the paper's 5 J headline.
func (l *solveLoad) verify() []check {
	checks := []check{{Name: "solve.byte_identical_repeats", OK: l.mismatch == 0,
		Detail: fmt.Sprintf("%d responses differed from their body's first answer", l.mismatch)}}
	bad, unseen := 0, 0
	var firstErr error
	for b, raw := range l.first {
		if raw == nil {
			unseen++
			continue
		}
		if err := matchInProcess(l.bodies[b].items, raw); err != nil {
			bad++
			if firstErr == nil {
				firstErr = fmt.Errorf("body %d: %w", b, err)
			}
		}
	}
	checks = append(checks, check{Name: "solve.matches_in_process", OK: bad == 0 && unseen < len(l.first),
		Detail: fmt.Sprintf("%d bodies differ from reap.SolveBatch, %d never sent; first: %v", bad, unseen, firstErr)})
	if l.first[0] != nil {
		err := checkHeadline(l.first[0])
		checks = append(checks, check{Name: "solve.paper_headline_5J", OK: err == nil, Detail: errString(err)})
	} else {
		checks = append(checks, check{Name: "solve.paper_headline_5J", Detail: "headline body never answered"})
	}
	return checks
}

// matchInProcess decodes a batch answer and compares every field, bit
// for bit, with the allocation reap.SolveBatch computes locally.
func matchInProcess(items []wire.SolveItem, raw []byte) error {
	var got wire.BatchSolveResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		return fmt.Errorf("decoding answer: %w", err)
	}
	if len(got.Results) != len(items) {
		return fmt.Errorf("%d results for %d items", len(got.Results), len(items))
	}
	reqs := make([]reap.Request, len(items))
	for i, it := range items {
		reqs[i] = it.ToRequest()
	}
	for i, res := range reap.SolveBatch(context.Background(), reqs) {
		if res.Err != nil {
			return fmt.Errorf("item %d: in-process solve failed: %w", i, res.Err)
		}
		g := got.Results[i]
		if g.Error != nil || g.Solve == nil {
			return fmt.Errorf("item %d: daemon answered error %v", i, g.Error)
		}
		want := wire.NewSolveResponse(reqs[i].Config, res.Allocation)
		if !sameFloats(g.Solve.Allocation.ActiveS, want.Allocation.ActiveS) ||
			!sameFloats([]float64{g.Solve.Allocation.OffS, g.Solve.Allocation.DeadS, g.Solve.EnergyJ, g.Solve.ExpectedAccuracy},
				[]float64{want.Allocation.OffS, want.Allocation.DeadS, want.EnergyJ, want.ExpectedAccuracy}) {
			return fmt.Errorf("item %d (budget %v J): daemon %+v, in-process %+v", i, items[i].BudgetJ, *g.Solve, *want)
		}
	}
	return nil
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkHeadline verifies item 0 of body 0, the default configuration at
// 5 J: DP4 1545.45 s and DP5 2054.55 s (42.9% / 57.1% of active time),
// expected accuracy 0.8201.
func checkHeadline(raw []byte) error {
	var got wire.BatchSolveResponse
	if err := json.Unmarshal(raw, &got); err != nil || len(got.Results) == 0 || got.Results[0].Solve == nil {
		return fmt.Errorf("headline item missing (%v)", err)
	}
	s := got.Results[0].Solve
	a := s.Allocation.ActiveS
	if len(a) != 5 {
		return fmt.Errorf("headline: %d design points", len(a))
	}
	active := a[0] + a[1] + a[2] + a[3] + a[4]
	round := func(v, unit float64) float64 { return math.Round(v/unit) * unit }
	ok := a[0] == 0 && a[1] == 0 && a[2] == 0 &&
		math.Abs(round(a[3], 0.01)-1545.45) < 1e-6 && math.Abs(round(a[4], 0.01)-2054.55) < 1e-6 &&
		math.Abs(round(100*a[3]/active, 0.1)-42.9) < 1e-6 && math.Abs(round(100*a[4]/active, 0.1)-57.1) < 1e-6 &&
		math.Abs(round(s.ExpectedAccuracy, 0.0001)-0.8201) < 1e-9
	if !ok {
		return fmt.Errorf("headline: active %v s, expected accuracy %v", a, s.ExpectedAccuracy)
	}
	return nil
}

// ---- report-replicated ----

// reportLoad posts the seeded sorted report batches.
type reportLoad struct {
	bodies   []reportBody
	acked    atomic.Int64 // reports the daemon accepted
	mu       sync.Mutex
	sent     []int
	mismatch int
}

func newReportLoad(bodies []reportBody) *reportLoad {
	return &reportLoad{bodies: bodies, sent: make([]int, len(bodies))}
}

func (l *reportLoad) client(ctx context.Context, c int, base string, w *window, tr *tracer) ([]record, error) {
	cl := newHTTPClient()
	defer cl.CloseIdleConnections()
	url := base + "/v1/report"
	var buf bytes.Buffer
	var recs []record
	for i := 0; w.since() < w.end; i++ {
		b := (c*len(l.bodies)/loadClients + i) % len(l.bodies)
		body := l.bodies[b]
		start := w.since()
		status, err := post(ctx, cl, url, body.body, requestID(c, i), tr, &buf)
		rec := record{id: requestID(c, i), start: start, end: w.since(), ops: len(body.reports), input: b,
			reqBytes: len(body.body), respBytes: buf.Len()}
		if err != nil {
			return recs, fmt.Errorf("report: %w", err)
		}
		rec.outcome = classify(status)
		if rec.outcome == completed {
			var resp wire.ReportResponse
			if err := json.Unmarshal(buf.Bytes(), &resp); err != nil || resp.Accepted != len(body.reports) {
				rec.outcome = failed
			} else {
				l.acked.Add(int64(resp.Accepted))
			}
		}
		l.mu.Lock()
		l.sent[b]++
		if rec.outcome == failed {
			l.mismatch++
		}
		l.mu.Unlock()
		recs = append(recs, rec)
	}
	return recs, nil
}

// ---- telemetry-replicated ----

// telemetryStall is how long a stream may go without an answer before
// the client gives up loudly instead of hanging.
const telemetryStall = 5 * time.Second

// errStall explains the one known way a telemetry stream stops
// answering; see NOTES.md.
var errStall = errors.New("telemetry stream made no progress for 5s: /v1/telemetry only interleaves " +
	"results when the client sends Expect: 100-continue (the handler never enables full duplex)")

// telemetryLoad runs one long-lived NDJSON stream per client. Each
// stream sends one event and waits for its result line before sending
// the next, and mirrors every device it owns in a local controller: each
// streamed allocation must equal the mirror's, bit for bit.
type telemetryLoad struct {
	acked    atomic.Int64 // events answered without error
	mu       sync.Mutex
	regions  map[string]int // step budgets per Classify region
	bad      int
	firstBad string
	streams  [loadClients][]telemetryInput
	shadow   []*reap.Controller // per device
	// events holds, per stream, every event sent (traced runs replay
	// them through the layers in order).
	events [loadClients][]sentEvent
}

type sentEvent struct {
	device             int
	harvestJ, consumed float64
}

func newTelemetryLoad(seed int64) (*telemetryLoad, error) {
	l := &telemetryLoad{regions: map[string]int{}, shadow: make([]*reap.Controller, fleetDevices)}
	for c := range l.streams {
		l.streams[c] = genTelemetry(seed, c, loadClients)
	}
	for d := range l.shadow {
		ctl, err := reap.New(reap.WithBattery(0, batteryCapJ))
		if err != nil {
			return nil, err
		}
		l.shadow[d] = ctl
	}
	return l, nil
}

type streamResp struct {
	resp *http.Response
	err  error
}

func (l *telemetryLoad) client(ctx context.Context, c int, base string, w *window, tr *tracer) ([]record, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	cl := newHTTPClient()
	defer cl.CloseIdleConnections()
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/telemetry", pr)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	// Without this header the server drains the body before its first
	// flush and an interleaving client deadlocks; see NOTES.md.
	req.Header.Set("Expect", "100-continue")
	if tr != nil {
		req.Header.Set(traceHeader, strconv.Itoa(c))
	}
	respc := make(chan streamResp, 1)
	go func() {
		resp, err := cl.Do(req)
		respc <- streamResp{resp, err}
	}()

	// Watchdog: a stream without progress for telemetryStall is torn
	// down, which unblocks the pending write or read with an error.
	var progress atomic.Int64
	progress.Store(int64(w.since()))
	var stalled atomic.Bool
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-watchDone:
				return
			case <-t.C:
				if w.since()-time.Duration(progress.Load()) > telemetryStall {
					stalled.Store(true)
					pw.CloseWithError(errStall)
					cancel()
					return
				}
			}
		}
	}()
	fail := func(err error) error {
		if stalled.Load() {
			return errStall
		}
		return err
	}

	var (
		recs     []record
		body     *bufio.Reader
		resp     *http.Response
		answered bool // respc has been received from
		line     []byte
		planned  = map[int]float64{}
		events   = l.streams[c]
	)
	defer func() {
		pw.Close()
		if !answered {
			if r := <-respc; r.resp != nil {
				r.resp.Body.Close()
			}
		}
		if resp != nil {
			resp.Body.Close()
		}
	}()
	for k := 0; w.since() < w.end; k++ {
		in := events[k%len(events)]
		consumed := roundDecimals(planned[in.device]*in.noise, energyDecimals)
		harvest := in.harvestJ
		line, err = json.Marshal(&wire.TelemetryEvent{V: wire.Version, Device: in.device, HarvestJ: &harvest, ConsumedJ: &consumed})
		if err != nil {
			return recs, err
		}
		line = append(line, '\n')
		start := w.since()
		if _, err := pw.Write(line); err != nil {
			return recs, fail(fmt.Errorf("telemetry write: %w", err))
		}
		if !answered {
			r := <-respc
			answered = true
			if r.err != nil {
				return recs, fail(fmt.Errorf("telemetry stream: %w", r.err))
			}
			resp = r.resp
			if resp.StatusCode != http.StatusOK {
				return recs, fmt.Errorf("telemetry stream: status %d", resp.StatusCode)
			}
			body = bufio.NewReaderSize(resp.Body, 4096)
		}
		out, err := body.ReadSlice('\n')
		if err != nil {
			return recs, fail(fmt.Errorf("telemetry read: %w", err))
		}
		end := w.since()
		progress.Store(int64(end))
		rec := record{id: eventID(c, k), start: start, end: end, ops: 1, input: k, reqBytes: len(line), respBytes: len(out)}
		var res wire.TelemetryResult
		if err := json.Unmarshal(out, &res); err != nil {
			return recs, fmt.Errorf("telemetry result: %w", err)
		}
		alloc, cfgErr := l.mirror(in.device, consumed, harvest)
		switch {
		case res.Error != nil && (res.Error.Code == wire.CodeRateLimited || res.Error.Code == wire.CodeDraining ||
			res.Error.Code == wire.CodeOverloaded):
			rec.outcome = refused
		case res.Error != nil || res.Allocation == nil || res.Device != in.device || cfgErr != nil:
			rec.outcome = failed
			l.noteBad(fmt.Sprintf("event %d: result %s (mirror error %v)", k, bytes.TrimSpace(out), cfgErr))
		case !sameAllocation(*res.Allocation, alloc):
			rec.outcome = failed
			l.noteBad(fmt.Sprintf("event %d: daemon %+v, mirror %+v", k, *res.Allocation, alloc))
		default:
			l.acked.Add(1)
		}
		planned[in.device] = alloc.Energy(l.shadow[in.device].Config())
		if tr != nil {
			l.events[c] = append(l.events[c], sentEvent{in.device, harvest, consumed})
		}
		recs = append(recs, rec)
	}
	// End the request body; the handler returns at EOF and the answer
	// ends with it.
	pw.Close()
	if resp != nil {
		if _, err := io.Copy(io.Discard, body); err != nil {
			return recs, fail(fmt.Errorf("telemetry close: %w", err))
		}
	}
	return recs, nil
}

// mirror applies the event to the device's local controller and
// returns the allocation the daemon must have streamed.
func (l *telemetryLoad) mirror(device int, consumed, harvest float64) (reap.Allocation, error) {
	ctl := l.shadow[device]
	if err := ctl.Report(consumed); err != nil {
		return reap.Allocation{}, err
	}
	alloc, err := ctl.StepContext(context.Background(), harvest)
	if err != nil {
		return reap.Allocation{}, err
	}
	region := reap.Classify(ctl.Config(), ctl.LastBudget()).String()
	l.mu.Lock()
	l.regions[region]++
	l.mu.Unlock()
	return alloc, nil
}

func (l *telemetryLoad) noteBad(msg string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.bad == 0 {
		l.firstBad = msg
	}
	l.bad++
}

func sameAllocation(got wire.Allocation, want reap.Allocation) bool {
	return sameFloats(got.ActiveS, want.Active) &&
		math.Float64bits(got.OffS) == math.Float64bits(want.Off) &&
		math.Float64bits(got.DeadS) == math.Float64bits(want.Dead)
}

// shadowBatteryJ sums the mirrors' battery charge in device order, as
// /v1/stats sums the fleet's.
func (l *telemetryLoad) shadowBatteryJ() float64 {
	var sum float64
	for _, ctl := range l.shadow {
		sum += ctl.Battery()
	}
	return sum
}
