package main

import (
	"fmt"
	"sort"
	"time"
)

// endToEnd lists the end-to-end metrics with their units, in the order
// BENCHMARK.json names them. Every workload reports every one.
var endToEnd = []struct{ name, unit string }{
	{"throughput_ops_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"cpu_us_per_op", "us"},
	{"rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer lists the traced run's metrics with their units. A workload
// that does not exercise a layer reports its metrics as 0.
var perLayer = []struct{ name, unit string }{
	{"http.self_us_per_req", "us"},
	{"http.req_bytes_per_req", "B"},
	{"http.resp_bytes_per_req", "B"},
	{"service.handler_us_per_req", "us"},
	{"service.self_us_per_req", "us"},
	{"service.refused_per_kreq", "1/kreq"},
	{"wire.decode_us_per_req", "us"},
	{"wire.decode_allocs_per_req", "allocs"},
	{"wire.encode_us_per_req", "us"},
	{"wire.encode_allocs_per_req", "allocs"},
	{"wire.convert_us_per_req", "us"},
	{"reap.solve_batch_us_per_req", "us"},
	{"reap.fingerprint_ns_per_item", "ns"},
	{"core.plan_solve_ns_per_item", "ns"},
	{"reap.step_us_per_event", "us"},
	{"reap.report_ns_per_report", "ns"},
	{"reap.stepall_us_per_step", "us"},
	{"reap.stepall_allocs_per_step", "allocs"},
	{"reap.reportall_us_per_step", "us"},
	{"sim.self_us_per_device_step", "us"},
	{"journal.append_us_per_event", "us"},
	{"journal.appends_per_req", "count"},
	{"journal.compactions_per_kevent", "1/kevent"},
	{"journal.bytes_per_event", "B"},
	{"journal.replay_ms", "ms"},
	{"journal.replayed_events", "count"},
	{"replicate.ship_us_per_event", "us"},
	{"replicate.frames_per_event", "count"},
	{"replicate.frame_bytes_per_event", "B"},
	{"proc.user_us_per_op", "us"},
	{"proc.sys_us_per_op", "us"},
	{"trace.overhead_throughput_ops_s_pct", "%"},
	{"trace.overhead_latency_p50_ms_pct", "%"},
	{"trace.overhead_latency_p99_ms_pct", "%"},
	{"trace.overhead_cpu_us_per_op_pct", "%"},
	{"trace.overhead_rss_mb_pct", "%"},
	{"trace.overhead_setup_s_pct", "%"},
}

// figures are one window's end-to-end values, before units are attached.
type figures struct {
	throughput, p50, p99, cpuUsPerOp, rssMB, setupS float64
}

func (f figures) metrics() map[string]metric {
	values := map[string]float64{
		"throughput_ops_s": f.throughput,
		"latency_p50_ms":   f.p50,
		"latency_p99_ms":   f.p99,
		"cpu_us_per_op":    f.cpuUsPerOp,
		"rss_mb":           f.rssMB,
		"setup_s":          f.setupS,
	}
	out := make(map[string]metric, len(endToEnd))
	for _, m := range endToEnd {
		out[m.name] = metric{Value: values[m.name], Unit: m.unit}
	}
	return out
}

// slice is one equal part of a measurement window: the ops completed in
// it, their latencies in ms, and the CPU the system under test spent.
type slice struct {
	ops     int
	seconds float64
	lat     []float64
	cpu     time.Duration
}

// sliceMedians reports throughput, p50, tail latency and CPU per op as
// the median over a window's slices, so a burst of interference from
// outside the benchmark spoils one slice rather than the run. Each
// slice's tail follows the rule of tail(). It also records the pooled
// sample count and the lowest tail percentile any slice used.
func sliceMedians(slices []slice, res *runResult) (f figures) {
	var thr, p50, p99, cpu []float64
	samples, lowest := 0, 100.0
	for _, s := range slices {
		sorted := append([]float64(nil), s.lat...)
		sort.Float64s(sorted)
		v, pct, _ := tail(sorted, 0.99)
		thr = append(thr, float64(s.ops)/s.seconds)
		p50 = append(p50, nearestRank(sorted, 0.5))
		p99 = append(p99, v)
		cpu = append(cpu, us(s.cpu)/float64(s.ops))
		samples += len(sorted)
		lowest = min(lowest, pct)
		res.Slices = append(res.Slices, [4]float64{thr[len(thr)-1], p50[len(p50)-1], v, cpu[len(cpu)-1]})
	}
	res.Samples["slices"] = float64(len(slices))
	res.Samples["latency_samples"] = float64(samples)
	res.Samples["latency_tail_percentile"] = lowest
	return figures{throughput: median(thr), p50: median(p50), p99: median(p99), cpuUsPerOp: median(cpu)}
}

// layerSet collects per-layer metrics; every name starts at 0.
type layerSet struct{ metrics map[string]metric }

func layerMetrics() *layerSet {
	ls := &layerSet{metrics: make(map[string]metric, len(perLayer))}
	for _, m := range perLayer {
		ls.metrics[m.name] = metric{Unit: m.unit}
	}
	return ls
}

func (ls *layerSet) set(name string, v float64) {
	m, ok := ls.metrics[name]
	if !ok {
		panic(fmt.Sprintf("perfbench: unknown layer metric %q", name))
	}
	m.Value = v
	ls.metrics[name] = m
}

// overhead records, per end-to-end metric, how much the traced run
// differs from the untraced one, in percent of the untraced value.
func (ls *layerSet) overhead(untraced, traced map[string]metric) {
	for _, m := range endToEnd {
		if u := untraced[m.name].Value; u != 0 {
			ls.set("trace.overhead_"+m.name+"_pct", 100*(traced[m.name].Value/u-1))
		}
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
