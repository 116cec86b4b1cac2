package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestGeneratorsDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 7, 1 << 40} {
		a, err := genSolveBodies(seed)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := genSolveBodies(seed)
		for i := range a {
			if !bytes.Equal(a[i].body, b[i].body) {
				t.Fatalf("seed %d: solve body %d differs between generations", seed, i)
			}
		}
		ra, err := genReportBodies(seed)
		if err != nil {
			t.Fatal(err)
		}
		rb, _ := genReportBodies(seed)
		for i := range ra {
			if !bytes.Equal(ra[i].body, rb[i].body) || ra[i].shards != rb[i].shards {
				t.Fatalf("seed %d: report body %d differs between generations", seed, i)
			}
		}
		for c := 0; c < loadClients; c++ {
			if !reflect.DeepEqual(genTelemetry(seed, c, loadClients), genTelemetry(seed, c, loadClients)) {
				t.Fatalf("seed %d: telemetry stream %d differs between generations", seed, c)
			}
		}
		sa, err := scenarioJSON(seed)
		if err != nil {
			t.Fatal(err)
		}
		sb, _ := scenarioJSON(seed)
		if !bytes.Equal(sa, sb) {
			t.Fatalf("seed %d: scenario differs between generations", seed)
		}
	}
	a, _ := genSolveBodies(1)
	b, _ := genSolveBodies(2)
	if bytes.Equal(a[1].body, b[1].body) {
		t.Fatal("seeds 1 and 2 generated the same solve body")
	}
}

func TestGeneratedInputsCoverTheirProperties(t *testing.T) {
	bodies, err := genSolveBodies(3)
	if err != nil {
		t.Fatal(err)
	}
	l := newSolveLoad(bodies)
	for b := range l.sent {
		l.sent[b] = 1
	}
	shares := l.shares()
	for _, r := range regionNames {
		if shares["share.budget_"+r] == 0 {
			t.Errorf("no solve budget in region %s", r)
		}
	}
	if c := shares["share.items_with_config"]; c < 0.2 || c > 0.3 {
		t.Errorf("%.3f of items carry a config, want about one in four", c)
	}
	if h := bodies[0].items[0]; h.Config != nil || h.BudgetJ != headlineBudgetJ {
		t.Errorf("item 0 of body 0 is %+v, want the default-config 5 J headline", h)
	}
	reports, err := genReportBodies(3)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range reports {
		for j := 1; j < len(b.reports); j++ {
			if b.reports[j].Device <= b.reports[j-1].Device {
				t.Fatalf("report body %d is not strictly ascending by device", i)
			}
		}
	}
	for c := 0; c < loadClients; c++ {
		for _, ev := range genTelemetry(3, c, loadClients) {
			if ev.device%loadClients != c || ev.device >= fleetDevices {
				t.Fatalf("stream %d owns device %d", c, ev.device)
			}
		}
	}
}

func TestTailPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	cases := []struct {
		n          int
		value, pct float64
		beyond     int
	}{
		{2000, 1980, 99, 20}, // p99 itself: 20 samples beyond it
		{1000, 990, 99, 10},  // exactly ten beyond
		{999, 989, 100 * 989.0 / 999, 10},
		{500, 490, 98, 10}, // too few for p99: highest with ten beyond
		{11, 1, 100.0 / 11, 10},
		{5, 3, 60, 2}, // no percentile qualifies: the median
	}
	for _, c := range cases {
		v, pct, beyond := tail(seq(c.n), 0.99)
		if v != c.value || math.Abs(pct-c.pct) > 1e-9 || beyond != c.beyond {
			t.Errorf("n=%d: tail = (%v, %v, %d), want (%v, %v, %d)", c.n, v, pct, beyond, c.value, c.pct, c.beyond)
		}
	}
	if got := nearestRank(seq(100), 0.5); got != 50 {
		t.Errorf("median of 1..100 by nearest rank = %v, want 50", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTime(t *testing.T) {
	us := time.Microsecond
	parent := span{start: 100 * us, end: 200 * us}
	cases := []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100 * us},
		{"disjoint nested", []span{{start: 110 * us, end: 120 * us}, {start: 150 * us, end: 170 * us}}, 70 * us},
		{"overlap counted once", []span{{start: 110 * us, end: 140 * us}, {start: 130 * us, end: 160 * us}}, 50 * us},
		{"clipped to the parent", []span{{start: 50 * us, end: 120 * us}, {start: 190 * us, end: 300 * us}}, 70 * us},
		{"replayed by duration", []span{{start: 900 * us, end: 930 * us, replayed: true}}, 70 * us},
		{"both kinds", []span{{start: 110 * us, end: 120 * us}, {start: 0, end: 25 * us, replayed: true}}, 65 * us},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestTallyAddsUp(t *testing.T) {
	s := time.Second
	w := &window{warm: 2 * s, end: 6 * s, slices: 4}
	recs := [][]record{
		{
			{start: 0, end: s, ops: 64, outcome: completed},                 // warm-up
			{start: s, end: 2*s + s/2, ops: 64, outcome: completed},         // slice 0
			{start: 3 * s, end: 3*s + s/2, ops: 64, outcome: refused},       // slice 1, refused
			{start: 4 * s, end: 5*s + s/2, ops: 64, outcome: completed},     // slice 3
			{start: 5*s + s/2, end: 6*s + s/4, ops: 64, outcome: completed}, // drain
		},
		{
			{start: s, end: 3 * s, ops: 16, outcome: failed},            // slice 1, failed
			{start: 3 * s, end: 4*s + s/2, ops: 16, outcome: completed}, // slice 2
		},
	}
	phases, slices, ops, requests := tally(w, recs)
	var attempted int
	for _, rs := range recs {
		for _, r := range rs {
			attempted += r.ops
		}
	}
	total := totals(phases)
	if total.Attempted != attempted || !total.balanced() {
		t.Fatalf("phase totals %+v do not account for %d attempted ops", total, attempted)
	}
	for _, p := range phases {
		if !p.balanced() {
			t.Errorf("phase %s unbalanced: %+v", p.Name, p)
		}
	}
	want := map[string]phase{
		"warmup": {Attempted: 64, Completed: 64},
		"window": {Attempted: 64*3 + 32, Completed: 64*2 + 16, Failed: 16, Refused: 64},
		"drain":  {Attempted: 64, Completed: 64},
	}
	for _, p := range phases {
		w, ok := want[p.Name]
		w.Name = p.Name
		if ok && p != w {
			t.Errorf("phase %s = %+v, want %+v", p.Name, p, w)
		}
	}
	if ops != 64*2+16 || requests != 6 {
		t.Errorf("ops %d requests %d, want %d and 6", ops, requests, 64*2+16)
	}
	var sliceOps int
	for _, sl := range slices {
		sliceOps += sl.ops
		if math.Abs(sl.seconds-1) > 1e-9 {
			t.Errorf("slice of %v s, want 1", sl.seconds)
		}
	}
	if sliceOps != ops || slices[0].ops != 64 || slices[1].ops != 0 || slices[2].ops != 16 || slices[3].ops != 64 {
		t.Errorf("slice ops %v do not match the window's %d", slices, ops)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's workload and
// metric lists in step with the ones this program reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program runs %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, program %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}
