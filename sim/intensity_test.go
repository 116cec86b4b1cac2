package sim

import (
	"context"
	"math"
	"testing"

	"repro"
	"repro/internal/synth"
)

// Every device-hour's intensity must equal the per-window mean it
// summarizes: an oracle timeline per device, seeded like Run's, streams
// the hour window by window through NextLabel and averages the labels'
// intensities sequentially. hourIntensity reads the same hour from
// per-activity counts, so the two differ only by float summation order.
func TestHourIntensityMatchesPerWindowMean(t *testing.T) {
	sc := mustScenario(t, "geo-fleet")
	sc.Devices, sc.Days = 16, 2
	if sc.FlatConsumption || len(sc.Churn) > 0 {
		t.Fatal("geo-fleet must synthesize consumption for every device every hour")
	}
	res, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	oracles := make([]*synth.Timeline, sc.Devices)
	for i := range oracles {
		user := synth.NewUserProfile(i, sc.Seed)
		if oracles[i], err = synth.NewTimeline(user, 0, subSeed(sc.Seed, i, saltTimeline)); err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; step < res.Trace.Steps; step++ {
		for i, tl := range oracles {
			var sum float64
			for w := 0; w < synth.WindowsPerHour; w++ {
				sum += activityIntensity[tl.NextLabel()]
			}
			want := sum / synth.WindowsPerHour
			if got := res.Trace.At(step, i).Intensity; math.Abs(got-want) > 1e-12 {
				t.Fatalf("step %d device %d: intensity %v, per-window mean %v", step, i, got, want)
			}
		}
	}
}

// hourIntensity is //reap:hotpath: an hour of activity synthesis
// allocates nothing.
func TestHourIntensityZeroAllocs(t *testing.T) {
	tl, err := synth.NewTimeline(synth.NewUserProfile(0, 1), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := &simulator{timelines: []*synth.Timeline{tl}}
	if allocs := testing.AllocsPerRun(100, func() { s.hourIntensity(0) }); allocs != 0 {
		t.Fatalf("hourIntensity allocated %v times per run, want 0", allocs)
	}
}

// BenchmarkSimRun runs geo-fleet at the shape of the repository
// benchmark's fleet-sim workload — 128 devices × 4 days on the compiled
// plan, consumption synthesis on — and reports simulated device-steps
// per second.
func BenchmarkSimRun(b *testing.B) {
	sc, err := Lookup("geo-fleet")
	if err != nil {
		b.Fatal(err)
	}
	sc.Devices, sc.Days, sc.Solver = 128, 4, reap.SolverPlan
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(ctx, sc); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*sc.Devices*sc.Days*24)/b.Elapsed().Seconds(), "device-steps/s")
}
