package reap

import (
	"context"
	"testing"
)

// Steady-state fleet ticks are //reap:hotpath: with the per-tick scratch
// hoisted into the Fleet and a single worker, a warmed tick must not
// allocate — on the uncached plan path and on the cache-hit path alike.

func fleetTickAllocs(t *testing.T, opts ...Option) float64 {
	t.Helper()
	const n = 8
	f, err := NewFleet(n, append([]Option{WithWorkers(1)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	budgets := make([]float64, n)
	for i := range budgets {
		budgets[i] = 1.0
	}
	allocs := make([]Allocation, n)
	// Warm: populate cache entries and grow every Active buffer.
	for i := 0; i < 3; i++ {
		if err := f.stepAllInto(ctx, budgets, allocs); err != nil {
			t.Fatal(err)
		}
	}
	return testing.AllocsPerRun(100, func() {
		if err := f.stepAllInto(ctx, budgets, allocs); err != nil {
			t.Fatal(err)
		}
	})
}

func TestFleetTickZeroAllocsPlanPath(t *testing.T) {
	if allocs := fleetTickAllocs(t); allocs != 0 {
		t.Fatalf("default plan-path fleet tick allocated %v times per run, want 0", allocs)
	}
}

func TestFleetTickZeroAllocsCacheHitPath(t *testing.T) {
	if allocs := fleetTickAllocs(t, WithSolveCache(DefaultCacheSize, DefaultCacheResolution)); allocs != 0 {
		t.Fatalf("cache-hit fleet tick allocated %v times per run, want 0", allocs)
	}
}

// The public tick costs a fixed number of allocations, not one per
// device: StepAll allocates its result entries and one backing array for
// every device's Active times, and a successful ReportAll allocates
// nothing.

func allocFleet(t *testing.T, n int) (*Fleet, []float64) {
	t.Helper()
	f, err := NewFleet(n, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	budgets := make([]float64, n)
	for i := range budgets {
		budgets[i] = 1.0 + float64(i%7)
	}
	return f, budgets
}

func TestFleetStepAllFixedAllocs(t *testing.T) {
	const n = 1000
	f, budgets := allocFleet(t, n)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := f.StepAll(ctx, budgets); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("StepAll at %d devices allocated %v times per call, want ≤ 2", n, allocs)
	}
}

func TestFleetReportAllZeroAllocs(t *testing.T) {
	const n = 1000
	f, budgets := allocFleet(t, n)
	if _, err := f.StepAll(context.Background(), budgets); err != nil {
		t.Fatal(err)
	}
	consumed := make([]float64, n)
	allocs := testing.AllocsPerRun(20, func() {
		if err := f.ReportAll(consumed); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("successful ReportAll at %d devices allocated %v times per call, want 0", n, allocs)
	}
}
