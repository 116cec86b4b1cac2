package reap

import (
	"context"
	"errors"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestFleetStepAllMatchesSequential checks that the concurrent fleet path
// produces exactly the schedules a sequential per-device loop would, over
// 1000 devices spanning every operating region. WithoutSolveCache here is
// belt-and-braces: uncached solving is the default since the plan-first
// re-tier, and the opted-in quantizing cache has its own test
// (TestFleetOptInCacheWithinQuantizationBound). Run under -race this is
// also the fleet's data-race test.
func TestFleetStepAllMatchesSequential(t *testing.T) {
	const n = 1000
	ctx := context.Background()

	fleet, err := NewFleet(n, WithBattery(20, 100), WithoutSolveCache())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fleet.CacheStats(); ok {
		t.Fatal("WithoutSolveCache fleet reports a cache")
	}
	budgets := make([]float64, n)
	for i := range budgets {
		budgets[i] = 11.0 * float64(i) / n // dead region through saturation
	}

	allocs, err := fleet.StepAll(ctx, budgets)
	if err != nil {
		t.Fatal(err)
	}
	if len(allocs) != n {
		t.Fatalf("%d allocations for %d devices", len(allocs), n)
	}

	for i, alloc := range allocs {
		ref, err := New(WithBattery(20, 100))
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Step(budgets[i])
		if err != nil {
			t.Fatal(err)
		}
		dev, err := fleet.Device(i)
		if err != nil {
			t.Fatal(err)
		}
		cfg := dev.Config()
		if math.Abs(alloc.Objective(cfg)-want.Objective(cfg)) > 1e-12 {
			t.Fatalf("device %d: fleet %v, sequential %v", i, alloc, want)
		}
	}

	// Second period: the per-device battery state must have evolved
	// independently and ReportAll must close every loop.
	consumed := make([]float64, n)
	for i, alloc := range allocs {
		dev, err := fleet.Device(i)
		if err != nil {
			t.Fatal(err)
		}
		consumed[i] = alloc.Energy(dev.Config())
	}
	if err := fleet.ReportAll(consumed); err != nil {
		t.Fatal(err)
	}
	if _, err := fleet.StepAll(ctx, budgets); err != nil {
		t.Fatal(err)
	}
	dev0, err := fleet.Device(0)
	if err != nil {
		t.Fatal(err)
	}
	if dev0.Steps() != 2 {
		t.Fatalf("device 0 stepped %d times, want 2", dev0.Steps())
	}
}

// TestFleetDeviceOutOfRange is the regression test for the Device panic:
// out-of-range indices must return an ErrInvalidConfig error, not panic.
func TestFleetDeviceOutOfRange(t *testing.T) {
	fleet, err := NewFleet(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{-1, 3, 1000} {
		dev, err := fleet.Device(i)
		if !errors.Is(err, ErrInvalidConfig) {
			t.Fatalf("Device(%d): err %v, want ErrInvalidConfig", i, err)
		}
		if dev != nil {
			t.Fatalf("Device(%d) returned a controller with its error", i)
		}
	}
	if dev, err := fleet.Device(2); err != nil || dev == nil {
		t.Fatalf("Device(2) = %v, %v, want a controller", dev, err)
	}
}

// maxMarginalValue is the LP value function's initial (and, by
// concavity, maximal) slope in the budget: max_i aᵢ^α/(TP·(Pᵢ−Poff)).
// It bounds the objective a quantized-down solve can lose.
func maxMarginalValue(cfg Config) float64 {
	var slope float64
	for _, d := range cfg.DPs {
		w := math.Pow(d.Accuracy, cfg.Alpha)
		if cfg.Alpha == 0 {
			w = 1
		}
		if s := w / (cfg.Period * (d.Power - cfg.POff)); s > slope {
			slope = s
		}
	}
	return slope
}

// TestFleetOptInCacheWithinQuantizationBound checks a fleet with the
// opted-in quantizing solve cache against a default (plan-direct)
// fleet: every cached allocation stays feasible for the true budget and
// loses at most resolution·maxslope objective.
func TestFleetOptInCacheWithinQuantizationBound(t *testing.T) {
	const n = 500
	ctx := context.Background()
	cached, err := NewFleet(n, WithSolveCache(DefaultCacheSize, DefaultCacheResolution))
	if err != nil {
		t.Fatal(err)
	}
	exact, err := NewFleet(n)
	if err != nil {
		t.Fatal(err)
	}

	// 50 distinct budget levels across the fleet: plenty of sharing, all
	// operating regions covered. Battery-less devices keep the effective
	// budget equal to the harvested energy, so the bound is checkable.
	budgets := make([]float64, n)
	for i := range budgets {
		budgets[i] = 11.0 * float64(i%50) / 50
	}
	cachedAllocs, err := cached.StepAll(ctx, budgets)
	if err != nil {
		t.Fatal(err)
	}
	exactAllocs, err := exact.StepAll(ctx, budgets)
	if err != nil {
		t.Fatal(err)
	}

	cfg, err := NewConfig()
	if err != nil {
		t.Fatal(err)
	}
	bound := DefaultCacheResolution*maxMarginalValue(cfg) + 1e-9
	for i := range cachedAllocs {
		if energy := cachedAllocs[i].Energy(cfg); energy > budgets[i]+1e-9 {
			t.Fatalf("device %d: cached allocation spends %v J of a %v J budget", i, energy, budgets[i])
		}
		if loss := exactAllocs[i].Objective(cfg) - cachedAllocs[i].Objective(cfg); loss > bound || loss < -1e-9 {
			t.Fatalf("device %d: objective loss %v outside [0, %v]", i, loss, bound)
		}
	}

	stats, ok := cached.CacheStats()
	if !ok {
		t.Fatal("opted-in fleet reports no cache")
	}
	if lookups := stats.Hits + stats.Misses + stats.Coalesced; lookups != n {
		t.Fatalf("cache saw %d lookups for %d devices", lookups, n)
	}
	if stats.Misses > 50 {
		t.Fatalf("%d misses for 50 distinct budget levels", stats.Misses)
	}
	if stats.Hits+stats.Coalesced < n-50 {
		t.Fatalf("stats %+v: want at least %d lookups deduplicated", stats, n-50)
	}
}

// TestFleetCacheStatsDistinguishesAbsentFromCold is the regression test
// for the stats ambiguity the reapd stats endpoint depends on: a fleet
// without a cache answers ok=false, while a fleet whose opted-in cache
// has simply never been hit answers ok=true with zero counters. Before
// the (CacheStats, bool) signature both cases read as zero-value stats.
func TestFleetCacheStatsDistinguishesAbsentFromCold(t *testing.T) {
	uncached, err := NewFleet(3) // plan-direct default: no cache
	if err != nil {
		t.Fatal(err)
	}
	if stats, ok := uncached.CacheStats(); ok {
		t.Fatalf("default (plan-direct) fleet reports a cache: %+v", stats)
	}

	cold, err := NewFleet(3, WithSolveCache(64, DefaultCacheResolution))
	if err != nil {
		t.Fatal(err)
	}
	stats, ok := cold.CacheStats()
	if !ok {
		t.Fatal("opted-in fleet reports no cache")
	}
	if stats != (CacheStats{Capacity: 64}) {
		t.Fatalf("cold cache stats = %+v, want zero counters with capacity 64", stats)
	}
}

func TestFleetStepAllWorkerBounds(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		fleet, err := NewFleet(50, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		budgets := make([]float64, 50)
		for i := range budgets {
			budgets[i] = 5
		}
		allocs, err := fleet.StepAll(context.Background(), budgets)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, a := range allocs {
			if a.Total() == 0 {
				t.Fatalf("workers=%d: device %d unplanned", workers, i)
			}
		}
	}
}

func TestFleetStepAllBudgetMismatch(t *testing.T) {
	fleet, err := NewFleet(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fleet.StepAll(context.Background(), []float64{1, 2}); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("mismatched budgets: err %v, want ErrInvalidConfig", err)
	}
	if err := fleet.ReportAll([]float64{1}); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("mismatched reports: err %v, want ErrInvalidConfig", err)
	}
}

func TestFleetStepAllPartialFailure(t *testing.T) {
	fleet, err := NewFleet(5)
	if err != nil {
		t.Fatal(err)
	}
	budgets := []float64{5, math.NaN(), 5, -1, 5}
	allocs, err := fleet.StepAll(context.Background(), budgets)
	if err == nil {
		t.Fatal("bad budgets accepted")
	}
	if !errors.Is(err, ErrBudgetNegative) {
		t.Fatalf("err %v, want ErrBudgetNegative in the chain", err)
	}
	// The error names the failing devices; the healthy ones still planned.
	for _, d := range []string{"device 1", "device 3"} {
		if !strings.Contains(err.Error(), d) {
			t.Errorf("error %q does not name %s", err, d)
		}
	}
	for _, i := range []int{0, 2, 4} {
		if allocs[i].Total() == 0 {
			t.Errorf("healthy device %d unplanned", i)
		}
	}
}

// ReportAll reports to every device even when some reports fail, and
// the joined error names exactly the failing devices.
func TestFleetReportAllPartialFailure(t *testing.T) {
	fleet, err := NewFleet(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fleet.StepAll(context.Background(), []float64{5, 5, 5, 5}); err != nil {
		t.Fatal(err)
	}
	err = fleet.ReportAll([]float64{1, -1, 1, math.NaN()})
	if !errors.Is(err, ErrBudgetNegative) {
		t.Fatalf("err %v, want ErrBudgetNegative in the chain", err)
	}
	got := err.Error()
	if !strings.Contains(got, "device 1: ") || !strings.Contains(got, "device 3: ") || strings.Count(got, "device ") != 2 {
		t.Fatalf("error %q does not name exactly devices 1 and 3", got)
	}
}

// StepAll carves every device's Active times from one array. Devices
// with different design-point counts get windows of their own length,
// and appending to one device's Active must not write into its
// neighbour's.
func TestFleetStepAllHeterogeneousActive(t *testing.T) {
	dps := PaperDesignPoints()
	fleet, err := NewFleet(3, WithDeviceOverride(func(i int) []Option {
		if i == 1 {
			return []Option{WithDesignPoints(dps[:2]...)}
		}
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	allocs, err := fleet.StepAll(context.Background(), []float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{len(dps), 2, len(dps)} {
		if got := len(allocs[i].Active); got != want {
			t.Fatalf("device %d: %d active times, want %d", i, got, want)
		}
	}
	before := slices.Clone(allocs[1].Active)
	_ = append(allocs[0].Active, -1)
	if !slices.Equal(allocs[1].Active, before) {
		t.Fatalf("appending to device 0's Active overwrote device 1's: %v, was %v", allocs[1].Active, before)
	}
}

func TestFleetStepAllCancelled(t *testing.T) {
	fleet, err := NewFleet(100, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	budgets := make([]float64, 100)
	if _, err := fleet.StepAll(ctx, budgets); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled StepAll: err %v, want context.Canceled", err)
	}
}

func TestSolveBatchMatchesDirectSolve(t *testing.T) {
	ctx := context.Background()
	cfg, err := NewConfig()
	if err != nil {
		t.Fatal(err)
	}
	solver := LookupSolverMust(t, SolverSimplex)

	reqs := make([]Request, 200)
	for i := range reqs {
		reqs[i] = Request{Budget: 11.0 * float64(i) / float64(len(reqs))}
	}
	results := SolveBatch(ctx, reqs)
	if len(results) != len(reqs) {
		t.Fatalf("%d results for %d requests", len(results), len(reqs))
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
		}
		want, err := solver.Solve(ctx, cfg, reqs[i].Budget)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Allocation.Objective(cfg)-want.Objective(cfg)) > 1e-12 {
			t.Fatalf("request %d: batch %v, direct %v", i, res.Allocation, want)
		}
	}
}

func TestSolveBatchEmpty(t *testing.T) {
	if results := SolveBatch(context.Background(), nil); len(results) != 0 {
		t.Fatalf("empty batch returned %d results", len(results))
	}
}

// The registry is append-only and process-global, so tests that need a
// bespoke backend register one hooked solver once and swap its behaviour
// per test run (keeps -count=N reruns working).
var (
	registerHookedSolverOnce sync.Once
	hookedSolve              atomic.Pointer[SolverFunc]
)

const hookedSolverName = "test-hooked"

func registerHookedSolver(t *testing.T) {
	t.Helper()
	registerHookedSolverOnce.Do(func() {
		err := RegisterSolver(hookedSolverName, SolverFunc(
			func(ctx context.Context, cfg Config, budget float64) (Allocation, error) {
				return (*hookedSolve.Load())(ctx, cfg, budget)
			}))
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestSolveBatchCancellationMidBatch cancels the context from inside the
// tenth solve: items completed before the cancellation keep their
// results, everything else — abandoned or refused mid-flight — reports
// context.Canceled.
func TestSolveBatchCancellationMidBatch(t *testing.T) {
	registerHookedSolver(t)
	simplex := LookupSolverMust(t, SolverSimplex)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	const n, cancelAt = 200, 10
	var solves atomic.Int32
	fn := SolverFunc(func(ctx context.Context, cfg Config, budget float64) (Allocation, error) {
		// Solve first, cancel after: the counted solves are guaranteed to
		// complete, so the assertions below are race-free on any core
		// count (in-flight workers may still finish their current solve
		// after the cancellation — bounded by the pool width).
		alloc, err := simplex.Solve(ctx, cfg, budget)
		if err == nil && solves.Add(1) == cancelAt {
			cancel()
		}
		return alloc, err
	})
	hookedSolve.Store(&fn)

	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Budget: 5, Solver: hookedSolverName}
	}
	results := SolveBatch(ctx, reqs)
	if len(results) != n {
		t.Fatalf("%d results for %d requests", len(results), n)
	}

	var completed, cancelled int
	for i, res := range results {
		switch {
		case res.Err == nil:
			if res.Allocation.Total() == 0 {
				t.Fatalf("request %d: no error but empty allocation", i)
			}
			completed++
		case errors.Is(res.Err, context.Canceled):
			if res.Allocation.Total() != 0 {
				t.Fatalf("request %d: cancelled but carries an allocation", i)
			}
			cancelled++
		default:
			t.Fatalf("request %d: unexpected error %v", i, res.Err)
		}
	}
	if completed < cancelAt {
		t.Fatalf("%d completed, want at least the %d solves that finished before cancellation", completed, cancelAt)
	}
	// Workers already inside a solve when the cancellation landed may
	// finish it; anything beyond one per worker means the pool kept
	// dispatching after cancellation.
	if limit := cancelAt + runtime.GOMAXPROCS(0); completed > limit {
		t.Fatalf("%d completed, want at most %d after cancellation at solve %d", completed, limit, cancelAt)
	}
	if cancelled == 0 {
		t.Fatal("no request observed the cancellation")
	}
}

// TestSolveBatchWithSolveCache opts a batch into a shared cache: one LP
// solve serves every same-bucket request, across batches.
func TestSolveBatchWithSolveCache(t *testing.T) {
	ctx := context.Background()
	sc, err := NewSolveCache(1024, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := NewConfig()
	if err != nil {
		t.Fatal(err)
	}
	want, err := LookupSolverMust(t, SolverSimplex).Solve(ctx, cfg, 5.00) // the bucket floor
	if err != nil {
		t.Fatal(err)
	}

	reqs := make([]Request, 100)
	for i := range reqs {
		reqs[i] = Request{Budget: 5.004 + 1e-4*float64(i%5)} // one 10 mJ bucket
	}
	for round := 0; round < 2; round++ {
		for i, res := range SolveBatch(ctx, reqs, WithSharedSolveCache(sc)) {
			if res.Err != nil {
				t.Fatalf("round %d request %d: %v", round, i, res.Err)
			}
			if math.Abs(res.Allocation.Objective(cfg)-want.Objective(cfg)) > 1e-12 {
				t.Fatalf("round %d request %d: cached %v, want bucket-floor solve %v",
					round, i, res.Allocation, want)
			}
		}
	}
	stats := sc.Stats()
	if stats.Misses != 1 {
		t.Fatalf("%d LP solves for one bucket over two batches, want 1", stats.Misses)
	}
	if stats.Hits+stats.Coalesced != 199 {
		t.Fatalf("stats %+v: want 199 deduplicated lookups", stats)
	}
}

// TestSolveBatchBadOption: an option error fails the whole batch, one
// error per result.
func TestSolveBatchBadOption(t *testing.T) {
	results := SolveBatch(context.Background(), make([]Request, 3), WithSolveCache(-1, 1e-3))
	if len(results) != 3 {
		t.Fatalf("%d results, want 3", len(results))
	}
	for i, res := range results {
		if !errors.Is(res.Err, ErrInvalidConfig) {
			t.Fatalf("request %d: err %v, want ErrInvalidConfig", i, res.Err)
		}
	}
}

// TestFleetSetActive covers the churn seam: inactive devices get the
// zero allocation from StepAll, are skipped by ReportAll (battery and
// accounting frozen), and resume exactly where they left off.
func TestFleetSetActive(t *testing.T) {
	ctx := context.Background()
	fleet, err := NewFleet(3, WithBattery(20, 100))
	if err != nil {
		t.Fatal(err)
	}
	if n := fleet.ActiveCount(); n != 3 {
		t.Fatalf("fresh fleet has %d active devices, want 3", n)
	}
	if !fleet.Active(0) || fleet.Active(-1) || fleet.Active(3) {
		t.Fatal("activity of fresh fleet / out-of-range devices misreported")
	}
	if err := fleet.SetActive(1, false); err != nil {
		t.Fatal(err)
	}
	if fleet.Active(1) || fleet.ActiveCount() != 2 {
		t.Fatalf("device 1 still counted active after SetActive(false)")
	}
	if err := fleet.SetActive(3, false); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("out-of-range SetActive: got %v, want ErrInvalidConfig", err)
	}

	dev1, err := fleet.Device(1)
	if err != nil {
		t.Fatal(err)
	}
	before := dev1.Battery()

	budgets := []float64{5, 5, 5}
	allocs, err := fleet.StepAll(ctx, budgets)
	if err != nil {
		t.Fatal(err)
	}
	if got := (Allocation{}); len(allocs[1].Active) != 0 || allocs[1].Off != got.Off || allocs[1].Dead != got.Dead {
		t.Fatalf("inactive device planned %+v, want zero allocation", allocs[1])
	}
	if len(allocs[0].Active) == 0 && allocs[0].Off == 0 && allocs[0].Dead == 0 {
		t.Fatal("active device 0 got a zero allocation")
	}
	if err := fleet.ReportAll([]float64{4, 999, 4}); err != nil {
		t.Fatal(err)
	}
	if after := dev1.Battery(); after != before {
		t.Fatalf("inactive device's battery moved: %v -> %v", before, after)
	}

	// Reactivation resumes from the frozen state.
	if err := fleet.SetActive(1, true); err != nil {
		t.Fatal(err)
	}
	if fleet.ActiveCount() != 3 {
		t.Fatal("reactivated device not counted")
	}
	allocs, err = fleet.StepAll(ctx, budgets)
	if err != nil {
		t.Fatal(err)
	}
	if len(allocs[1].Active) == 0 && allocs[1].Off == 0 && allocs[1].Dead == 0 {
		t.Fatal("reactivated device still got the zero allocation")
	}

	// SetActive(true) on a fleet that never churned stays nil-masked
	// (the zero-cost hot path) and is a no-op.
	fresh, err := NewFleet(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.SetActive(0, true); err != nil {
		t.Fatal(err)
	}
	if fresh.ActiveCount() != 2 {
		t.Fatal("no-op SetActive(true) changed membership")
	}
}
