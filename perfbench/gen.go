package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"

	reap "repro"
	"repro/wire"
)

// Workload shapes. Every input the benchmark sends is derived from the
// run's seed through these constants; the daemon receives only the
// generated bodies.
const (
	fleetDevices  = 1024 // reapd -devices; the default shard count (8) applies
	fleetShards   = 8
	batchItems    = 64  // items per /v1/batch-solve request
	solveBodies   = 64  // distinct batch bodies cycled by the clients
	seededConfigs = 8   // explicit configs carried by one item in four
	maxBudgetJ    = 11  // budgets sweep [0, 11) J: every Classify region
	reportsPerReq = 16  // sorted reports per /v1/report request
	reportBodies  = 256 // distinct report bodies cycled by the clients
	telemetryLen  = 1 << 14
	// batteryCapJ is the journaled daemon's battery capacity: small
	// enough that a device's budget follows its harvest.
	batteryCapJ = 1.0
	// headlineBudgetJ is the paper's worked example, pinned as item 0 of
	// solve body 0 with the default configuration.
	headlineBudgetJ = 5.0
)

// shardOf mirrors the daemon's contiguous partition of fleetDevices
// devices over fleetShards shards.
func shardOf(device int) int {
	for s := 0; s < fleetShards; s++ {
		if device < (s+1)*fleetDevices/fleetShards {
			return s
		}
	}
	return fleetShards - 1
}

// Inputs carry the resolution a device would report rather than full
// float64 noise: energies to the millijoule, configuration values to
// four significant digits.
const energyDecimals = 3

// roundDecimals rounds v to the given number of decimals. Dividing by an
// exact power of ten gives the float64 nearest the decimal, so the JSON
// carries the short form.
func roundDecimals(v float64, decimals int) float64 {
	scale := math.Pow(10, float64(decimals))
	return math.Round(v*scale) / scale
}

func fourDigits(v float64) float64 {
	return roundDecimals(v, 3-int(math.Floor(math.Log10(math.Abs(v)))))
}

// seededConfigSet returns the explicit configurations solve items may
// carry: the paper's design points with perturbed accuracy and power,
// and alpha between 0.5 and 3.
func seededConfigSet(rng *rand.Rand) []*wire.Config {
	out := make([]*wire.Config, seededConfigs)
	for i := range out {
		alpha := fourDigits(0.5 + 2.5*rng.Float64())
		c := &wire.Config{Alpha: &alpha}
		for _, dp := range reap.PaperDesignPoints() {
			c.DesignPoints = append(c.DesignPoints, wire.DesignPoint{
				Accuracy: fourDigits(dp.Accuracy * (0.97 + 0.03*rng.Float64())),
				PowerW:   fourDigits(dp.Power * (0.85 + 0.3*rng.Float64())),
			})
		}
		out[i] = c
	}
	return out
}

// solveBody is one pre-encoded /v1/batch-solve request.
type solveBody struct {
	items []wire.SolveItem
	body  []byte
}

// genSolveBodies builds the solve-batch inputs: budgets uniform over
// [0, maxBudgetJ), three items in four with no config, one in four with
// one of the seeded configs. Item 0 of body 0 is the 5 J headline.
func genSolveBodies(seed int64) ([]solveBody, error) {
	rng := rand.New(rand.NewSource(seed))
	configs := seededConfigSet(rng)
	bodies := make([]solveBody, solveBodies)
	for b := range bodies {
		items := make([]wire.SolveItem, batchItems)
		for i := range items {
			items[i].BudgetJ = roundDecimals(maxBudgetJ*rng.Float64(), energyDecimals)
			if rng.Intn(4) == 0 {
				items[i].Config = configs[rng.Intn(len(configs))]
			}
		}
		if b == 0 {
			items[0] = wire.SolveItem{BudgetJ: headlineBudgetJ}
		}
		body, err := json.Marshal(&wire.BatchSolveRequest{V: wire.Version, Items: items})
		if err != nil {
			return nil, fmt.Errorf("encoding solve body %d: %w", b, err)
		}
		bodies[b] = solveBody{items: items, body: body}
	}
	return bodies, nil
}

// reportBody is one pre-encoded /v1/report request.
type reportBody struct {
	reports []wire.DeviceReport
	body    []byte
	shards  int // distinct shards the reports touch
}

// genReportBodies builds the report-replicated inputs: 16 distinct
// devices drawn uniformly over the fleet, sorted ascending (the gateway
// shape the daemon journals as one record), each with a consumption in
// [0, 2) J.
func genReportBodies(seed int64) ([]reportBody, error) {
	rng := rand.New(rand.NewSource(seed))
	bodies := make([]reportBody, reportBodies)
	for b := range bodies {
		devs := rng.Perm(fleetDevices)[:reportsPerReq]
		sort.Ints(devs)
		reps := make([]wire.DeviceReport, len(devs))
		touched := map[int]bool{}
		for i, d := range devs {
			reps[i] = wire.DeviceReport{Device: d, ConsumedJ: roundDecimals(2*rng.Float64(), energyDecimals)}
			touched[shardOf(d)] = true
		}
		body, err := json.Marshal(&wire.ReportRequest{V: wire.Version, Reports: reps})
		if err != nil {
			return nil, fmt.Errorf("encoding report body %d: %w", b, err)
		}
		bodies[b] = reportBody{reports: reps, body: body, shards: len(touched)}
	}
	return bodies, nil
}

// telemetryInput is one event's seed-derived part; consumed_j is
// derived at send time from the device's previous allocation.
type telemetryInput struct {
	device   int
	harvestJ float64
	noise    float64 // consumed = planned × noise
}

// genTelemetry builds one stream's event schedule. Stream k owns the
// devices with device%streams == k, so each stream's per-device history
// is its own. Harvests sweep [0, maxBudgetJ): dead, switching and
// saturated periods all occur.
func genTelemetry(seed int64, stream, streams int) []telemetryInput {
	rng := rand.New(rand.NewSource(seed*31 + int64(stream) + 1))
	out := make([]telemetryInput, telemetryLen)
	for i := range out {
		out[i] = telemetryInput{
			device:   stream + streams*rng.Intn(fleetDevices/streams),
			harvestJ: roundDecimals(maxBudgetJ*rng.Float64(), energyDecimals),
			noise:    0.9 + 0.2*rng.Float64(),
		}
	}
	return out
}
