package main

import (
	"fmt"

	reap "repro"
)

// The reapd workloads. Why each exists is recorded in BENCHMARK.json and
// NOTES.md.
var (
	solveSpec = daemonSpec{
		name: "solve-batch",
		inputs: func(seed int64) (func() (loader, error), error) {
			bodies, err := genSolveBodies(seed)
			if err != nil {
				return nil, err
			}
			return func() (loader, error) { return newSolveLoad(bodies), nil }, nil
		},
		layers: solveLayers,
	}
	reportSpec = daemonSpec{
		name:      "report-replicated",
		journaled: true,
		inputs: func(seed int64) (func() (loader, error), error) {
			bodies, err := genReportBodies(seed)
			if err != nil {
				return nil, err
			}
			return func() (loader, error) { return newReportLoad(bodies), nil }, nil
		},
		layers: reportLayers,
	}
	telemetrySpec = daemonSpec{
		name:      "telemetry-replicated",
		journaled: true,
		inputs: func(seed int64) (func() (loader, error), error) {
			return func() (loader, error) { return newTelemetryLoad(seed) }, nil
		},
		layers: telemetryLayers,
	}
)

// regionNames lists every region reap.Classify names.
var regionNames = []string{
	reap.RegionDead.String(), reap.Region1.String(), reap.Region2.String(), reap.Region3.String(),
}

// shares reports the measured share of each input property over the
// requests actually sent: items carrying an explicit config, and
// budgets per Classify region.
func (l *solveLoad) shares() map[string]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := map[string]float64{}
	var items, withConfig float64
	regions := map[string]float64{}
	for b, n := range l.sent {
		for _, it := range l.bodies[b].items {
			items += float64(n)
			if it.Config != nil {
				withConfig += float64(n)
			}
			regions[reap.Classify(it.Config.ToReap(), it.BudgetJ).String()] += float64(n)
		}
	}
	out["share.items_with_config"] = withConfig / items
	for _, r := range regionNames {
		out["share.budget_"+r] = regions[r] / items
	}
	return out
}

// shares reports the distribution of shards touched per request.
func (l *reportLoad) shares() map[string]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := map[string]float64{}
	var reqs, shardSum float64
	hist := make([]float64, fleetShards+1)
	for b, n := range l.sent {
		reqs += float64(n)
		shardSum += float64(n * l.bodies[b].shards)
		hist[l.bodies[b].shards] += float64(n)
	}
	for k := 1; k <= fleetShards; k++ {
		out[fmt.Sprintf("share.requests_touching_%d_shards", k)] = hist[k] / reqs
	}
	out["mean.shards_per_request"] = shardSum / reqs
	return out
}

// shares reports step budgets per Classify region, as the client's
// mirror controllers computed them.
func (l *telemetryLoad) shares() map[string]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var total float64
	for _, n := range l.regions {
		total += float64(n)
	}
	out := map[string]float64{}
	for _, r := range regionNames {
		out["share.budget_"+r] = float64(l.regions[r]) / total
	}
	return out
}
