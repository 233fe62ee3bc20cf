package noise

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/topology"
	"repro/internal/transpile"
	"repro/internal/workloads"
)

// BenchmarkMonteCarloEstimate times one Monte-Carlo estimate of a routed
// cell shaped like the noisy sweeps' (a 12-qubit QFT on a 14-qubit trimmed
// hypercube, 256 shots, the stock e2q=0.002,tdec=0.001 profile with one
// hot coupling) and reports steps_simulated/shot: schedule steps the
// trajectories' error windows ran, averaged over all shots. A full run of
// every trajectory with events would read (share with events) × steps.
func BenchmarkMonteCarloEstimate(b *testing.B) {
	g := topology.HypercubeTrimmed(4, 14)
	c := workloads.QFT(12, true)
	layout, err := transpile.DenseLayout(g, c)
	if err != nil {
		b.Fatal(err)
	}
	routed, err := transpile.StochasticSwap(g, c, layout, rand.New(rand.NewSource(2022)), 5)
	if err != nil {
		b.Fatal(err)
	}
	m := Model{GateError: 0.002, DecoherenceRate: 0.001, EdgeE2Q: map[[2]int]float64{{0, 1}: 0.05}}
	e := MonteCarloEstimator{Shots: 256, Seed: 2022}
	ctx := context.Background()
	for b.Loop() {
		if _, err := e.Estimate(ctx, routed.Circuit, m); err != nil {
			b.Fatal(err)
		}
	}
	r, err := e.run(ctx, routed.Circuit, m)
	if err != nil {
		b.Fatal(err)
	}
	simulated := 0
	for _, s := range r.steps {
		simulated += s
	}
	b.ReportMetric(float64(simulated)/float64(len(r.steps)), "steps_simulated/shot")
}
