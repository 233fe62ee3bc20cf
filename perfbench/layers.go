package main

import (
	"context"
	"fmt"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/noise"
	"repro/internal/sim"
	"repro/internal/transpile"
)

// stageCounts accumulates the per-layer counts a traced decomposition sees.
type stageCounts struct {
	routeCalls, inducedSwaps int
	trajectories             int
	circuits                 int // circuits scheduled for the sim stats below
	steps, layers            int
	layerShare               float64
	stateQubitsMax           int
	computedBytes            float64
	fidelities               []float64
}

// decompose evaluates c on m the way core.Machine.EvaluateContext does, but
// one pipeline pass at a time over a transpile.PassContext, with a span
// around each pass's Apply. It rebuilds core.Metrics from the artifacts with
// the same exported functions core uses, so the result must equal the
// untraced evaluation's exactly; the caller checks that.
func decompose(ctx context.Context, t *Tracer, parent, op int64, m core.Machine, c *circuit.Circuit, opt core.Options, sc *stageCounts) (core.Metrics, *transpile.PassContext, error) {
	pipe, err := m.Pipeline(opt)
	if err != nil {
		return core.Metrics{}, nil, err
	}
	pctx := &transpile.PassContext{
		Graph: m.Graph, Basis: m.Basis, Circuit: c,
		Seed: opt.Seed, Trials: opt.Trials, Parallelism: opt.Parallelism, Ctx: ctx,
	}
	for _, pass := range pipe {
		id := t.Begin(pass.Name(), parent, op)
		err := pass.Apply(pctx)
		t.End(id)
		if err != nil {
			return core.Metrics{}, nil, fmt.Errorf("%s pass: %w", pass.Name(), err)
		}
		if pass.Name() == "route" {
			sc.routeCalls++
			sc.inducedSwaps += pctx.Routed.SwapCount
		}
	}
	routed, translated := pctx.Routed, pctx.Translated
	met := core.Metrics{
		Machine:       m.Name,
		Width:         c.N,
		PreRouting2Q:  c.CountTwoQubit(),
		TotalSwaps:    routed.Circuit.CountByName("swap"),
		InducedSwaps:  routed.SwapCount,
		CriticalSwaps: routed.Circuit.CriticalSwaps(),
		Total2Q:       translated.CountTwoQubit(),
		Critical2Q:    transpile.Critical2Q(translated),
		PulseDuration: transpile.PulseDurationTable(translated, m.GateDurations()),
	}
	return met, pctx, nil
}

// estimateTraced adds the Monte-Carlo fidelity estimate to met under a
// "noise" span, built exactly as core builds it for FidelityMonteCarlo,
// then schedules the compacted routed circuit under a "sim" span to read
// the simulator's layering statistics.
func estimateTraced(ctx context.Context, t *Tracer, parent, op int64, m core.Machine, routed *circuit.Circuit, opt core.Options, met *core.Metrics, sc *stageCounts) error {
	prof := m.Noise
	if prof.IsZero() {
		prof = opt.Noise
	}
	est := noise.MonteCarloEstimator{Shots: opt.NoiseShots, Seed: opt.Seed, Parallelism: opt.Parallelism}
	id := t.Begin("noise", parent, op)
	e, err := est.Estimate(ctx, routed, noise.FromProfile(prof, m.GateDurations()))
	t.End(id)
	if err != nil {
		return fmt.Errorf("noise estimate: %w", err)
	}
	met.EstFidelity, met.ControlFidelity, met.DecoherenceFidelity = e.Fidelity, e.Control, e.Decoherence
	shots := opt.NoiseShots
	if shots == 0 {
		shots = noise.DefaultShots
	}
	sc.trajectories += shots

	id = t.Begin("sim", parent, op)
	compact, _ := routed.CompactQubits()
	prog := sim.Schedule(compact)
	st := prog.Stats()
	t.End(id)
	sc.circuits++
	sc.steps += st.Steps
	sc.layers += st.Layers
	sc.layerShare += st.LayerShare
	sc.stateQubitsMax = max(sc.stateQubitsMax, compact.N)
	// Bytes one statevector pass computes: every step reads and writes the
	// whole 2^n-amplitude complex128 state.
	sc.computedBytes += float64(st.Steps) * float64(uint64(1)<<compact.N) * 16 * 2
	return nil
}

// setLayerShares reports busy time and share of the pipeline stages and
// the noise/sim layers, with shares taken against total, the summed
// duration of the operations that contain them.
func (r *run) setLayerShares(busy map[string]float64, total float64, sc *stageCounts) {
	for _, s := range []string{"layout", "route", "translate", "noise"} {
		r.set(s+".busy_s", busy[s])
		if total > 0 {
			r.set(s+".share", busy[s]/total)
		}
	}
	r.set("workloads.busy_s", busy["workloads"])
	r.set("arch.busy_s", busy["arch"])
	r.set("route.calls", float64(sc.routeCalls))
	r.set("route.induced_swaps", float64(sc.inducedSwaps))
	r.set("noise.trajectories", float64(sc.trajectories))
	r.set("sim.schedule_busy_s", busy["sim"])
	if sc.circuits > 0 {
		n := float64(sc.circuits)
		r.set("sim.steps_per_circuit", float64(sc.steps)/n)
		r.set("sim.layers_per_circuit", float64(sc.layers)/n)
		r.set("sim.fused_layer_share", sc.layerShare/n)
		r.set("sim.state_qubits_max", float64(sc.stateQubitsMax))
		r.set("sim.computed_bytes", sc.computedBytes)
	}
	if len(sc.fidelities) > 0 {
		r.set("noise.fidelity_mean", Mean(sc.fidelities))
	}
}
