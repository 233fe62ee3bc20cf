package noise

import (
	"cmp"
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/circuit"
	"repro/internal/par"
	"repro/internal/sim"
)

// Estimate is one fidelity prediction, decomposed: Fidelity is the
// selected estimator's number, and Control/Decoherence are the closed-form
// count-model factors (CountComponents) reported alongside it so the
// dominant error regime is visible even when Fidelity came from trajectory
// sampling. For CountEstimator, Fidelity == Control·Decoherence exactly.
type Estimate struct {
	Fidelity    float64
	Control     float64
	Decoherence float64
}

// Estimator predicts the fidelity of running a circuit under a model. The
// two implementations trade accuracy for cost: CountEstimator is O(ops)
// arithmetic, MonteCarloEstimator simulates error trajectories through the
// actual circuit, capturing the error spreading and cancellation the count
// model ignores. Estimators must be deterministic: the same (circuit,
// model, estimator configuration) always yields the same Estimate.
type Estimator interface {
	Name() string
	Estimate(ctx context.Context, c *circuit.Circuit, m Model) (Estimate, error)
}

// CountEstimator is the closed-form count model (CountModelFidelity) as an
// Estimator: gate counts and duration-weighted qubit time, no simulation,
// no width limit.
type CountEstimator struct{}

// Name implements Estimator.
func (CountEstimator) Name() string { return "count" }

// Estimate implements Estimator.
func (CountEstimator) Estimate(_ context.Context, c *circuit.Circuit, m Model) (Estimate, error) {
	control, decoherence := m.CountComponents(c)
	return Estimate{Fidelity: control * decoherence, Control: control, Decoherence: decoherence}, nil
}

// DefaultShots is the trajectory count MonteCarloEstimator uses when Shots
// is unset: enough for the sampling error to sit well under the
// architecture gaps the sweeps compare (σ ≤ 1/(2·√256) ≈ 3%), small
// enough that a noisy sweep cell stays interactive.
const DefaultShots = 256

// MonteCarloEstimator estimates fidelity by Pauli-twirl trajectory
// sampling. It compiles the circuit once into one fused, layer-batched
// sim.Program shared read-only by every run, resolves the error
// probabilities up front, and works in three phases:
//
//  1. Sample. Every trajectory draws its error events without touching a
//     statevector, from its own RNG derived from Seed via double-scrambled
//     splitmix64 (see the derivation comment in sample). The common
//     error-free trajectory (probability Π(1−p) over all channels)
//     contributes fidelity exactly 1 and is never simulated.
//  2. Checkpoint. The single ideal run from |0…0⟩ copies its state at a
//     few checkpoint steps, placed at quantiles of where the trajectories'
//     errors begin and end, within a fixed memory budget.
//  3. Simulate windows. A trajectory with errors starts from the latest
//     checkpoint at or before its first error, runs the program in
//     segments (sim.State.RunProgramSteps), injecting its Paulis at the
//     fused-step boundaries sim.StepForOp names, and stops at the earliest
//     checkpoint at or after its last error (or the final step). Its
//     fidelity is the overlap with the ideal snapshot there: the skipped
//     suffix is one unitary applied to both states, so |⟨ideal|ψ⟩|² is the
//     same at every later step up to rounding (a few ulps).
//
// Per-trajectory fidelities are summed in index order and the checkpoints
// depend only on the sampled events, so the estimate is byte-identical at
// every Parallelism setting (serial == parallel, pinned under -race).
// Trajectory states are one reusable sim.State per worker.
type MonteCarloEstimator struct {
	Shots       int   // trajectories (0 → DefaultShots)
	Seed        int64 // base seed; trajectory t draws from splitmix64(Seed, t)
	Parallelism int   // worker pool bound (0 = auto, 1 = serial)
}

// Name implements Estimator.
func (MonteCarloEstimator) Name() string { return "montecarlo" }

// checkpointBudget bounds the bytes of ideal statevectors one Estimate
// holds, the final ideal state included; maxCheckpoints caps the
// intermediate snapshots. Up to 11 qubits the cap binds; 31 checkpoints
// fit at 12 qubits (64 KiB a state) and 7 at 14; from 17 qubits (2 MiB a
// state) none do, and every trajectory runs from |0…0⟩ to the final step.
const (
	checkpointBudget = 2 << 20
	maxCheckpoints   = 32
)

// pauliEvent is one sampled error injection: Pauli pi (0 X, 1 Y, 2 Z; see
// sim.State.ApplyPauli) on compact qubit q, after schedule step step.
type pauliEvent struct {
	step int
	q    int
	pi   int
}

// mcRun is one Estimate call's sampled trajectories and their outcomes.
type mcRun struct {
	prog   *sim.Program
	n      int            // compact qubit count
	events [][]pauliEvent // per trajectory, ordered by step
	fids   []float64      // per-trajectory fidelity
	steps  []int          // schedule steps each trajectory simulated
}

// Estimate implements Estimator.
func (e MonteCarloEstimator) Estimate(ctx context.Context, c *circuit.Circuit, m Model) (Estimate, error) {
	r, err := e.run(ctx, c, m)
	if err != nil {
		return Estimate{}, err
	}
	// Fixed-order summation over the index-addressed slots keeps the mean
	// bit-identical regardless of worker scheduling.
	total := 0.0
	for _, f := range r.fids {
		total += f
	}
	control, decoherence := m.CountComponents(c)
	return Estimate{Fidelity: total / float64(len(r.fids)), Control: control, Decoherence: decoherence}, nil
}

// run samples, checkpoints and simulates every trajectory (see
// MonteCarloEstimator).
func (e MonteCarloEstimator) run(ctx context.Context, c *circuit.Circuit, m Model) (*mcRun, error) {
	r, err := e.sample(ctx, c, m)
	if err != nil {
		return nil, err
	}
	if err := r.simulate(ctx, e.Parallelism); err != nil {
		return nil, err
	}
	return r, nil
}

// sample compiles the circuit and draws every trajectory's error events.
func (e MonteCarloEstimator) sample(ctx context.Context, c *circuit.Circuit, m Model) (*mcRun, error) {
	shots := e.Shots
	if shots <= 0 {
		shots = DefaultShots
	}
	if err := ValidateForSim(c); err != nil {
		return nil, err
	}
	compact, _ := c.CompactQubits()
	prog := sim.Schedule(compact)
	// Resolve per-op error probabilities and injection steps once, shared
	// read-only by all trajectories. Error probabilities come from the
	// original ops (physical qubit indices, where EdgeE2Q speaks); the
	// injection sites from the compact ones, mapped to the compiled
	// program's fused-step boundaries — an error "after op i" lands after
	// the schedule step that executes op i (the ops fused alongside it
	// commute with or are disjoint from it, so the placement is exact up
	// to the Pauli-twirl approximation already being sampled).
	ops := compact.Ops
	gateErr := make([]float64, len(ops))
	decoErr := make([]float64, len(ops))
	injStep := make([]int, len(ops))
	durs := m.durations()
	for i, op := range ops {
		injStep[i] = prog.StepForOp(i)
		gateErr[i] = m.opGateError(c.Ops[i])
		if m.DecoherenceRate > 0 {
			if d := durs.Duration(op.Name); d > 0 {
				decoErr[i] = 1 - math.Exp(-d*m.DecoherenceRate)
			}
		}
	}
	r := &mcRun{prog: prog, n: compact.N, events: make([][]pauliEvent, shots)}
	err := par.ForEachCtx(ctx, shots, e.Parallelism, func(t int) error {
		// The derived state is scrambled ONCE MORE before use: the generator
		// itself steps by smGamma per draw, so unscrambled states of the form
		// base + t·smGamma would put every trajectory on the same arithmetic
		// progression, merely offset — trajectory t+1 would replay trajectory
		// t's draws shifted by one, making all shots near-copies of each
		// other (observed as whole cells reporting fidelity exactly 1). The
		// extra scramble scatters the starting points across the full 2⁶⁴
		// state space, where stream overlap is a birthday-bound improbability.
		rng := rand.New(&splitmix64{state: smScramble(smScramble(uint64(e.Seed)) + uint64(t+1)*smGamma)})
		var events []pauliEvent
		for i, op := range ops {
			if p := gateErr[i]; p > 0 && rng.Float64() < p {
				k := 1 + rng.Intn(15)
				if pa := k % 4; pa > 0 {
					events = append(events, pauliEvent{step: injStep[i], q: op.Qubits[0], pi: pa - 1})
				}
				if pb := k / 4; pb > 0 {
					events = append(events, pauliEvent{step: injStep[i], q: op.Qubits[1], pi: pb - 1})
				}
			}
			if p := decoErr[i]; p > 0 {
				for _, q := range op.Qubits {
					if rng.Float64() < p {
						events = append(events, pauliEvent{step: injStep[i], q: q, pi: rng.Intn(3)})
					}
				}
			}
		}
		// Fusion and layering may place a later op in an earlier step, so
		// order events by step (stable: ties keep sampling order).
		slices.SortStableFunc(events, func(a, b pauliEvent) int { return cmp.Compare(a.step, b.step) })
		r.events[t] = events
		return nil
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// simulate runs the ideal pass and every trajectory's error window,
// filling fids and steps. Trajectories without events score exactly 1.
func (r *mcRun) simulate(ctx context.Context, parallelism int) error {
	shots := len(r.events)
	r.fids = make([]float64, shots)
	r.steps = make([]int, shots)
	cps := r.checkpoints()
	refs, err := r.idealSnapshots(ctx, cps)
	if err != nil {
		return err
	}
	states := make([]*sim.State, min(par.Resolve(parallelism), shots))
	return par.ForEachWorkerCtx(ctx, shots, parallelism, func(w, t int) error {
		if len(r.events[t]) == 0 {
			r.fids[t] = 1
			return nil
		}
		if states[w] == nil {
			st, err := sim.NewState(r.n)
			if err != nil {
				return err
			}
			states[w] = st
		}
		return r.trajectory(t, states[w], cps, refs)
	})
}

// checkpoints picks the intermediate step boundaries the ideal run
// snapshots: up to the budget's count, at evenly spaced quantiles of the
// boundaries where trajectories' error windows open (first event step + 1)
// and close (last event step + 1), ascending and distinct. Boundary 0
// (|0…0⟩) and the final step need no snapshot.
func (r *mcRun) checkpoints() []int {
	k := min(maxCheckpoints, checkpointBudget/(16<<r.n)-1)
	if k <= 0 {
		return nil
	}
	var bounds []int
	for _, evs := range r.events {
		if len(evs) > 0 {
			bounds = append(bounds, evs[0].step+1, evs[len(evs)-1].step+1)
		}
	}
	if len(bounds) == 0 {
		return nil
	}
	slices.Sort(bounds)
	var cps []int
	for i := 0; i < k; i++ {
		b := bounds[(2*i+1)*len(bounds)/(2*k)]
		if b < r.prog.Steps() && (len(cps) == 0 || cps[len(cps)-1] < b) {
			cps = append(cps, b)
		}
	}
	return cps
}

// idealSnapshots runs the program once from |0…0⟩ and returns the ideal
// state at each checkpoint boundary, then at the final step (so
// refs[len(cps)] is the full ideal output). This is the estimate's only
// ideal run, and the one place it polls ctx between steps.
func (r *mcRun) idealSnapshots(ctx context.Context, cps []int) ([]*sim.State, error) {
	ideal, err := sim.NewState(r.n)
	if err != nil {
		return nil, err
	}
	dim := len(ideal.Amp)
	slab := make([]complex128, len(cps)*dim)
	refs := make([]*sim.State, len(cps)+1)
	cur := 0
	for i, b := range cps {
		if err := ideal.RunProgramStepsCtx(ctx, r.prog, cur, b); err != nil {
			return nil, err
		}
		refs[i] = &sim.State{N: r.n, Amp: slab[i*dim : (i+1)*dim : (i+1)*dim]}
		copy(refs[i].Amp, ideal.Amp)
		cur = b
	}
	if err := ideal.RunProgramStepsCtx(ctx, r.prog, cur, r.prog.Steps()); err != nil {
		return nil, err
	}
	refs[len(cps)] = ideal
	return refs, nil
}

// trajectory simulates trajectory t's error window on st (any prior
// contents are overwritten) and records its fidelity and step count.
func (r *mcRun) trajectory(t int, st *sim.State, cps []int, refs []*sim.State) error {
	events := r.events[t]
	// Start: the latest checkpoint at or before the first injection.
	start := 0
	if i := sort.SearchInts(cps, events[0].step+2) - 1; i >= 0 {
		copy(st.Amp, refs[i].Amp)
		start = cps[i]
	} else {
		clear(st.Amp)
		st.Amp[0] = 1
	}
	// End: the earliest checkpoint at or after the last injection.
	end := sort.SearchInts(cps, events[len(events)-1].step+1)
	stop := r.prog.Steps()
	if end < len(cps) {
		stop = cps[end]
	}
	cur := start
	for next := 0; next < len(events); {
		step := events[next].step
		if err := st.RunProgramSteps(r.prog, cur, step+1); err != nil {
			return err
		}
		cur = step + 1
		for next < len(events) && events[next].step == step {
			if err := st.ApplyPauli(events[next].q, events[next].pi); err != nil {
				return err
			}
			next++
		}
	}
	if err := st.RunProgramSteps(r.prog, cur, stop); err != nil {
		return err
	}
	f, err := refs[end].Fidelity(st)
	if err != nil {
		return err
	}
	r.fids[t], r.steps[t] = f, stop-start
	return nil
}

// splitmix64 is a tiny rand.Source64 with O(1) construction — the same
// generator the router's per-trial RNGs use (transpile keeps its own
// unexported copy) — so per-trajectory seed derivation costs two integer
// ops instead of math/rand's 607-step seeding procedure.
type splitmix64 struct{ state uint64 }

// smGamma is the splitmix64 state increment (Weyl sequence constant).
const smGamma = 0x9E3779B97F4A7C15

// smScramble is the splitmix64 output function over a raw state value.
func smScramble(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

func (s *splitmix64) Uint64() uint64 {
	s.state += smGamma
	return smScramble(s.state)
}

func (s *splitmix64) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *splitmix64) Seed(seed int64) { s.state = uint64(seed) }
