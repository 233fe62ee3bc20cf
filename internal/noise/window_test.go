package noise

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/linalg"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// fullTrajectory is the trajectory loop without windows, kept as the
// oracle the windowed runs are checked against: from |0…0⟩ through every
// schedule step, the events injected through the generic Apply1Q kernel,
// and the overlap taken with the final ideal state.
func fullTrajectory(prog *sim.Program, ideal *sim.State, events []pauliEvent) (float64, error) {
	paulis := []*linalg.Matrix{gates.X(), gates.Y(), gates.Z()}
	st, err := sim.NewState(ideal.N)
	if err != nil {
		return 0, err
	}
	cur := 0
	for next := 0; next < len(events); {
		step := events[next].step
		if err := st.RunProgramSteps(prog, cur, step+1); err != nil {
			return 0, err
		}
		cur = step + 1
		for next < len(events) && events[next].step == step {
			if err := st.Apply1Q(events[next].q, paulis[events[next].pi]); err != nil {
				return 0, err
			}
			next++
		}
	}
	if err := st.RunProgramSteps(prog, cur, prog.Steps()); err != nil {
		return 0, err
	}
	return ideal.Fidelity(st)
}

// checkOracle fails the test unless every trajectory of r with events has
// them in step order and is within 1e-12 of fullTrajectory, and every
// error-free one scores exactly 1.
// With no checkpoint the windowed run is the oracle's computation, so the
// two must then agree exactly.
func checkOracle(t *testing.T, r *mcRun) {
	t.Helper()
	ideal, err := sim.NewState(r.n)
	if err != nil {
		t.Fatal(err)
	}
	if err := ideal.RunProgram(r.prog); err != nil {
		t.Fatal(err)
	}
	tol := 1e-12
	if len(r.checkpoints()) == 0 {
		tol = 0
	}
	for i, evs := range r.events {
		if len(evs) == 0 {
			if r.fids[i] != 1 {
				t.Fatalf("error-free trajectory %d scored %v, want exactly 1", i, r.fids[i])
			}
			continue
		}
		if !slices.IsSortedFunc(evs, func(a, b pauliEvent) int { return a.step - b.step }) {
			t.Fatalf("trajectory %d: events out of step order", i)
		}
		want, err := fullTrajectory(r.prog, ideal, evs)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(r.fids[i] - want); d > tol {
			t.Fatalf("trajectory %d (%d events, steps %d..%d): windowed %v, oracle %v (|Δ| %g > %g)",
				i, len(evs), evs[0].step, evs[len(evs)-1].step, r.fids[i], want, d, tol)
		}
	}
}

// randomCircuit draws ops gates on n qubits from a mix of 1Q rotations and
// Cliffords and the 2Q kinds routed circuits carry, so the schedule mixes
// fused runs, diagonals, permutations and layers.
func randomCircuit(n, ops int, rng *rand.Rand) *circuit.Circuit {
	c := circuit.New(n)
	for i := 0; i < ops; i++ {
		a := rng.Intn(n)
		b := (a + 1 + rng.Intn(n-1)) % n
		switch rng.Intn(8) {
		case 0:
			c.H(a)
		case 1:
			c.RZ(a, rng.Float64()*math.Pi)
		case 2:
			c.U3(a, rng.Float64(), rng.Float64(), rng.Float64())
		case 3:
			c.CX(a, b)
		case 4:
			c.CZ(a, b)
		case 5:
			c.SqrtISwap(a, b)
		case 6:
			c.CP(a, b, rng.Float64())
		case 7:
			c.Swap(a, b)
		}
	}
	return c
}

// TestWindowedTrajectoriesMatchOracle checks every trajectory's windowed
// fidelity against the full-run oracle, on random circuits from 4 to 14
// qubits (either side of the simulator's 13-qubit tile), at 17 qubits
// (where no intermediate checkpoint fits the budget) and at an error rate
// where every trajectory has events; the mean must be byte-identical at
// every Parallelism.
func TestWindowedTrajectoriesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	type tc struct {
		name  string
		c     *circuit.Circuit
		m     Model
		shots int
	}
	var cases []tc
	for _, n := range []int{4, 9, 12, 13, 14} {
		cases = append(cases, tc{fmt.Sprintf("random-%dq", n), randomCircuit(n, 8*n, rng),
			Model{GateError: 0.01, DecoherenceRate: 0.005}, 48})
	}
	cases = append(cases,
		tc{"random-17q", randomCircuit(17, 40, rng), Model{GateError: 0.02, DecoherenceRate: 0.01}, 12},
		tc{"every-trajectory", workloads.QFT(6, true), Model{GateError: 0.5, DecoherenceRate: 0.5}, 64},
	)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := MonteCarloEstimator{Shots: tc.shots, Seed: 3, Parallelism: 1}
			r, err := e.run(context.Background(), tc.c, tc.m)
			if err != nil {
				t.Fatal(err)
			}
			checkOracle(t, r)
			eventful := 0
			for _, evs := range r.events {
				if len(evs) > 0 {
					eventful++
				}
			}
			if eventful == 0 {
				t.Fatal("no trajectory has an event; the case checks nothing")
			}
			switch tc.name {
			case "random-17q":
				if cps := r.checkpoints(); len(cps) != 0 {
					t.Fatalf("17 qubits: %d checkpoints placed, want none within the budget", len(cps))
				}
			case "every-trajectory":
				if eventful != len(r.events) {
					t.Fatalf("%d of %d trajectories have events, want all", eventful, len(r.events))
				}
			}
			serial, err := e.Estimate(context.Background(), tc.c, tc.m)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []int{2, 7} {
				e.Parallelism = p
				got, err := e.Estimate(context.Background(), tc.c, tc.m)
				if err != nil {
					t.Fatal(err)
				}
				if got != serial {
					t.Fatalf("parallelism %d: %+v, serial %+v", p, got, serial)
				}
			}
		})
	}
}

// TestWindowEdgeEvents drives hand-placed events through the windows: an
// error after step 0, one after the final step, several that all sit on
// one checkpoint boundary (an empty window: the fidelity is read straight
// off the snapshot), and an error-free trajectory.
func TestWindowEdgeEvents(t *testing.T) {
	c := randomCircuit(12, 120, rand.New(rand.NewSource(21)))
	prog := sim.Schedule(c)
	last := prog.Steps() - 1
	mid := prog.Steps() / 2
	events := [][]pauliEvent{
		{{step: 0, q: 3, pi: 0}},
		{{step: last, q: 5, pi: 1}},
		{{step: mid, q: 0, pi: 2}, {step: mid, q: 7, pi: 0}, {step: mid, q: 11, pi: 1}},
		nil,
		{{step: 0, q: 1, pi: 1}, {step: mid, q: 2, pi: 2}, {step: last, q: 9, pi: 0}},
	}
	// Most windows open and close at mid+1, so that boundary is the median
	// and every quantile near it: it becomes a checkpoint.
	for i := 0; i < 40; i++ {
		events = append(events, []pauliEvent{{step: mid, q: i % 12, pi: i % 3}})
	}
	for _, p := range []int{1, 3} {
		r := &mcRun{prog: prog, n: c.N, events: events}
		if err := r.simulate(context.Background(), p); err != nil {
			t.Fatal(err)
		}
		checkOracle(t, r)
		if !slices.Contains(r.checkpoints(), mid+1) {
			t.Fatalf("boundary %d is not a checkpoint: %v", mid+1, r.checkpoints())
		}
		if r.steps[2] != 0 {
			t.Errorf("events on a checkpoint boundary simulated %d steps, want 0", r.steps[2])
		}
	}
}

// TestTrajectoryWindowsSkipErrorFreeSteps is the regression guard on the
// windows themselves: on a 12-qubit QFT at the stock noise profile's
// rates, the trajectories with events must simulate at most a quarter of
// the steps full runs would (one Steps() each). The windows read about 3%;
// starting every trajectory from |0…0⟩ again reads 46%, and running every
// one to the final step again reads over half, so losing either end of
// the window fails.
func TestTrajectoryWindowsSkipErrorFreeSteps(t *testing.T) {
	c := workloads.QFT(12, true)
	m := Model{GateError: 0.002, DecoherenceRate: 0.001}
	r, err := MonteCarloEstimator{Shots: 1024, Seed: 2022}.run(context.Background(), c, m)
	if err != nil {
		t.Fatal(err)
	}
	eventful, simulated := 0, 0
	for i, evs := range r.events {
		if len(evs) > 0 {
			eventful++
		}
		simulated += r.steps[i]
	}
	full := eventful * r.prog.Steps()
	if eventful < 64 {
		t.Fatalf("only %d trajectories have events; the guard needs a sample", eventful)
	}
	if 4*simulated > full {
		t.Fatalf("trajectories simulated %d steps, over a quarter of %d full-run steps (%d trajectories with events × %d)",
			simulated, full, eventful, r.prog.Steps())
	}
	t.Logf("%d trajectories with events simulated %d of %d full-run steps (%.1f%%)",
		eventful, simulated, full, 100*float64(simulated)/float64(full))
}

// TestTrajectoryStatesDoNotScaleWithShots: trajectories reuse one
// sim.State per worker, so eight times the shots — every one with events —
// allocates less than one more statevector, beyond any difference in the
// checkpoint slab.
func TestTrajectoryStatesDoNotScaleWithShots(t *testing.T) {
	c := workloads.GHZ(14)
	m := Model{GateError: 0.5}
	stateBytes := int64(16) << 14
	alloc := func(shots int) (int64, *mcRun) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := MonteCarloEstimator{Shots: shots, Seed: 9, Parallelism: 1}.run(context.Background(), c, m)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		for i, evs := range r.events {
			if len(evs) == 0 {
				t.Fatalf("shots %d: trajectory %d has no event", shots, i)
			}
		}
		return int64(after.TotalAlloc - before.TotalAlloc), r
	}
	small, rs := alloc(32)
	large, rl := alloc(256)
	slab := int64(len(rl.checkpoints())-len(rs.checkpoints())) * stateBytes
	if large > small+slab+stateBytes {
		t.Fatalf("256 shots allocated %d B, 32 shots %d B: %d B more than the checkpoint slab grew (%d B) — a statevector per trajectory?",
			large, small, large-small-slab, slab)
	}
}
