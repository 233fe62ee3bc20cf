package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/workloads"
)

// noisyPassesPerSecond sizes noisy_14q (10 passes at 30 s): one pass of its
// 60 cells takes 6-8 s on a 2-CPU runner. It gets more passes than the other
// workloads need because its cells' latencies spread over a decade, so its
// median cell needs many draws to settle.
const noisyPassesPerSecond = 1.0 / 3

// noisyMachines are one 12-14-qubit machine per basis family. The cap
// keeps every touched-qubit count near the simulator's 13-qubit tile
// boundary, which bounds the statevector and so the cost of a cell.
var noisyMachines = []string{
	"grid:rows=3,cols=4,basis=syc",
	"heavyhex:rows=2,cols=5",
	"tree:levels=2,radix=3,basis=sqrtiswap",
	"corral:posts=7,strides=1+1,basis=sqrtiswap",
	"hypercube:dim=4,trim=14,basis=sqrtiswap",
}

const noisyProfile = "e2q=0.002,tdec=0.001,e2q-0-1=0.05"

var noisyWidths = []int{10, 12}

// noisyCell is one Monte-Carlo evaluation: a machine, a logical circuit
// and the options core.Machine.EvaluateContext runs it under.
type noisyCell struct {
	m   core.Machine
	c   *circuit.Circuit
	opt core.Options
}

// noisySetup builds the machines and the noise profile, then each pass's
// cells from that pass's input seed.
func noisySetup(r *run, passes int) ([][]noisyCell, error) {
	id := r.tracer.Begin("arch", 0, 0)
	prof, err := arch.ParseNoise(noisyProfile)
	if err != nil {
		return nil, err
	}
	machines := make([]core.Machine, len(noisyMachines))
	for i, spec := range noisyMachines {
		if machines[i], err = core.FromSpec(spec); err != nil {
			return nil, err
		}
	}
	r.tracer.End(id)
	id = r.tracer.Begin("workloads", 0, 0)
	defer r.tracer.End(id)
	out := make([][]noisyCell, passes)
	for p := range out {
		seed := r.unitSeed(p)
		for _, w := range workloads.Names() {
			for _, size := range noisyWidths {
				c, err := experiments.BenchmarkCircuit(w, size, seed)
				if err != nil {
					return nil, err
				}
				for _, m := range machines {
					out[p] = append(out[p], noisyCell{m: m, c: c, opt: core.Options{
						Seed:        experiments.TaskSeed("noisy_14q", w, size, m.Name, seed),
						Trials:      5,
						Parallelism: runtime.NumCPU(),
						Noise:       prof,
						Fidelity:    core.FidelityMonteCarlo,
						NoiseShots:  256,
					}})
				}
			}
		}
	}
	return out, nil
}

// noisyCheckStride spaces the cells an untraced run evaluates a second
// time to check the result repeats.
const noisyCheckStride = 15

func runNoisy(r *run) error {
	ctx := context.Background()
	passes := r.units(noisyPassesPerSecond, 4)
	var cells [][]noisyCell
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC() // every set-up starts from a collected heap
		start := time.Now()
		var err error
		if cells, err = noisySetup(r, passes); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	r.set("setup_s", Median(setups))
	r.note("setup_s median of %d set-ups of %d passes' cells (first %.4fs)", len(setups), passes, setups[0])

	var lat, walls, tracedWalls []float64
	var untraced []core.Metrics // the untraced pass of the current pair
	var sc stageCounts
	var swaps, twoq, pulse float64
	for p := 0; p < passes; p++ {
		traced := r.traced(p)
		got := make([]core.Metrics, len(cells[p]))
		start := time.Now()
		for i, cell := range cells[p] {
			r.attempted++
			t0 := time.Now()
			var met core.Metrics
			var err error
			if traced {
				met, err = noisyTraced(ctx, r.tracer, int64(p*len(cells[p])+i+1), cell, &sc)
			} else {
				met, err = cell.m.EvaluateContext(ctx, cell.c, cell.opt)
			}
			lat = append(lat, time.Since(t0).Seconds())
			if err != nil {
				r.fail("pass %d cell %d (%s): %v", p, i, cell.m.Name, err)
				continue
			}
			if !(met.EstFidelity > 0 && met.EstFidelity <= 1) {
				r.fail("pass %d cell %d (%s): fidelity %v outside (0, 1]", p, i, cell.m.Name, met.EstFidelity)
				continue
			}
			got[i] = met
			if traced && met != untraced[i] {
				r.fail("pass %d cell %d (%s): pass-by-pass metrics differ from EvaluateContext", p, i, cell.m.Name)
			}
		}
		wall := time.Since(start).Seconds()
		if traced {
			tracedWalls = append(tracedWalls, wall)
			continue
		}
		untraced = got
		walls = append(walls, wall)
		for _, m := range got {
			swaps += float64(m.TotalSwaps)
			twoq += float64(m.Total2Q)
			pulse += m.PulseDuration
			sc.fidelities = append(sc.fidelities, m.EstFidelity)
		}
		if r.tracer == nil {
			// Determinism: a rotating sample of the pass evaluated again.
			for i := p % noisyCheckStride; i < len(cells[p]); i += noisyCheckStride {
				again, err := cells[p][i].m.EvaluateContext(ctx, cells[p][i].c, cells[p][i].opt)
				if err != nil || again != got[i] {
					r.fail("pass %d cell %d: a second evaluation differs (%v)", p, i, err)
				}
			}
		}
	}
	n := float64(len(walls))
	r.set("cells_per_s", n*float64(len(cells[0]))/sum(walls))
	r.note("cells_per_s = %d passes x %d cells / summed pass wall (%s)", len(walls), len(cells[0]), spreadNote(walls, "s"))
	r.latency(lat)
	r.set("swaps_total", swaps/n)
	r.set("twoq_total", twoq/n)
	r.set("pulse_duration_sum", pulse/n)
	r.note("noise fidelity mean %.6f over %d cells", Mean(sc.fidelities), len(sc.fidelities))
	if r.tracer == nil {
		return nil
	}
	r.set("trace.overhead_ratio", pairedOverhead(walls, tracedWalls))
	var total float64
	spans := r.tracer.Spans()
	for _, s := range spans {
		if s.Name == "noisy.cell" {
			total += s.Dur()
		}
	}
	r.setLayerShares(BusyByName(spans), total, &sc)
	return nil
}

// noisyTraced evaluates one cell pass by pass, then estimates its fidelity
// and schedules it for the simulator, each under its own span.
func noisyTraced(ctx context.Context, t *Tracer, op int64, cell noisyCell, sc *stageCounts) (core.Metrics, error) {
	id := t.Begin("noisy.cell", 0, op)
	defer t.End(id)
	met, pctx, err := decompose(ctx, t, id, op, cell.m, cell.c, cell.opt, sc)
	if err != nil {
		return met, err
	}
	if err := estimateTraced(ctx, t, id, op, cell.m, pctx.Routed.Circuit, cell.opt, &met, sc); err != nil {
		return met, fmt.Errorf("%s: %w", cell.m.Name, err)
	}
	return met, nil
}
