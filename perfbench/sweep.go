package main

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/experiments"
)

// sweepPassesPerSecond sizes sweep_84q (9 passes at 30 s): one pass (the
// quick Fig. 12 and Fig. 14 grids, 120 cells) takes 1.3-1.8 s at two
// workers on a 2-CPU runner.
const sweepPassesPerSecond = 0.3

// sweepSetupBatch is how many times one set-up sample builds the machines:
// one build takes about 0.3 ms, too short to time alone without its spread
// across runs nearing the bound.
const sweepSetupBatch = 16

// cellTimes records when each sweep cell starts and ends. The start comes
// from the sweep's CellHook; the end from context.AfterFunc on the cell's own
// context, which RunContext cancels as the cell returns (it derives one per
// cell because the specs set a CellTimeout).
type cellTimes struct {
	mu    sync.Mutex
	spans [][2]time.Time
	ended sync.WaitGroup // one per started cell, done when its end is taken
}

func (ct *cellTimes) hook(ctx context.Context, _ string, _ int, _ string) error {
	// Let the previous cell's AfterFunc goroutine run before this cell
	// starts, so its end time is taken when that cell returned.
	runtime.Gosched()
	ct.mu.Lock()
	i := len(ct.spans)
	ct.spans = append(ct.spans, [2]time.Time{time.Now()})
	ct.mu.Unlock()
	ct.ended.Add(1)
	context.AfterFunc(ctx, func() {
		end := time.Now()
		ct.mu.Lock()
		ct.spans[i][1] = end
		ct.mu.Unlock()
		ct.ended.Done()
	})
	return nil
}

// sweepSpecs builds the two quick 84-qubit grids: Fig. 12 (SWAP counts over
// five topologies) and Fig. 14 (co-design, core.Machines84), 5 router
// trials, nproc workers, tolerant, no cache.
func sweepSpecs(seed int64) []experiments.SweepSpec {
	specs := []experiments.SweepSpec{experiments.Fig12Spec(true), experiments.Fig14Spec(true)}
	for i := range specs {
		specs[i].Seed = seed
		specs[i].Trials = 5
		specs[i].Parallelism = runtime.NumCPU()
		specs[i].Tolerant = true
		// Never fires on a healthy run; it gives every cell a context of
		// its own whose cancellation marks the cell's end.
		specs[i].CellTimeout = 10 * time.Minute
	}
	return specs
}

// sweepPass runs both grids once, returning their series, per-cell
// latencies, the pass wall time, and the number of failed cells.
func sweepPass(ctx context.Context, specs []experiments.SweepSpec, t *Tracer, op int64) ([][]experiments.Series, []float64, float64, int, error) {
	ct := &cellTimes{}
	passID := t.Begin("sweep.pass", 0, op)
	start := time.Now()
	out := make([][]experiments.Series, len(specs))
	failed := 0
	for i, s := range specs {
		s.CellHook = ct.hook
		series, err := s.RunContext(ctx)
		var cellErrs experiments.CellErrors
		switch {
		case errors.As(err, &cellErrs):
			failed += len(cellErrs)
		case err != nil:
			return nil, nil, 0, 0, err
		}
		out[i] = series
	}
	wall := time.Since(start).Seconds()
	ct.ended.Wait()
	ct.mu.Lock()
	defer ct.mu.Unlock()
	lat := make([]float64, 0, len(ct.spans))
	for _, c := range ct.spans {
		lat = append(lat, c[1].Sub(c[0]).Seconds())
	}
	if t != nil {
		// Cell spans are recorded after the fact from the hook times; the
		// tracer's epoch is the common time base.
		t.End(passID)
		for _, c := range ct.spans {
			t.addSpan("sweep.cell", passID, op, c[0], c[1])
		}
	}
	return out, lat, wall, failed, nil
}

// sweepSums are the paper's figure quantities summed over one pass's two
// grids.
func sweepSums(grids [][]experiments.Series) (swaps, twoq, pulse float64) {
	for _, s := range grids[0] { // Fig. 12: SwapCounts, Total = TotalSwaps
		for _, p := range s.Points {
			swaps += p.Total
		}
	}
	for _, s := range grids[1] { // Fig. 14: Codesign, Total = Total2Q, Critical = PulseDuration
		for _, p := range s.Points {
			twoq += p.Total
			pulse += p.Critical
		}
	}
	return
}

func runSweep(r *run) error {
	ctx := context.Background()
	var specs []experiments.SweepSpec
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC() // every set-up starts from a collected heap
		start := time.Now()
		id := r.tracer.Begin("arch", 0, 0)
		for range sweepSetupBatch {
			specs = sweepSpecs(r.unitSeed(0))
		}
		r.tracer.End(id)
		setups = append(setups, time.Since(start).Seconds()/sweepSetupBatch)
	}
	// The sweep generates its circuits inside each timed pass, so set-up is
	// the machine builds alone.
	r.set("setup_s", Median(setups))
	r.note("setup_s median of %d samples, each the mean of %d machine builds (%s; %.3fs after process start)", len(setups), sweepSetupBatch, spreadNote(setups, "s"), time.Since(processStart).Seconds())

	cellsPerPass := 0
	for _, s := range specs {
		cellsPerPass += len(s.Cells())
	}
	passes := r.units(sweepPassesPerSecond, 4)
	var lat, rates, walls, tracedWalls []float64
	var swaps, twoq, pulse float64
	var untraced [][]experiments.Series // the untraced pass of the current pair
	var decomposed bool
	for p := 0; p < passes; p++ {
		traced := r.traced(p)
		var t *Tracer
		if traced {
			t = r.tracer
		}
		for i := range specs {
			specs[i].Seed = r.unitSeed(p)
		}
		series, l, wall, failed, err := sweepPass(ctx, specs, t, int64(p+1))
		if err != nil {
			return err
		}
		r.attempted += cellsPerPass
		for i := 0; i < failed; i++ {
			r.fail("pass %d: a cell failed", p)
		}
		lat = append(lat, l...)
		if traced {
			tracedWalls = append(tracedWalls, wall)
			if !reflect.DeepEqual(series, untraced) {
				r.fail("pass %d: traced series differ from the untraced pass on the same inputs", p)
			}
			if !decomposed {
				if err := decomposeSweep(ctx, r, specs, series); err != nil {
					return err
				}
				decomposed = true
			}
			continue
		}
		untraced = series
		walls = append(walls, wall)
		rates = append(rates, float64(cellsPerPass)/wall)
		s, q, pd := sweepSums(series)
		swaps, twoq, pulse = swaps+s, twoq+q, pulse+pd
		if r.tracer == nil {
			// A rotating sample, so the run checks every cell position.
			checkSweepSample(ctx, r, specs, series, p)
		}
	}
	n := float64(len(walls))
	r.set("cells_per_s", Median(rates))
	r.note("cells_per_s = median over %d passes of %d cells / pass wall (%s)", len(rates), cellsPerPass, spreadNote(walls, "s"))
	r.latency(lat)
	r.set("swaps_total", swaps/n)
	r.set("twoq_total", twoq/n)
	r.set("pulse_duration_sum", pulse/n)
	if r.tracer != nil {
		r.set("trace.overhead_ratio", pairedOverhead(walls, tracedWalls))
		sweepExecutorMetrics(r, specs[0].Parallelism)
	}
	return nil
}

// sweepCheckStride spaces the cells a pass re-evaluates directly.
const sweepCheckStride = 15

// checkSweepSample re-evaluates the cells of pass p whose index is
// p mod sweepCheckStride directly through core.Machine.EvaluateContext and
// checks the sweep reported the same point.
func checkSweepSample(ctx context.Context, r *run, specs []experiments.SweepSpec, got [][]experiments.Series, p int) {
	for si, s := range specs {
		for _, cell := range s.Cells() {
			if cell.Index%sweepCheckStride != p%sweepCheckStride {
				continue
			}
			c, err := experiments.BenchmarkCircuit(s.Workloads[cell.Workload], cell.Size, s.Seed)
			if err != nil {
				r.fail("check %s cell %d: %v", s.ID, cell.Index, err)
				continue
			}
			met, err := s.Machines[cell.Machine].EvaluateContext(ctx, c, s.CellOptions(cell))
			if err != nil {
				r.fail("check %s cell %d: %v", s.ID, cell.Index, err)
				continue
			}
			want := experiments.PointFromMetrics(s.Kind, cell.Size, met)
			if !hasPoint(got[si][cell.Series], want) {
				r.fail("check %s cell %d: sweep point differs from a direct evaluation", s.ID, cell.Index)
			}
		}
	}
}

func hasPoint(s experiments.Series, p experiments.Point) bool {
	for _, q := range s.Points {
		if q == p {
			return true
		}
	}
	return false
}

// sweepExecutorMetrics reads the sweep executor's numbers from the traced
// passes' cell spans.
func sweepExecutorMetrics(r *run, workers int) {
	spans := r.tracer.Spans()
	var cellLat []float64
	var idle, capacity float64
	for _, pass := range spans {
		if pass.Name != "sweep.pass" {
			continue
		}
		var cells []Span
		for _, s := range spans {
			if s.Name == "sweep.cell" && s.Parent == pass.ID {
				cells = append(cells, s)
				cellLat = append(cellLat, s.Dur()*1e3)
			}
		}
		idle += idleTime(cells, pass, workers)
		capacity += float64(workers) * pass.Dur()
	}
	if v, _, err := Percentile(cellLat, 0.5); err == nil {
		r.set("sweep.cell_p50_ms", v)
	} else {
		r.fail("sweep.cell_p50_ms: %v", err)
	}
	r.set("sweep.cell_max_ms", maxOf(cellLat))
	if capacity > 0 {
		r.set("sweep.pool_idle_share", idle/capacity)
	}
}

// decomposeSweep runs one pass's cells one by one, each split into circuit
// generation and the pipeline's passes under spans, checks every point
// against the sweep's, and reports the stage busy times and shares.
func decomposeSweep(ctx context.Context, r *run, specs []experiments.SweepSpec, want [][]experiments.Series) error {
	t := r.tracer
	var sc stageCounts
	var total float64
	op := int64(1 << 20)
	for si, s := range specs {
		for _, cell := range s.Cells() {
			op++
			cellID := t.Begin("decomposed.cell", 0, op)
			gen := t.Begin("workloads", cellID, op)
			c, err := experiments.BenchmarkCircuit(s.Workloads[cell.Workload], cell.Size, s.Seed)
			t.End(gen)
			if err != nil {
				return err
			}
			met, _, err := decompose(ctx, t, cellID, op, s.Machines[cell.Machine], c, s.CellOptions(cell), &sc)
			t.End(cellID)
			if err != nil {
				r.fail("decompose %s cell %d: %v", s.ID, cell.Index, err)
				continue
			}
			if !hasPoint(want[si][cell.Series], experiments.PointFromMetrics(s.Kind, cell.Size, met)) {
				r.fail("decompose %s cell %d: pass-by-pass metrics differ from the sweep", s.ID, cell.Index)
			}
		}
	}
	spans := t.Spans()
	for _, s := range spans {
		if s.Name == "decomposed.cell" {
			total += s.Dur()
		}
	}
	r.setLayerShares(BusyByName(spans), total, &sc)
	return nil
}

// idleTime is the worker time within pass that no cell occupied: the
// integral over the pass of max(0, workers − cells running).
func idleTime(cells []Span, pass Span, workers int) float64 {
	type event struct {
		at    int64
		delta int
	}
	evs := []event{{pass.Start, 0}, {pass.End, 0}}
	for _, c := range cells {
		evs = append(evs, event{max(c.Start, pass.Start), +1}, event{min(c.End, pass.End), -1})
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	var idle int64
	running := 0
	for i := 0; i+1 < len(evs); i++ {
		running += evs[i].delta
		idle += int64(max(0, workers-running)) * (evs[i+1].at - evs[i].at)
	}
	return float64(idle) / 1e9
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
