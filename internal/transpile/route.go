package transpile

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/circuit"
	"repro/internal/par"
	"repro/internal/topology"
)

// RouteResult is the outcome of SWAP routing: a physical-qubit circuit with
// SWAPs inserted (ready for basis translation), the number of inserted
// SWAPs, and the final virtual→physical layout after all permutations.
type RouteResult struct {
	Circuit     *circuit.Circuit
	SwapCount   int
	FinalLayout Layout
}

// DefaultTrials matches Qiskit StochasticSwap's default trial count.
const DefaultTrials = 20

// StochasticSwap routes a virtual circuit onto the coupling graph using the
// randomized layer-permutation search of Qiskit's StochasticSwap pass, which
// the paper uses for routing (§5): the circuit is processed layer by layer;
// when a layer contains non-adjacent 2Q gates, several randomized trials
// greedily pick cost-reducing SWAPs under perturbed distance matrices, and
// the shortest successful SWAP sequence is applied. Layers no trial can
// solve whole are routed gate-by-gate (Qiskit's serial-layer fallback).
//
// Each trial runs on its own RNG seeded from the caller's stream up front,
// so the routed circuit is a pure function of (graph, circuit, layout, rng
// seed, trials) — StochasticSwapParallel produces bit-identical output.
func StochasticSwap(g *topology.Graph, c *circuit.Circuit, initial Layout, rng *rand.Rand, trials int) (*RouteResult, error) {
	return StochasticSwapParallel(g, c, initial, rng, trials, 1)
}

// StochasticSwapParallel is StochasticSwap with the per-layer randomized
// trials spread over a bounded worker pool. parallelism follows the
// par.Resolve convention (0 = auto/GOMAXPROCS, ≤1 = serial). The result is
// bit-identical to the serial pass for the same inputs: trial seeds are
// pre-drawn from rng, and the winning sequence is picked by (length,
// lowest trial index) independent of completion order.
func StochasticSwapParallel(g *topology.Graph, c *circuit.Circuit, initial Layout, rng *rand.Rand, trials, parallelism int) (*RouteResult, error) {
	return StochasticSwapCost(g, c, initial, rng, trials, parallelism, nil)
}

// StochasticSwapCost is StochasticSwapParallel with an explicit routing cost
// matrix: cost[i][j] replaces the hop distance between physical vertices i
// and j in the randomized trials' objective, so a profile-guided caller can
// price congested edges above idle ones (see EdgeProfile). A nil cost means
// uniform hop distances, which reproduces StochasticSwapParallel exactly —
// the default pipeline routes through this same code path byte-for-byte.
// The cost matrix only shapes the search; adjacency (when a gate can
// execute) and the greedy fallback still come from the coupling graph.
func StochasticSwapCost(g *topology.Graph, c *circuit.Circuit, initial Layout, rng *rand.Rand, trials, parallelism int, cost [][]float64) (*RouteResult, error) {
	return StochasticSwapCostCtx(context.Background(), g, c, initial, rng, trials, parallelism, cost)
}

// StochasticSwapCostCtx is StochasticSwapCost with cooperative cancellation:
// ctx is polled once per circuit layer and once per serial-fallback routing
// step — the units of trial fan-out, where a cell's wall-clock actually
// accumulates — so a deadline-bound evaluation stops within one layer's
// worth of trials instead of routing the whole circuit. Cancellation never
// alters output: a run that completes is byte-identical with any ctx.
func StochasticSwapCostCtx(ctx context.Context, g *topology.Graph, c *circuit.Circuit, initial Layout, rng *rand.Rand, trials, parallelism int, cost [][]float64) (*RouteResult, error) {
	if len(initial) != c.N {
		return nil, fmt.Errorf("transpile: layout covers %d qubits, circuit has %d", len(initial), c.N)
	}
	if err := initial.Validate(g); err != nil {
		return nil, err
	}
	if err := checkGatePairsReachable(g, c, initial); err != nil {
		return nil, err
	}
	if trials <= 0 {
		trials = DefaultTrials
	}
	flat, err := flattenCost(g, cost)
	if err != nil {
		return nil, err
	}
	r := &router{
		g:       g,
		dist:    g.Distances(),
		cost:    flat,
		out:     circuit.New(g.N()),
		layout:  initial.Copy(),
		rng:     rng,
		trials:  trials,
		workers: par.Resolve(parallelism),
	}
	for _, layer := range c.Layers() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var twoQ []circuit.Op
		var pairs [][2]int
		for _, idx := range layer {
			op := c.Ops[idx]
			if op.Is2Q() {
				twoQ = append(twoQ, op)
				pairs = append(pairs, [2]int{op.Qubits[0], op.Qubits[1]})
			} else {
				r.emit(op) // 1Q gates route trivially
			}
		}
		if len(pairs) == 0 {
			continue
		}
		if seq := r.findSwaps(pairs); seq != nil {
			r.applySwaps(seq)
			for _, op := range twoQ {
				r.emit(op)
			}
			continue
		}
		// Serial fallback: route and emit the layer one gate at a time.
		for i, op := range twoQ {
			single := [][2]int{pairs[i]}
			for !r.allAdjacent(single) {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				seq := r.findSwaps(single)
				if seq == nil {
					seq = r.greedyStep(pairs[i])
				}
				if len(seq) == 0 {
					return nil, fmt.Errorf("transpile: routing stuck on gate %v", op)
				}
				r.applySwaps(seq)
			}
			r.emit(op)
		}
	}
	return &RouteResult{Circuit: r.out, SwapCount: r.swaps, FinalLayout: r.layout}, nil
}

// router carries the mutable routing state. dist (hops) bounds search depth
// and drives the greedy fallback; cost (flattened n×n) is the objective the
// randomized trials perturb — float64 hop distances by default, a weighted
// matrix under profile-guided routing.
//
// All per-layer and per-trial working memory lives in reusable buffers:
// scratches holds one routerScratch per trial worker (slot 0 doubles as the
// serial-path scratch), and the seeds/inv buffers plus the qubit arena
// amortize the remaining per-layer allocations, so the N-trials × L-layers
// inner loop stops re-making O(n²) state (see routerScratch).
type router struct {
	g       *topology.Graph
	dist    [][]int
	cost    []float64
	out     *circuit.Circuit
	layout  Layout
	swaps   int
	rng     *rand.Rand
	trials  int
	workers int

	scratches []*routerScratch // lazily sized to the resolved worker count
	seeds     []int64          // per-trial RNG seeds, drawn up front
	inv       []int            // physical→virtual scratch for applySwaps
	arena     intArena         // backing storage for emitted ops' qubit slices
}

// routerScratch is the reusable working state of one routing trial
// (trialSearch): the lazily materialized perturbed cost matrix, the
// per-pair endpoint and per-vertex incidence tables, the epoch-stamped
// visited marks, the swap sequence under construction, and the best
// sequence this worker slot has found in the current findSwaps round. One
// scratch is bound to one par worker slot at a time, so trials reuse these
// buffers without locking and the trial loop runs allocation-free after
// warm-up.
//
// The perturbed matrix is not computed up front. A trial's gaussians come
// one per unordered vertex pair in a fixed row-major stream order, but the
// greedy search typically reads only the entries around the current pairs'
// positions, a tiny fraction of the n² matrix on the 84-vertex machines
// (the single-gate fallback path reads a handful). A fast-path ziggurat
// draw is a pure function of its stream offset, via the splitmix64 counter
// property state_k = state_0 + k·γ; only the rare slow-path draws consume
// extra stream values and shift every later offset. So the scratch keeps a
// "consumption pass" over the stream — an integer-only classification of
// draws as fast or slow (no float math, no stores for fast draws) that
// records ordinal, cumulative extra consumption and value of each
// slow-path draw — and extends that pass lazily: only as far as the
// highest ordinal the trial has read so far. at() then reconstructs any
// entry on demand, bit-identical to the eager computation (pinned by
// TestLazyPerturbMatchesEager).
type routerScratch struct {
	d          []float64 // perturbed n×n cost entries, valid where stamped
	stamp      []uint32  // generation marks for d (gen bumps per trial)
	gen        uint32
	state0     uint64     // trial seed (splitmix64 state before the first draw)
	cursor     splitmix64 // stream position after the classified prefix
	classified int32      // ordinals [0, classified) have been classified
	extra      int32      // extra Uint64s consumed by slow draws so far
	slowOrd    []int32    // classified ordinals that took the slow path, ascending
	slowCum    []int32    // cumulative extra Uint64s consumed through slowOrd[i]
	slowVal    []float64  // |gaussian| drawn at slowOrd[i]

	pos     [][2]int // current physical endpoints per pair
	pairsAt [][]int  // pair indices touching each vertex
	seen    []int    // epoch marks per pair (monotone epoch ⇒ no clearing)
	epoch   int
	touched []int    // pairs adjacent to the edge being applied
	seq     [][2]int // swap sequence under construction

	best      [][2]int // shortest sequence of this slot's trials this round
	bestTrial int      // trial index that produced best; -1 when none yet
}

// scratch returns the worker's reusable trial scratch, growing the slot
// table and the matrix buffers on first use (the router is per-call, so n
// is fixed for its lifetime).
func (r *router) scratch(worker int) *routerScratch {
	for len(r.scratches) <= worker {
		r.scratches = append(r.scratches, &routerScratch{})
	}
	sc := r.scratches[worker]
	if n := r.g.N(); len(sc.d) != n*n {
		sc.d = make([]float64, n*n)
		sc.stamp = make([]uint32, n*n)
		sc.gen = 0
		sc.pairsAt = make([][]int, n)
	}
	return sc
}

// prep resets the scratch for one trial in O(1): bump the matrix
// generation and rewind the consumption pass to the start of the trial's
// stream. Draws are classified later, by fill, as reads reach them.
func (sc *routerScratch) prep(seed uint64) {
	sc.state0 = seed
	sc.gen++
	if sc.gen == 0 { // generation wrap: stale stamps could collide
		clear(sc.stamp)
		sc.gen = 1
	}
	sc.cursor = splitmix64{state: seed}
	sc.classified = 0
	sc.extra = 0
	sc.slowOrd = sc.slowOrd[:0]
	sc.slowCum = sc.slowCum[:0]
	sc.slowVal = sc.slowVal[:0]
}

// classify extends the consumption pass to cover ordinals [0, end):
// fast-path draws are only stepped over, slow-path draws are finished and
// appended to the slow records, which therefore stay sorted by ordinal.
func (sc *routerScratch) classify(end int32) {
	sm, extra := sc.cursor, sc.extra
	for k := sc.classified; k < end; k++ {
		sm.state += smGamma
		j := int32(uint32(smScramble(sm.state) >> 32))
		i := j & 0x7F
		if zigAbsInt32(j) < zigKn[i] {
			continue // fast path: value reconstructible from the offset alone
		}
		g, consumed := sm.slowNormFloat64(j)
		extra += consumed
		sc.slowOrd = append(sc.slowOrd, k)
		sc.slowCum = append(sc.slowCum, extra)
		sc.slowVal = append(sc.slowVal, absf(g))
	}
	sc.cursor, sc.extra, sc.classified = sm, extra, end
}

// at returns the perturbed cost entry for the (distinct) vertices x, y,
// materializing it on first read in this trial.
func (sc *routerScratch) at(base []float64, n, x, y int) float64 {
	idx := x*n + y
	if sc.stamp[idx] != sc.gen {
		sc.fill(base, n, x, y, idx)
	}
	return sc.d[idx]
}

// fill materializes one symmetric pair of perturbed entries: look up the
// unordered pair's draw ordinal, extend the consumption pass through it if
// no earlier read reached that far, recover the gaussian — directly from
// the counter offset for fast-path draws, from the slow-path records
// otherwise — and store base·(1 + 0.1|gauss|) under both orientations,
// exactly the values the historical eager loop produced.
func (sc *routerScratch) fill(base []float64, n, x, y, idx int) {
	lo, hi := x, y
	if lo > hi {
		lo, hi = hi, lo
	}
	// Ordinal of (lo, hi) in the row-major i<j draw order.
	k := int32(lo*n - lo*(lo+1)/2 + (hi - lo - 1))
	if k >= sc.classified {
		sc.classify(k + 1)
	}
	var g float64
	// Binary search the slow-draw records for k (they are few and sorted).
	a, b := 0, len(sc.slowOrd)
	for a < b {
		m := (a + b) / 2
		if sc.slowOrd[m] < k {
			a = m + 1
		} else {
			b = m
		}
	}
	if a < len(sc.slowOrd) && sc.slowOrd[a] == k {
		g = sc.slowVal[a]
	} else {
		var extra int32
		if a > 0 {
			extra = sc.slowCum[a-1]
		}
		state := sc.state0 + uint64(uint64(k)+uint64(extra)+1)*smGamma
		j := int32(uint32(smScramble(state) >> 32))
		i := j & 0x7F
		// |float64(j)·w| == float64(|j|)·w bit-for-bit: IEEE negation is
		// exact and rounding is sign-symmetric.
		g = float64(zigAbsInt32(j)) * zigWn64[i]
	}
	v := base[lo*n+hi] * (1 + 0.1*g)
	sym := y*n + x
	sc.d[idx], sc.d[sym] = v, v
	sc.stamp[idx], sc.stamp[sym] = sc.gen, sc.gen
}

// grow resizes a scratch slice to n, preserving capacity across calls.
// Stale contents are the caller's concern (the epoch scheme makes stale
// seen marks harmless; other users overwrite before reading).
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// flattenCost validates a routing cost matrix and flattens it row-major; a
// nil matrix falls back to the hop-distance matrix as floats (the uniform
// baseline the pipeline has always used).
func flattenCost(g *topology.Graph, cost [][]float64) ([]float64, error) {
	n := g.N()
	flat := make([]float64, n*n)
	if cost == nil {
		dist := g.Distances()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				flat[i*n+j] = float64(dist[i][j])
			}
		}
		return flat, nil
	}
	if len(cost) != n {
		return nil, fmt.Errorf("transpile: cost matrix is %dx?, graph has %d vertices", len(cost), n)
	}
	for i, row := range cost {
		if len(row) != n {
			return nil, fmt.Errorf("transpile: cost row %d has %d entries, want %d", i, len(row), n)
		}
		copy(flat[i*n:(i+1)*n], row)
	}
	return flat, nil
}

func (r *router) emit(op circuit.Op) {
	phys := r.arena.take(len(op.Qubits))
	for i, q := range op.Qubits {
		phys[i] = r.layout[q]
	}
	r.out.Append(circuit.Op{Name: op.Name, Qubits: phys, Params: op.Params, U: op.U})
}

func (r *router) applySwaps(seq [][2]int) {
	r.inv = grow(r.inv, r.g.N())
	inv := r.layout.InverseInto(r.inv)
	for _, e := range seq {
		a, b := e[0], e[1]
		q := r.arena.take(2)
		q[0], q[1] = a, b
		r.out.Append(circuit.Op{Name: "swap", Qubits: q})
		r.swaps++
		va, vb := inv[a], inv[b]
		if va >= 0 {
			r.layout[va] = b
		}
		if vb >= 0 {
			r.layout[vb] = a
		}
		inv[a], inv[b] = vb, va
	}
}

func (r *router) allAdjacent(pairs [][2]int) bool {
	for _, p := range pairs {
		if !r.g.HasEdge(r.layout[p[0]], r.layout[p[1]]) {
			return false
		}
	}
	return true
}

// greedyStep moves one endpoint of the pair a single hop along a shortest
// path toward the other endpoint.
func (r *router) greedyStep(p [2]int) [][2]int {
	a, b := r.layout[p[0]], r.layout[p[1]]
	for _, w := range r.g.Neighbors(a) {
		if r.dist[w][b] == r.dist[a][b]-1 {
			return [][2]int{{a, w}}
		}
	}
	return nil
}

// findSwaps runs randomized trials and returns the shortest SWAP sequence
// (list of physical edges, applied in order) that makes every pair adjacent,
// or nil if no trial succeeds within the depth limit. The returned slice
// aliases a scratch-owned buffer that stays valid until the next findSwaps
// call (callers apply it immediately).
//
// Every trial gets its own RNG seeded from the router's stream before any
// trial runs, and the winner is the minimum-length sequence with ties
// broken by lowest trial index. Both choices make the outcome independent
// of execution schedule, so the serial and worker-pool paths below are
// interchangeable bit-for-bit: each worker slot keeps its own best (length,
// trial index, sequence), and the winner is the minimum over the slots by
// the same order.
func (r *router) findSwaps(pairs [][2]int) [][2]int {
	if r.allAdjacent(pairs) {
		return [][2]int{}
	}
	n := r.g.N()
	limit := 2*n + 4*len(pairs)
	r.seeds = grow(r.seeds, r.trials)
	for t := range r.seeds {
		r.seeds[t] = r.rng.Int63()
	}
	// Scratch slots are grown up front — inside the pool, workers index
	// r.scratches without mutating it.
	slots := min(r.workers, r.trials)
	for w := 0; w < slots; w++ {
		r.scratch(w).bestTrial = -1
	}
	if slots <= 1 {
		sc := r.scratches[0]
		for t := 0; t < r.trials; t++ {
			r.runTrial(pairs, t, limit, sc)
		}
	} else {
		// trialSearch only reads shared router state (g, dist, layout) and
		// mutates only its worker-slot scratch, so trials share nothing.
		par.ForEachWorker(r.trials, slots, func(worker, t int) error {
			r.runTrial(pairs, t, limit, r.scratches[worker])
			return nil
		})
	}
	var win *routerScratch
	for _, sc := range r.scratches[:slots] {
		if sc.bestTrial >= 0 && (win == nil || beats(len(sc.best), sc.bestTrial, len(win.best), win.bestTrial)) {
			win = sc
		}
	}
	if win == nil {
		return nil
	}
	return win.best
}

// beats reports whether a successful trial t with an l-swap sequence wins
// over the incumbent (bestLen, bestTrial): shorter first, then lower trial
// index.
func beats(l, t, bestLen, bestTrial int) bool {
	return l < bestLen || (l == bestLen && t < bestTrial)
}

// runTrial resets the scratch's lazily perturbed view of the router's cost
// matrix (d' = d·(1 + 0.1|gauss|), symmetric per unordered pair — hop
// distances by default, pressure-weighted under profile-guided routing)
// and greedily searches under it. When the trial makes every pair adjacent
// within the limit and beats the slot's best so far, its sequence becomes
// the slot's best (the buffers swap, so nothing is copied).
func (r *router) runTrial(pairs [][2]int, t, limit int, sc *routerScratch) {
	sc.prep(uint64(r.seeds[t]))
	if !r.trialSearch(pairs, sc, limit) {
		return
	}
	if sc.bestTrial < 0 || beats(len(sc.seq), t, len(sc.best), sc.bestTrial) {
		sc.best, sc.seq = sc.seq, sc.best
		sc.bestTrial = t
	}
}

// trialSearch greedily applies the cost-minimizing swap until every pair is
// adjacent, a local minimum is hit, or the depth limit is reached. Cost
// deltas are evaluated incrementally: a candidate swap only affects pairs
// with an endpoint on the swapped edge. All working state lives in sc, so
// steady-state trials allocate nothing.
func (r *router) trialSearch(pairs [][2]int, sc *routerScratch, limit int) bool {
	n := r.g.N()
	base := r.cost
	sc.pos = grow(sc.pos, len(pairs))
	pos := sc.pos
	pairsAt := sc.pairsAt
	for v := range pairsAt {
		pairsAt[v] = pairsAt[v][:0]
	}
	notAdj := 0
	for i, p := range pairs {
		pa, pb := r.layout[p[0]], r.layout[p[1]]
		pos[i] = [2]int{pa, pb}
		pairsAt[pa] = append(pairsAt[pa], i)
		pairsAt[pb] = append(pairsAt[pb], i)
		if !r.g.HasEdge(pa, pb) {
			notAdj++
		}
	}
	// pairDelta maps each endpoint to its post-swap replacement during
	// delta evaluation of a candidate edge. Cost entries come from the
	// scratch's lazily materialized perturbed matrix.
	pairDelta := func(i, a, b int) float64 {
		remap := func(v int) int {
			switch v {
			case a:
				return b
			case b:
				return a
			}
			return v
		}
		oa, ob := pos[i][0], pos[i][1]
		return sc.at(base, n, remap(oa), remap(ob)) - sc.at(base, n, oa, ob)
	}
	// seen marks are epoch-stamped and the epoch is monotone per scratch,
	// so stale marks from earlier trials can never collide and the buffer
	// is reused without clearing.
	sc.seen = grow(sc.seen, len(pairs))
	seen := sc.seen
	sc.seq = sc.seq[:0]
	for step := 0; step < limit && notAdj > 0; step++ {
		bestDelta := -1e-12
		bestEdge := [2]int{-1, -1}
		for _, e := range r.g.Edges() {
			a, b := e[0], e[1]
			if len(pairsAt[a]) == 0 && len(pairsAt[b]) == 0 {
				continue
			}
			sc.epoch++
			delta := 0.0
			for _, i := range pairsAt[a] {
				seen[i] = sc.epoch
				delta += pairDelta(i, a, b)
			}
			for _, i := range pairsAt[b] {
				if seen[i] == sc.epoch {
					continue
				}
				delta += pairDelta(i, a, b)
			}
			if delta < bestDelta {
				bestDelta = delta
				bestEdge = e
			}
		}
		if bestEdge[0] < 0 {
			break // local minimum under this perturbation
		}
		a, b := bestEdge[0], bestEdge[1]
		// Apply the swap to the trial state: collect the pairs touching the
		// edge, move their endpoints, and rebuild the two incidence lists
		// in place (touched is captured first, so truncating is safe).
		sc.epoch++
		sc.touched = sc.touched[:0]
		for _, i := range pairsAt[a] {
			seen[i] = sc.epoch
			sc.touched = append(sc.touched, i)
		}
		for _, i := range pairsAt[b] {
			if seen[i] != sc.epoch {
				sc.touched = append(sc.touched, i)
			}
		}
		for _, i := range sc.touched {
			if r.g.HasEdge(pos[i][0], pos[i][1]) {
				notAdj++
			}
			if pos[i][0] == a {
				pos[i][0] = b
			} else if pos[i][0] == b {
				pos[i][0] = a
			}
			if pos[i][1] == a {
				pos[i][1] = b
			} else if pos[i][1] == b {
				pos[i][1] = a
			}
			if r.g.HasEdge(pos[i][0], pos[i][1]) {
				notAdj--
			}
		}
		pairsAt[a], pairsAt[b] = pairsAt[a][:0], pairsAt[b][:0]
		for _, i := range sc.touched {
			if pos[i][0] == a || pos[i][1] == a {
				pairsAt[a] = append(pairsAt[a], i)
			}
			if pos[i][0] == b || pos[i][1] == b {
				pairsAt[b] = append(pairsAt[b], i)
			}
		}
		sc.seq = append(sc.seq, bestEdge)
	}
	return notAdj == 0
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// splitmix64 is a tiny rand.Source64 with O(1) construction, used for the
// per-trial RNGs: the default math/rand source runs a 607-step seeding
// procedure, which dominated findSwaps on small topologies where one
// trial's whole perturbation pass is only a few hundred draws. The state
// advances by a fixed increment per draw, so the k-th output is the O(1)
// function smScramble(state + k·smGamma) — the property routerScratch's
// lazy perturbation relies on.
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
