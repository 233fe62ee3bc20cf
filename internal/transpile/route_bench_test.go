package transpile

import (
	"math/rand"
	"testing"

	"repro/internal/topology"
	"repro/internal/workloads"
)

// BenchmarkFindSwaps times one findSwaps round (5 trials, the quick sweeps'
// setting, serial) on Hypercube84 for a single far pair — the shape of the
// serial-fallback searches that make up most trials — and for a whole
// QuantumVolume layer. ordinals_scanned/trial is how many of the stream's
// n(n−1)/2 = 3486 draw ordinals a trial classifies on average: the length
// of the lazily extended consumption prefix.
func BenchmarkFindSwaps(b *testing.B) {
	g := topology.Hypercube84()
	c, err := workloads.Generate("QuantumVolume", 32, rand.New(rand.NewSource(8)))
	if err != nil {
		b.Fatal(err)
	}
	layout, err := DenseLayout(g, c)
	if err != nil {
		b.Fatal(err)
	}
	flat, err := flattenCost(g, nil)
	if err != nil {
		b.Fatal(err)
	}
	newRouter := func() *router {
		return &router{
			g:       g,
			dist:    g.Distances(),
			cost:    flat,
			layout:  layout.Copy(),
			rng:     rand.New(rand.NewSource(4)),
			trials:  5,
			workers: 1,
		}
	}
	// The first layer with a non-adjacent pair under the dense layout.
	var layer [][2]int
	r := newRouter()
	for _, l := range c.Layers() {
		layer = layer[:0]
		for _, idx := range l {
			if op := c.Ops[idx]; op.Is2Q() {
				layer = append(layer, [2]int{op.Qubits[0], op.Qubits[1]})
			}
		}
		if !r.allAdjacent(layer) {
			break
		}
	}
	for _, bc := range []struct {
		name  string
		pairs [][2]int
	}{
		{"single-pair", [][2]int{{0, 15}}},
		{"full-layer", layer},
	} {
		b.Run(bc.name, func(b *testing.B) {
			r := newRouter()
			if r.allAdjacent(bc.pairs) {
				b.Fatal("benchmark pairs are already adjacent")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.findSwaps(bc.pairs)
			}
			b.StopTimer()
			b.ReportMetric(ordinalsPerTrial(newRouter(), bc.pairs, 200), "ordinals_scanned/trial")
		})
	}
}

// ordinalsPerTrial runs trials fresh trials of the pairs' search, with the
// depth limit findSwaps uses, and averages the draw ordinals each one
// classified.
func ordinalsPerTrial(r *router, pairs [][2]int, trials int) float64 {
	limit := 2*r.g.N() + 4*len(pairs)
	r.seeds = grow(r.seeds, trials)
	sc := r.scratch(0)
	sc.bestTrial = -1
	total := 0
	for t := range r.seeds {
		r.seeds[t] = r.rng.Int63()
		r.runTrial(pairs, t, limit, sc)
		total += int(sc.classified)
	}
	return float64(total) / float64(trials)
}
