package transpile

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/circuit"
	"repro/internal/topology"
	"repro/internal/workloads"
)

// reversalCircuit is one layer pairing virtual qubit i with n-1-i. Under the
// trivial layout on an 84-qubit machine trials rarely make the whole layer
// adjacent, so it is usually routed through the single-gate serial
// fallback.
func reversalCircuit(n int) *circuit.Circuit {
	c := circuit.New(n)
	for i := 0; i < n/2; i++ {
		c.CX(i, n-1-i)
	}
	return c
}

// TestStochasticSwapParallelMatchesSerial asserts the router's trial pool
// is schedule-independent: the routed circuit, swap count, and final
// layout are bit-identical for serial and parallel trial execution with
// the same seed, on every 84-qubit Fig. 12 topology, for trial counts on
// both sides of the worker count, and on layers routed whole as well as
// through the single-gate fallback.
func TestStochasticSwapParallelMatchesSerial(t *testing.T) {
	qv, err := workloads.Generate("QuantumVolume", 24, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	rev := reversalCircuit(84)
	graphs := []*topology.Graph{
		topology.HeavyHex84(),
		topology.SquareLattice84(),
		topology.Tree84(),
		topology.TreeRR84(),
		topology.Hypercube84(),
	}
	for _, g := range graphs {
		qvLayout, err := DenseLayout(g, qv)
		if err != nil {
			t.Fatal(err)
		}
		cases := []struct {
			name   string
			c      *circuit.Circuit
			layout Layout
		}{
			{"QuantumVolume24", qv, qvLayout},
			{"reversal84", rev, TrivialLayout(rev.N)},
		}
		fellBack := false
		for _, trials := range []int{1, 5, 20} {
			fellBack = fellBack || hitsSerialFallback(t, g, rev, trials)
			for _, tc := range cases {
				where := g.Name + "/" + tc.name
				want, err := StochasticSwap(g, tc.c, tc.layout, rand.New(rand.NewSource(99)), trials)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{2, 3, 8} {
					got, err := StochasticSwapParallel(g, tc.c, tc.layout, rand.New(rand.NewSource(99)), trials, workers)
					if err != nil {
						t.Fatal(err)
					}
					if got.SwapCount != want.SwapCount {
						t.Fatalf("%s trials=%d workers=%d: swap count %d != serial %d", where, trials, workers, got.SwapCount, want.SwapCount)
					}
					if !reflect.DeepEqual(got.FinalLayout, want.FinalLayout) {
						t.Fatalf("%s trials=%d workers=%d: final layout diverges", where, trials, workers)
					}
					if !reflect.DeepEqual(got.Circuit.Ops, want.Circuit.Ops) {
						t.Fatalf("%s trials=%d workers=%d: routed ops diverge", where, trials, workers)
					}
				}
			}
		}
		if !fellBack {
			t.Fatalf("%s: the reversal layer always routed whole; the test no longer covers the serial fallback", g.Name)
		}
	}
}

// hitsSerialFallback reports whether c's first layer defeats every trial
// under the trivial layout and the test's router seed, so that routing it
// goes through the single-gate fallback.
func hitsSerialFallback(t *testing.T, g *topology.Graph, c *circuit.Circuit, trials int) bool {
	t.Helper()
	flat, err := flattenCost(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := &router{
		g:       g,
		dist:    g.Distances(),
		cost:    flat,
		layout:  TrivialLayout(c.N),
		rng:     rand.New(rand.NewSource(99)),
		trials:  trials,
		workers: 1,
	}
	var pairs [][2]int
	for _, idx := range c.Layers()[0] {
		pairs = append(pairs, [2]int{c.Ops[idx].Qubits[0], c.Ops[idx].Qubits[1]})
	}
	return r.findSwaps(pairs) == nil
}
