package sim

import (
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gates"
)

// TestKernelAllocs is the allocation regression guard for the statevector
// kernels: applying gates to an existing state — generic 1Q/2Q matrix
// kernels, the diagonal/permutation/mix fast paths, and the fused
// serial-arm kernels — must not allocate at all. A regression here
// multiplies across the 2^n amplitude sweeps of every simulation-backed
// test and example.
func TestKernelAllocs(t *testing.T) {
	s, err := NewState(8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	su4 := gates.RandomSU4(rng)
	// Ops are built once: the guard measures the kernels, not the test's
	// own slice literals.
	diagOp := circuit.Op{Name: "rz", Qubits: []int{3}, Params: []float64{0.3}}
	permOp := circuit.Op{Name: "cx", Qubits: []int{0, 5}}
	mixOp := circuit.Op{Name: "siswap", Qubits: []int{2, 6}}
	cases := []struct {
		name string
		fn   func() error
	}{
		{"Apply1Q", func() error { return s.Apply1Q(2, gates.H()) }},
		{"Apply2Q", func() error { return s.Apply2Q(1, 4, su4) }},
		{"ApplyPauli", func() error { return s.ApplyPauli(3, 1) }},
		{"ApplyOp/diag", func() error { return s.ApplyOp(diagOp) }},
		{"ApplyOp/perm", func() error { return s.ApplyOp(permOp) }},
		{"ApplyOp/mix", func() error { return s.ApplyOp(mixOp) }},
		{"fusedMat1Q", func() error { s.fusedMat1Q(1, gates.H()); return nil }},
		{"fusedDiag1Q", func() error { s.fusedDiag1Q(4, 1, 1i); return nil }},
		{"fusedDiag2Q", func() error { s.fusedDiag2Q(0, 7, [4]complex128{1, 1i, -1i, -1}); return nil }},
	}
	for _, tc := range cases {
		tc := tc
		if err := tc.fn(); err != nil { // warm up and sanity-check
			t.Fatalf("%s: %v", tc.name, err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if err := tc.fn(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s allocates %.1f times per application; want 0", tc.name, allocs)
		}
	}
}

// TestLayerKernelAllocs guards the serial layer engine: executing a full
// fkLayer step — cross-tile 1Q tile-pair mixes, the quad and mixed fused
// pairs, riders of every tile-local kind, and the standalone global 2Q
// sweeps — must not allocate. The layer kernels run millions of times per
// sweep cell, so even one allocation per pass would dominate small-state
// throughput and thrash the GC on big ones.
func TestLayerKernelAllocs(t *testing.T) {
	n := layerTileExp + 2 // two cross-tile bits (qubits 0 and 1)
	s, err := NewState(n)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	su4 := gates.RandomSU4(rng)
	layer := &fusedOp{kind: fkLayer, members: []layerMember{
		{kind: lmMat1Q, qa: 0, u: gates.H()},             // cross-tile 2×2
		{kind: lmX, qa: 1},                               // cross-tile exchange
		{kind: lmMat1Q, qa: n - 1, u: gates.H()},         // tile-local pair half
		{kind: lmMat1Q, qa: n - 2, u: gates.H()},         // tile-local pair half
		{kind: lmDiag1Q, qa: 2, d: [4]complex128{1, 1i}}, // diagonal rider
		{kind: lmDiag2Q, qa: 0, qb: n - 3, d: [4]complex128{1, 1, 1, -1}},
		{kind: lmMat2Q, qa: n - 4, qb: n - 5, u: su4}, // tile-local 4×4
		{kind: lmCX, qa: n - 6, qb: n - 7},
		{kind: lmSwap, qa: n - 8, qb: n - 9},
		{kind: lmMix, qa: n - 10, qb: n - 11, d: [4]complex128{iswapDiag, iswapOff}},
		{kind: lmMat2Q, qa: 1, qb: n - 1, u: su4}, // cross-tile: standalone sweep
	}}
	if err := s.applyLayer(layer); err != nil { // warm up and sanity-check
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := s.applyLayer(layer); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("applyLayer allocates %.1f times per pass; want 0", allocs)
	}
}
