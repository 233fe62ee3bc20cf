package transpile

import (
	"math/rand"
	"testing"
)

// eagerPerturb is the historical perturbation loop: copy the base matrix
// and scale every unordered pair by 1 + 0.1|gauss| drawn in row-major i<j
// order from rand.New(&splitmix64{state: seed}). It is the reference the
// lazy consumption-pass scheme must reproduce bit for bit.
func eagerPerturb(base []float64, n int, seed uint64) []float64 {
	d := make([]float64, n*n)
	copy(d, base)
	trng := rand.New(&splitmix64{state: seed})
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s := 1 + 0.1*absf(trng.NormFloat64())
			d[i*n+j] *= s
			d[j*n+i] = d[i*n+j]
		}
	}
	return d
}

// TestLazyPerturbMatchesEager materializes every off-diagonal entry of the
// lazy perturbed matrix across enough seeds and sizes to hit ziggurat
// slow-path draws, and requires bit-identity with the eager loop. The read
// orders cover how the consumption pass can be extended: rows back to
// front in both orientations, increasing ordinal (one draw per extension),
// interleaved front and back (the second read classifies the whole
// stream), and a seeded random order. Every few reads the scratch is re-prepped for
// another seed, read once, and re-prepped back, so each trial's pass also
// restarts from nothing midway.
func TestLazyPerturbMatchesEager(t *testing.T) {
	for _, n := range []int{2, 5, 17, 84} {
		base := make([]float64, n*n)
		brng := rand.New(rand.NewSource(int64(n)))
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := float64(brng.Intn(7) + 1)
				base[i*n+j], base[j*n+i] = v, v
			}
		}
		for seed := uint64(0); seed < 50; seed++ {
			want := eagerPerturb(base, n, seed)
			other := eagerPerturb(base, n, seed+1000)
			for name, order := range readOrders(n, int64(seed)) {
				sc := &routerScratch{
					d:     make([]float64, n*n),
					stamp: make([]uint32, n*n),
				}
				sc.prep(seed)
				for r, e := range order {
					if r%97 == 96 {
						x, y := order[len(order)-1-r][0], order[len(order)-1-r][1]
						sc.prep(seed + 1000)
						if got := sc.at(base, n, x, y); got != other[x*n+y] {
							t.Fatalf("n=%d seed=%d order=%s interposed entry (%d,%d): lazy %v != eager %v",
								n, seed+1000, name, x, y, got, other[x*n+y])
						}
						sc.prep(seed)
					}
					x, y := e[0], e[1]
					if got := sc.at(base, n, x, y); got != want[x*n+y] {
						t.Fatalf("n=%d seed=%d order=%s read %d entry (%d,%d): lazy %v != eager %v",
							n, seed, name, r, x, y, got, want[x*n+y])
					}
				}
			}
		}
	}
}

// readOrders returns named orders over every off-diagonal entry of an n×n
// matrix; the random order is seeded by seed.
func readOrders(n int, seed int64) map[string][][2]int {
	var increasing [][2]int // row-major i<j: the draw order itself
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			increasing = append(increasing, [2]int{i, j})
		}
	}
	var reverse [][2]int // back to front, both orientations per row
	for x := n - 1; x >= 0; x-- {
		for y := 0; y < n; y++ {
			if x != y {
				reverse = append(reverse, [2]int{x, y})
			}
		}
	}
	var interleaved [][2]int // front, back, front, ... with flipped orientation
	for a, b := 0, len(increasing)-1; a <= b; a, b = a+1, b-1 {
		interleaved = append(interleaved, increasing[a])
		if a != b {
			e := increasing[b]
			interleaved = append(interleaved, [2]int{e[1], e[0]})
		}
	}
	random := append([][2]int(nil), reverse...)
	rand.New(rand.NewSource(seed)).Shuffle(len(random), func(i, j int) {
		random[i], random[j] = random[j], random[i]
	})
	return map[string][][2]int{
		"increasing":  increasing,
		"reverse":     reverse,
		"interleaved": interleaved,
		"random":      random,
	}
}

// TestLazyPerturbClassifiesOnlyReadPrefix guards the laziness itself: a
// trial that reads only pair (0, 1) on an 84-vertex machine must classify a
// short prefix of the stream, not all n(n−1)/2 draws. A regression to a
// full consumption pass in prep fails here, not only in a benchmark.
func TestLazyPerturbClassifiesOnlyReadPrefix(t *testing.T) {
	const n = 84
	const nPairs = n * (n - 1) / 2
	base := make([]float64, n*n)
	for i := range base {
		base[i] = 1
	}
	sc := &routerScratch{d: make([]float64, n*n), stamp: make([]uint32, n*n)}
	for seed := uint64(0); seed < 20; seed++ {
		sc.prep(seed)
		if sc.classified != 0 {
			t.Fatalf("seed %d: prep classified %d draws before any read", seed, sc.classified)
		}
		want := eagerPerturb(base, n, seed)
		if got := sc.at(base, n, 1, 0); got != want[1*n+0] {
			t.Fatalf("seed %d: lazy %v != eager %v", seed, got, want[1*n+0])
		}
		if sc.classified > nPairs/100 {
			t.Fatalf("seed %d: reading pair (0, 1) classified %d of %d draws; the prefix is not lazy",
				seed, sc.classified, nPairs)
		}
	}
}

// TestLazyPerturbGenerationIsolation re-preps a scratch with a new seed and
// checks no stale entry from the previous trial leaks through the stamps.
func TestLazyPerturbGenerationIsolation(t *testing.T) {
	const n = 9
	base := make([]float64, n*n)
	for i := range base {
		base[i] = 2
	}
	sc := &routerScratch{d: make([]float64, n*n), stamp: make([]uint32, n*n)}
	sc.prep(11)
	first := sc.at(base, n, 3, 7)
	sc.prep(12)
	want := eagerPerturb(base, n, 12)
	got := sc.at(base, n, 3, 7)
	if got != want[3*n+7] {
		t.Fatalf("after re-prep: lazy %v != eager %v (stale? first trial had %v)", got, want[3*n+7], first)
	}
}
