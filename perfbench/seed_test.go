package main

import (
	"context"
	"reflect"
	"testing"
)

// The seed contract: the same seed gives the same inputs and so identical
// count metrics; another seed gives the service other cold keys.

func TestSweepSeedRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two sweep passes")
	}
	ctx := context.Background()
	sums := func(seed int64) [3]float64 {
		r := &run{seed: seed}
		series, _, _, failed, err := sweepPass(ctx, sweepSpecs(r.unitSeed(0)), nil, 0)
		if err != nil || failed != 0 {
			t.Fatalf("sweep pass: %v (%d failed cells)", err, failed)
		}
		s, q, p := sweepSums(series)
		return [3]float64{s, q, p}
	}
	a, b := sums(3), sums(3)
	if a != b {
		t.Errorf("seed 3 gave %v then %v", a, b)
	}
	if a[0] == 0 || a[1] == 0 || a[2] == 0 {
		t.Errorf("zero sums %v", a)
	}
}

func TestNoisySeedRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Monte-Carlo evaluations")
	}
	ctx := context.Background()
	fidelities := func(seed int64) []float64 {
		cells, err := noisySetup(&run{seed: seed, values: map[string]float64{}}, 1)
		if err != nil {
			t.Fatal(err)
		}
		var out []float64
		for _, c := range cells[0][:10] {
			met, err := c.m.EvaluateContext(ctx, c.c, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			if !(met.EstFidelity > 0 && met.EstFidelity <= 1) {
				t.Errorf("%s: fidelity %v outside (0, 1]", met.Machine, met.EstFidelity)
			}
			out = append(out, met.EstFidelity, float64(met.TotalSwaps), float64(met.Total2Q), met.PulseDuration)
		}
		return out
	}
	if a, b := fidelities(5), fidelities(5); !reflect.DeepEqual(a, b) {
		t.Errorf("seed 5 gave\n%v then\n%v", a, b)
	}
}

func TestServiceSeedContract(t *testing.T) {
	const n = 2000
	warmA, opsA := serviceInputs(1, n)
	warmB, opsB := serviceInputs(1, n)
	if !reflect.DeepEqual(warmA, warmB) || !reflect.DeepEqual(opsA, opsB) {
		t.Fatal("seed 1 gave two different request sequences")
	}
	_, opsC := serviceInputs(2, n)
	coldKeys := func(ops []serviceOp) map[any]bool {
		keys := map[any]bool{}
		for _, op := range ops {
			if op.cold {
				keys[op.req] = true
			}
		}
		return keys
	}
	a, c := coldKeys(opsA), coldKeys(opsC)
	if len(a) != n/serviceColdEvery {
		t.Errorf("%d distinct cold keys, want %d fresh ones", len(a), n/serviceColdEvery)
	}
	for k := range c {
		if a[k] {
			t.Errorf("seeds 1 and 2 share cold key %+v", k)
		}
	}
	pairs := 0
	for _, op := range opsA {
		if op.pair {
			pairs++
		}
	}
	if want := n / serviceColdEvery / servicePairEvery; pairs != want {
		t.Errorf("%d paired requests, want %d", pairs, want)
	}
}
