package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the helper must sort
	}
	return xs
}

func TestPercentileRefusesThinTails(t *testing.T) {
	for _, tc := range []struct {
		q  float64
		n  int
		ok bool
	}{
		{0.5, 19, false}, // rank 10 leaves 9 beyond
		{0.5, 20, true},  // rank 10 leaves 10 beyond
		{0.95, 199, false},
		{0.95, 200, true},
		{0.99, 999, false},
		{0.99, 1000, true},
	} {
		_, beyond, err := Percentile(seq(tc.n), tc.q)
		if (err == nil) != tc.ok {
			t.Errorf("Percentile(n=%d, q=%v): err=%v (beyond %d), want ok=%v", tc.n, tc.q, err, beyond, tc.ok)
		}
		if tc.ok && beyond < minBeyond {
			t.Errorf("Percentile(n=%d, q=%v) accepted with %d beyond", tc.n, tc.q, beyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(1000) // values 1..1000
	for _, tc := range []struct{ q, want float64 }{{0.5, 500}, {0.95, 950}, {0.99, 990}} {
		got, _, err := Percentile(xs, tc.q)
		if err != nil || got != tc.want {
			t.Errorf("Percentile(1..1000, %v) = %v, %v; want %v", tc.q, got, err, tc.want)
		}
	}
	if xs[0] != 1000 {
		t.Error("Percentile sorted its input in place")
	}
	if _, _, err := Percentile(xs, 1); err == nil {
		t.Error("Percentile accepted q = 1")
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("Median odd = %v", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("Median even = %v", got)
	}
}
