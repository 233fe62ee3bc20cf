package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the fewest samples that must lie strictly beyond a reported
// percentile. A percentile resting on fewer samples is one or two unlucky
// operations, not a property of the program, so the helper refuses it.
const minBeyond = 10

// Percentile returns the nearest-rank q-quantile (0 < q < 1) of xs together
// with the number of samples lying beyond it. It refuses — returns an error —
// when fewer than minBeyond samples lie beyond the rank, so a p99 needs at
// least 1000 samples and a median at least 20. xs is not modified.
func Percentile(xs []float64, q float64) (value float64, beyond int, err error) {
	if q <= 0 || q >= 1 {
		return 0, 0, fmt.Errorf("percentile %v outside (0, 1)", q)
	}
	n := len(xs)
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	beyond = n - rank
	if beyond < minBeyond {
		return 0, beyond, fmt.Errorf("p%g over %d samples leaves %d beyond it, need %d", q*100, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], beyond, nil
}

// Median is the middle value of xs (mean of the two middle values for an
// even count); it needs at least one sample and is for within-run
// repetitions (set-up repeats, timed passes), not for latency percentiles.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// Mean is the arithmetic mean of xs (NaN when empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// spreadNote renders the range of a run's unit measurements for the
// diagnostics, so a host that slowed down mid-run shows in the output.
func spreadNote(xs []float64, unit string) string {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return fmt.Sprintf("units min %.4g%s, median %.4g%s, max %.4g%s", s[0], unit, Median(s), unit, s[len(s)-1], unit)
}
