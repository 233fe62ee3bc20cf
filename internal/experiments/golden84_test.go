package experiments

import (
	"os"
	"strings"
	"testing"
)

// The quick Fig. 12 and Fig. 14 grids are the 84-qubit cells the router's
// speed is measured on. Their goldens pin the routed counts exactly, so a
// router optimization that changes any SWAP, 2Q-gate or pulse-duration
// figure fails here rather than only in a benchmark's count metrics. The
// golden files are the FormatSeries output `qcbench -fig 12` and
// `qcbench -fig 14` print (without the title line) at the default seed and
// the quick mode's 5 router trials.

func TestFig12QuickMatchesGolden(t *testing.T) {
	checkSeriesGolden(t, Fig12Spec(true), "testdata/fig12_quick_pr13.golden")
}

func TestFig14QuickMatchesGolden(t *testing.T) {
	checkSeriesGolden(t, Fig14Spec(true), "testdata/fig14_quick_pr13.golden")
}

// checkSeriesGolden runs spec and compares its formatted series with the
// golden file line by line, reporting the first line that differs.
func checkSeriesGolden(t *testing.T, spec SweepSpec, path string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	series, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	got := FormatSeries(series, spec.Kind)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s diverged from %s at line %d:\n got: %q\nwant: %q", spec.ID, path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s output length diverged from %s: %d vs %d lines", spec.ID, path, len(gl), len(wl))
}
