// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload per process on a fixed amount of work derived from --seconds,
// checks every output it times, and prints one JSON result object as its
// last line of standard output:
//
//	perfbench --workload sweep_84q --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the run
// also records spans around every call into a layer and reports the
// per-layer set instead, writing the spans to <outdir>/spans-*.json.
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// processStart is taken as early as the package initialises.
var processStart = time.Now()

// setupReps is how many times sweep_84q and noisy_14q set up; setup_s is
// the median.
const setupReps = 31

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the untraced run's metrics and their units; every
// workload reports all of them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cells_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"ok_ratio", "ratio"},
	{"peak_rss_mb", "MB"},
	{"swaps_total", "count"},
	{"twoq_total", "count"},
	{"pulse_duration_sum", "duration"},
}

// perLayer lists the traced run's metrics. A layer a workload does not
// reach reports 0 — the "predicted flat" rows of README.md.
var perLayer = []struct{ name, unit string }{
	{"route.busy_s", "s"}, {"route.share", "ratio"}, {"route.calls", "count"}, {"route.induced_swaps", "count"},
	{"layout.busy_s", "s"}, {"layout.share", "ratio"},
	{"translate.busy_s", "s"}, {"translate.share", "ratio"},
	{"workloads.busy_s", "s"},
	{"arch.busy_s", "s"},
	{"sweep.pool_idle_share", "ratio"}, {"sweep.cell_p50_ms", "ms"}, {"sweep.cell_max_ms", "ms"},
	{"noise.busy_s", "s"}, {"noise.share", "ratio"}, {"noise.trajectories", "count"}, {"noise.fidelity_mean", "ratio"},
	{"sim.schedule_busy_s", "s"}, {"sim.steps_per_circuit", "count"}, {"sim.layers_per_circuit", "count"},
	{"sim.fused_layer_share", "ratio"}, {"sim.state_qubits_max", "count"}, {"sim.computed_bytes", "B"},
	{"cache.mem_hits", "count"}, {"cache.disk_hits", "count"}, {"cache.misses", "count"},
	{"cache.fills", "count"}, {"cache.dedups", "count"}, {"cache.hit_ratio", "ratio"},
	{"daemon.hit_rtt_p50_ms", "ms"}, {"daemon.miss_rtt_p50_ms", "ms"}, {"daemon.server_s", "s"},
	{"daemon.transport_share", "ratio"}, {"daemon.share", "ratio"}, {"daemon.sheds", "count"},
	{"daemon.queue_depth_max", "count"},
	{"trace.overhead_ratio", "ratio"},
}

// run is the state one workload fills in.
type run struct {
	seed    int64
	seconds int
	tracer  *Tracer // nil in the untraced run
	outdir  string

	attempted int
	failed    int
	problems  []string // failed correctness checks, printed before the result
	values    map[string]float64
	notes     []string // diagnostics: sample counts, percentile ranks
}

// fail records one failed operation or check.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// set records a metric value.
func (r *run) set(name string, v float64) { r.values[name] = v }

// note records a diagnostic line.
func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// latency reports p50 and p95 of per-operation latencies (seconds) in ms,
// with their sample counts; a percentile the sample count cannot support
// fails the run rather than print a number resting on a handful of samples.
func (r *run) latency(lat []float64) {
	for _, p := range []struct {
		name string
		q    float64
	}{{"latency_p50_ms", 0.5}, {"latency_p95_ms", 0.95}} {
		v, beyond, err := Percentile(lat, p.q)
		if err != nil {
			r.fail("%s: %v", p.name, err)
			continue
		}
		r.set(p.name, v*1e3)
		r.note("%s over n=%d operations (%d beyond)", p.name, len(lat), beyond)
	}
}

// units scales a nominal per-run amount of work to --seconds: the work is
// fixed by the flag, never by a clock, so counts repeat for a given seed.
func (r *run) units(perSecond float64, floor int) int {
	return max(floor, int(math.Round(perSecond*float64(r.seconds))))
}

// unitSeed is the input seed of pass u. Every
// unit of a run draws fresh inputs, so a run averages over many input draws
// and its figures do not hinge on one draw's heavy cells. The traced run
// runs each input set twice, untraced then traced, so the tracing overhead
// and the traced decomposition compare the same work.
func (r *run) unitSeed(u int) int64 {
	if r.tracer != nil {
		u /= 2
	}
	return seedFor(r.seed, "unit", u)
}

// traced reports whether unit u runs under the tracer.
func (r *run) traced(u int) bool { return r.tracer != nil && u%2 == 1 }

// pairedOverhead is the median over input sets of traced ÷ untraced wall
// time (untraced[k] and traced[k] ran the same inputs), so the first pair,
// which also pays lazy initialisation, does not skew it.
func pairedOverhead(untraced, traced []float64) float64 {
	ratios := make([]float64, len(traced))
	for k := range traced {
		ratios[k] = traced[k] / untraced[k]
	}
	return Median(ratios)
}

var runners = map[string]func(*run) error{
	"sweep_84q":     runSweep,
	"noisy_14q":     runNoisy,
	"service_mixed": runService,
}

func main() {
	workload := flag.String("workload", "", "workload name: sweep_84q, noisy_14q or service_mixed")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "nominal run length; sets a fixed amount of work")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	outdir := flag.String("outdir", ".bench_build", "directory for span files and scratch state")
	flag.Parse()
	fn, ok := runners[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r := &run{seed: *seed, seconds: *seconds, outdir: *outdir, values: map[string]float64{}}
	if *trace == 1 {
		r.tracer = NewTracer()
	}
	fp := fingerprint()
	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	r.set("peak_rss_mb", peakRSSMB())
	if r.attempted > 0 {
		r.set("ok_ratio", float64(r.attempted-r.failed)/float64(r.attempted))
	}

	list := endToEnd
	if r.tracer != nil {
		list = perLayer
		spanFile := filepath.Join(*outdir, fmt.Sprintf("spans-%s-seed%d.json", *workload, *seed))
		if err := WriteSpans(spanFile, r.tracer.Spans()); err != nil {
			r.fail("%v", err)
		}
		r.note("span file %s (%d spans)", spanFile, len(r.tracer.Spans()))
	}
	metrics := make(map[string]metric, len(list))
	for _, m := range list {
		v, ok := r.values[m.name]
		if !ok && r.tracer == nil {
			r.fail("metric %s was not measured", m.name)
		}
		metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	attempted := max(r.attempted, 1)
	res := result{Correct: r.failed == 0 && r.attempted > 0, Attempted: attempted, Failed: min(r.failed, attempted), Metrics: metrics}

	fmt.Printf("# fingerprint %s\n", fp)
	for _, n := range r.notes {
		fmt.Printf("# %s\n", n)
	}
	for _, p := range r.problems {
		fmt.Printf("# FAILED %s\n", p)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# %-24s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// peakRSSMB is the process's ru_maxrss (KiB on Linux) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// fingerprint identifies the runner — CPU model, nproc, GOMAXPROCS, Go
// version — plus the rate of a fixed integer calibration loop, so host
// drift between two sets of runs can be told apart from a program change.
// The calibration rate is a diagnostic, not a metric.
func fingerprint() string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s calib_mops=%.1f",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), calibrate())
}

// calibrate times a fixed splitmix64 loop and returns millions of
// iterations per second (median of five repetitions).
func calibrate() float64 {
	const iters = 1 << 22
	rates := make([]float64, 5)
	for i := range rates {
		start := time.Now()
		x := uint64(i)
		for j := 0; j < iters; j++ {
			x += 0x9e3779b97f4a7c15
			z := x
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			calibSink ^= z ^ (z >> 31)
		}
		rates[i] = iters / time.Since(start).Seconds() / 1e6
	}
	return Median(rates)
}

// calibSink keeps the calibration loop's result observable.
var calibSink uint64
