package main

import (
	"bufio"
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/experiments"
	"repro/internal/workloads"
)

// serviceRequestsPerSecond sizes service_mixed (12,000 requests at 30 s);
// the closed-loop client completes 1,100-2,000 requests per second on a
// 2-CPU runner, so the timed phase takes 6-11 s.
const serviceRequestsPerSecond = 400

const (
	serviceBlock      = 600 // requests per throughput block: 60 cold misses, two cycles of the 30 pairs, so every block has the same mix
	serviceColdEvery  = 10  // every 10th request is a cold miss
	servicePairEvery  = 4   // every 4th cold miss is also sent on the second connection
	serviceCheckEvery = 7   // every 7th cold miss is re-evaluated locally (7 is coprime to the 30 pairs)
	serviceMemEntries = 96  // memory LRU bound, below the 240-key warm set
	serviceTrials     = 5
	serviceColdWidth  = 16
	serviceRestarts   = 25 // set-ups after the cold start; setup_s is their median
)

// serviceMachines are the 16-20-qubit machines requests name, as the
// declarative specs a qcbench -server caller sends.
var serviceMachines = []string{
	"heavyhex:fragment=20",
	"grid:rows=4,cols=4,basis=syc",
	"tree:levels=2,basis=sqrtiswap",
	"corral:posts=8,strides=1+1,basis=sqrtiswap",
	"hypercube:dim=4,basis=sqrtiswap",
}

var serviceWarmWidths = []int{8, 12}

const serviceWarmSeeds = 4

// seedFor derives an input seed from the run seed and a label.
func seedFor(seed int64, label string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, label, i)
	return int64(h.Sum64() >> 1)
}

// serviceOp is one request of the fixed sequence.
type serviceOp struct {
	req  daemon.EvaluateRequest
	cold bool
	pair bool // also sent concurrently on the second connection
	warm int  // index into the warm set (warm requests)
}

// serviceInputs builds the warm key set and the request sequence for seed.
func serviceInputs(seed int64, n int) (warm []daemon.EvaluateRequest, ops []serviceOp) {
	for _, m := range serviceMachines {
		for _, w := range workloads.Names() {
			for _, size := range serviceWarmWidths {
				for k := 0; k < serviceWarmSeeds; k++ {
					warm = append(warm, daemon.EvaluateRequest{Machine: m, Workload: w, Size: size,
						Seed: seedFor(seed, "warm", k), Trials: serviceTrials})
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(seedFor(seed, "sequence", 0)))
	names := workloads.Names()
	cold := 0
	for i := 0; i < n; i++ {
		if i%serviceColdEvery != serviceColdEvery-1 {
			k := rng.Intn(len(warm))
			ops = append(ops, serviceOp{req: warm[k], warm: k})
			continue
		}
		// Cold misses cycle through every (machine, workload) pair, so each
		// block and each run has the same mix of routing problems; only the
		// fresh seed differs.
		combo := cold % (len(serviceMachines) * len(names))
		ops = append(ops, serviceOp{cold: true, pair: cold%servicePairEvery == 0, req: daemon.EvaluateRequest{
			Machine:  serviceMachines[combo%len(serviceMachines)],
			Workload: names[combo/len(serviceMachines)],
			Size:     serviceColdWidth,
			Seed:     seedFor(seed, "cold", cold),
			Trials:   serviceTrials,
		}})
		cold++
	}
	return warm, ops
}

// service is one running daemon with its two client connections.
type service struct {
	base   string
	cancel context.CancelFunc
	done   chan error
	conns  [2]*daemon.Client
	http   *http.Client
}

// emptyDir creates dir if needed and removes everything in it.
func emptyDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

// startService starts a daemon on loopback with its disk tier in dir.
func startService(dir string) (*service, error) {
	srv, err := daemon.New(daemon.Config{
		CacheEntries: serviceMemEntries,
		CacheDir:     dir,
		Parallelism:  runtime.NumCPU(),
		Logf:         func(string, ...any) {},
	})
	if err != nil {
		return nil, err
	}
	addr, err := srv.Listen()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &service{base: "http://" + addr, cancel: cancel, done: make(chan error, 1)}
	go func() { s.done <- srv.Serve(ctx) }()
	for i := range s.conns {
		// One keep-alive connection per client, no retries: a shed or
		// failed request counts as a failure.
		hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
		s.conns[i] = &daemon.Client{BaseURL: s.base, HTTPClient: hc, Retries: -1}
	}
	s.http = &http.Client{Transport: &http.Transport{}}
	return s, nil
}

// stop drains the daemon and waits for Serve to return.
func (s *service) stop() error {
	s.cancel()
	err := <-s.done
	for _, c := range s.conns {
		c.HTTPClient.Transport.(*http.Transport).CloseIdleConnections()
	}
	s.http.Transport.(*http.Transport).CloseIdleConnections()
	return err
}

// scrape reads GET /metrics into a map keyed by series (name plus labels).
func (s *service) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

func runService(r *run) error {
	ctx := context.Background()
	n := r.units(serviceRequestsPerSecond, 4*serviceBlock)
	n -= n % serviceBlock
	var svc *service
	var warm []daemon.EvaluateRequest
	var ops []serviceOp
	// The first set-up is a cold start: the prefill computes the warm set
	// and writes it to the disk tier. The restarts after it bring the
	// daemon up again over that disk tier, so their prefill reads it back.
	// setup_s is the median restart: its cost does not swing with what
	// creating files costs where the filesystem happens to place them.
	dir := filepath.Join(r.outdir, "service-cache")
	if err := emptyDir(dir); err != nil {
		return err
	}
	var coldStart float64
	var setups []float64
	for rep := 0; rep <= serviceRestarts; rep++ {
		if svc != nil {
			if err := svc.stop(); err != nil {
				return err
			}
		}
		runtime.GC() // every set-up starts from a collected heap
		start := time.Now()
		warm, ops = serviceInputs(r.seed, n)
		var err error
		if svc, err = startService(dir); err != nil {
			return err
		}
		for _, req := range warm {
			if _, err := svc.conns[0].Evaluate(ctx, req); err != nil {
				svc.stop()
				return fmt.Errorf("prefill: %w", err)
			}
		}
		if rep == 0 {
			coldStart = time.Since(start).Seconds()
		} else {
			setups = append(setups, time.Since(start).Seconds())
		}
	}
	defer func() {
		svc.stop()
		emptyDir(dir)
	}()
	r.set("setup_s", Median(setups))
	r.note("setup_s median of %d restarts over the disk tier of a %d-key prefill (%s; cold start %.3fs)", len(setups), len(warm), spreadNote(setups, "s"), coldStart)

	before, err := svc.scrape(ctx)
	if err != nil {
		return err
	}
	got := make([]core.Metrics, len(ops))
	lat := make([]float64, 0, n+n/serviceColdEvery/servicePairEvery+1)
	var warmLat, coldLat, rates, tracedRates []float64
	queueMax := 0.0
	for b := 0; b < n/serviceBlock; b++ {
		traced := r.traced(b)
		start, attempted := time.Now(), r.attempted
		for i := b * serviceBlock; i < (b+1)*serviceBlock; i++ {
			op := ops[i]
			var wg sync.WaitGroup
			var twin core.Metrics // the pair's second response
			var twinLat float64
			var twinErr error
			if op.pair {
				wg.Add(1)
				go func() {
					defer wg.Done()
					t0 := time.Now()
					twin, twinErr = svc.conns[1].Evaluate(ctx, op.req)
					twinLat = time.Since(t0).Seconds()
				}()
			}
			var id int64
			if traced {
				id = r.tracer.Begin("request", 0, int64(i+1))
			}
			t0 := time.Now()
			met, err := svc.conns[0].Evaluate(ctx, op.req)
			l := time.Since(t0).Seconds()
			r.tracer.End(id)
			wg.Wait()
			r.attempted++
			lat = append(lat, l)
			if op.cold {
				coldLat = append(coldLat, l)
			} else {
				warmLat = append(warmLat, l)
			}
			if err != nil {
				r.fail("request %d: %v", i, err)
			}
			got[i] = met
			if op.pair {
				r.attempted++
				lat = append(lat, twinLat)
				if twinErr != nil {
					r.fail("request %d (second connection): %v", i, twinErr)
				} else if twin != met {
					r.fail("request %d: the two connections got different metrics", i)
				}
			}
			if traced && i%25 == 0 {
				m, err := svc.scrape(ctx)
				if err != nil {
					return err
				}
				queueMax = max(queueMax, m["qcbenchd_queue_depth"])
			}
		}
		rate := float64(r.attempted-attempted) / time.Since(start).Seconds()
		if traced {
			tracedRates = append(tracedRates, rate)
		} else {
			rates = append(rates, rate)
		}
	}
	after, err := svc.scrape(ctx)
	if err != nil {
		return err
	}
	r.set("cells_per_s", Median(rates))
	r.note("cells_per_s = median of %d block rates (%d-request blocks plus their paired twins, one closed-loop client; %s)", len(rates), serviceBlock, spreadNote(rates, "/s"))
	r.latency(lat)

	// Correctness: the warm set in full, a fixed sample of the cold misses.
	// The traced run evaluates both under spans, in op ranges of their own.
	warmOp, coldOp := int64(len(ops)+1), int64(2*len(ops)+1)
	var warmCounts, coldCounts stageCounts
	var swaps, twoq, pulse float64
	refs := make([]core.Metrics, len(warm))
	for k, req := range warm {
		met, err := checkRequest(ctx, r.tracer, warmOp+int64(k), req, &warmCounts)
		if err != nil {
			return fmt.Errorf("reference %v: %w", req, err)
		}
		refs[k] = met
		swaps += float64(met.TotalSwaps)
		twoq += float64(met.Total2Q)
		pulse += met.PulseDuration
	}
	cold, sampled := 0, 0
	for i, op := range ops {
		if !op.cold {
			if got[i] != refs[op.warm] {
				r.fail("request %d: response differs from a local evaluation", i)
			}
			continue
		}
		cold++
		if (cold-1)%serviceCheckEvery != 0 {
			continue
		}
		want, err := checkRequest(ctx, r.tracer, coldOp+int64(sampled), op.req, &coldCounts)
		sampled++
		if err != nil {
			return fmt.Errorf("reference %v: %w", op.req, err)
		}
		if got[i] != want {
			r.fail("request %d: cold response differs from a local evaluation", i)
		}
		swaps += float64(want.TotalSwaps)
		twoq += float64(want.Total2Q)
		pulse += want.PulseDuration
	}
	r.set("swaps_total", swaps)
	r.set("twoq_total", twoq)
	r.set("pulse_duration_sum", pulse)
	if r.tracer == nil {
		return nil
	}
	r.set("trace.overhead_ratio", Median(rates)/Median(tracedRates))
	d := func(k string) float64 { return after[k] - before[k] }
	for _, c := range []struct{ metric, series string }{
		{"cache.mem_hits", "qcbenchd_cache_mem_hits_total"},
		{"cache.disk_hits", "qcbenchd_cache_disk_hits_total"},
		{"cache.misses", "qcbenchd_cache_misses_total"},
		{"cache.fills", "qcbenchd_cache_fills_total"},
		{"cache.dedups", "qcbenchd_cache_dedups_total"},
		{"daemon.sheds", "qcbenchd_sheds_total"},
	} {
		r.set(c.metric, d(c.series))
	}
	if lookups := d("qcbenchd_cache_mem_hits_total") + d("qcbenchd_cache_disk_hits_total") + d("qcbenchd_cache_misses_total"); lookups > 0 {
		r.set("cache.hit_ratio", (d("qcbenchd_cache_mem_hits_total")+d("qcbenchd_cache_disk_hits_total"))/lookups)
	}
	serverS := d(`qcbenchd_request_seconds_sum{endpoint="evaluate"}`)
	clientS := 0.0
	for _, l := range lat {
		clientS += l
	}
	r.set("daemon.server_s", serverS)
	r.set("daemon.transport_share", 1-serverS/clientS)
	r.set("daemon.queue_depth_max", queueMax)
	for _, p := range []struct {
		name string
		xs   []float64
	}{{"daemon.hit_rtt_p50_ms", warmLat}, {"daemon.miss_rtt_p50_ms", coldLat}} {
		if v, _, err := Percentile(p.xs, 0.5); err == nil {
			r.set(p.name, v*1e3)
		}
	}

	// The layers' time inside the daemon during the timed phase, estimated
	// from the local evaluations above: the daemon builds the machine
	// (arch) and circuit (workloads) of every request, since the cache key
	// needs them, and runs the pipeline once per fill. What these layers do
	// not account for is the daemon and cache path itself.
	spans := r.tracer.Spans()
	warmBusy := BusyByName(spansInOps(spans, warmOp, coldOp))
	coldBusy := BusyByName(spansInOps(spans, coldOp, coldOp+int64(sampled)))
	coldRequests := float64(len(coldLat) + (len(lat) - len(warmLat) - len(coldLat))) // cold misses plus their twins
	busy := map[string]float64{}
	for _, s := range []string{"arch", "workloads"} {
		busy[s] = warmBusy[s]/float64(len(warm))*float64(len(warmLat)) + coldBusy[s]/float64(sampled)*coldRequests
	}
	for _, s := range []string{"layout", "route", "translate"} {
		busy[s] = coldBusy[s] / float64(sampled) * d("qcbenchd_cache_fills_total")
	}
	layers := 0.0
	for _, b := range busy {
		layers += b
	}
	r.setLayerShares(busy, clientS, &coldCounts)
	r.set("daemon.share", 1-layers/clientS)
	r.note("service stage busy times and daemon.share are estimates: local checks' span times scaled per request (arch, workloads) and per fill (layout, route, translate)")
	return nil
}

// spansInOps keeps the spans whose op lies in [lo, hi).
func spansInOps(spans []Span, lo, hi int64) []Span {
	var out []Span
	for _, s := range spans {
		if s.Op >= lo && s.Op < hi {
			out = append(out, s)
		}
	}
	return out
}

// checkRequest evaluates req locally exactly as the daemon builds it. With
// a tracer it does so in spans — the machine from its spec (arch), the
// circuit (workloads), then the pipeline pass by pass.
func checkRequest(ctx context.Context, t *Tracer, op int64, req daemon.EvaluateRequest, sc *stageCounts) (core.Metrics, error) {
	id := t.Begin("request.check", 0, op)
	defer t.End(id)
	a := t.Begin("arch", id, op)
	m, err := core.FromSpec(req.Machine)
	t.End(a)
	if err != nil {
		return core.Metrics{}, err
	}
	w := t.Begin("workloads", id, op)
	c, err := experiments.BenchmarkCircuit(req.Workload, req.Size, req.Seed)
	t.End(w)
	if err != nil {
		return core.Metrics{}, err
	}
	opt := core.Options{Seed: req.Seed, Trials: req.Trials, Router: core.RouterStochastic, Parallelism: 1}
	if t == nil {
		return m.EvaluateContext(ctx, c, opt)
	}
	met, _, err := decompose(ctx, t, id, op, m, c, opt, sc)
	return met, err
}
