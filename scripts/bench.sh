#!/usr/bin/env bash
# bench.sh — run the repository micro/figure benchmarks and write a
# machine-readable JSON snapshot so successive PRs can track the perf
# trajectory.
#
# Usage:
#   scripts/bench.sh                  # all benchmarks -> BENCH.json
#   BENCH_OUT=BENCH_PR1.json scripts/bench.sh
#   BENCH_FILTER='Statevector|KAK' BENCH_TIME=500ms scripts/bench.sh
#   BENCH_SKIP_CHECK=1 scripts/bench.sh   # skip the vet/race preflight
#
# Output schema:
#   { "goos": ..., "goarch": ..., "cpu": ..., "gomaxprocs": N, "cpus": N,
#     "registry_families": N,
#     "benchmarks": [ { "name": ..., "iterations": N, "ns_per_op": ...,
#                       "b_per_op": ..., "allocs_per_op": ...,
#                       "cache_hits_per_op": ..., "cache_misses_per_op": ...,
#                       "swaps_per_op": ...,
#                       "layout_share": ..., "route_share": ...,
#                       "translate_share": ...,
#                       "disk_retries_per_op": ..., "degraded": ...,
#                       "ordinals_scanned_per_trial": ...,
#                       "mc_steps_per_shot": ... }, ... ],
#     "scaling": [ { "gomaxprocs": N, "wall_ns": ... }, ... ] }
#
# cache_hits_per_op / cache_misses_per_op / swaps_per_op are emitted by the
# warm-cache and profile-guided benchmarks (b.ReportMetric) and stay null
# elsewhere. layout_share / route_share / translate_share are each pass's
# fraction of transpile-pipeline wall-clock (BenchmarkTranspilePassShares,
# fed by Transpiled.Timings), also null elsewhere.
# disk_retries_per_op / degraded come from the fault-injected disk-tier
# benchmark (BenchmarkCacheDiskFaultRetry): retries absorbed per op, and
# whether the error budget ever quarantined the disk tier (0/1).
# est_fidelity / noisy_eval_ns_per_op come from the noise-aware evaluation
# benchmark (BenchmarkNoisyEvaluate): the deterministic Monte-Carlo fidelity
# estimate (so snapshots catch silent model drift) and the per-evaluation
# wall-clock under a schema-stable name; null elsewhere.
# daemon_warm_eval_us / daemon_dedup_per_op come from the evaluation-service
# benchmark (BenchmarkDaemonWarmEvaluate): end-to-end warm /evaluate latency
# in microseconds (HTTP round trip + memory-tier hit, no routing) and the
# fraction of a 32-way cold batch served by dedup-or-hit joins (~0.97 means
# the batch cost one evaluation); null elsewhere.
# layers_per_circuit / batch_width_avg / fused_layer_share come from the
# fused arm of BenchmarkStatevectorFusion (sim.Program.Stats): fkLayer
# steps per compiled bench circuit, mean members per layer, and the
# fraction of kernel applications executed inside layers — the shape of
# the layer-batching scheduler, recorded so snapshots catch drift; null
# elsewhere.
# ordinals_scanned_per_trial comes from the router micro-benchmark
# (BenchmarkFindSwaps in internal/transpile, single far pair and whole
# QuantumVolume layer on Hypercube84): how many of the n(n−1)/2 = 3486 draw
# ordinals a routing trial classifies on average, i.e. the length of the
# lazily extended consumption prefix; null elsewhere.
# mc_steps_per_shot comes from the Monte-Carlo estimator micro-benchmark
# (BenchmarkMonteCarloEstimate in internal/noise, a routed 12-qubit QFT on
# a 14-qubit trimmed hypercube at 256 shots): schedule steps the
# trajectories' error windows simulate, averaged over all shots, so
# snapshots show when trajectories go back to full runs; null elsewhere.
#
# The scaling section records wall-clock of one quick `qcbench -fig 12`
# sweep at GOMAXPROCS 1/2/4 (the ROADMAP multi-core scaling demo); on a
# single-core runner the curve is flat — "cpus" says how to read it. Set
# BENCH_SKIP_SCALING=1 to skip it.
#
# "registry_families" records the size of the registry-built architecture
# grid (one line per family in `topostat -families`), so snapshots show
# when the declarative design space grows.
#
# The deltas section makes the perf trajectory machine-readable per PR: for
# every benchmark also present in the newest prior BENCH_*.json (by mtime,
# excluding the file being written), it records
#   { "name", "ns_ratio": prior_ns/new_ns, "allocs_ratio": prior/new }
# so ratios > 1 are improvements. "deltas_vs" names the baseline file
# (null, with an empty list, when this is the first snapshot).
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${BENCH_OUT:-BENCH.json}"
FILTER="${BENCH_FILTER:-.}"
TIME="${BENCH_TIME:-1s}"
RAW="$(mktemp)"
SCALING="$(mktemp)"
QCBENCH="$(mktemp)"
trap 'rm -f "$RAW" "$SCALING" "$QCBENCH"' EXIT
CPUS="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
export GOMAXPROCS_REPORT="${GOMAXPROCS:-$CPUS}"
export CPUS_REPORT="$CPUS"

if [[ "${BENCH_SKIP_CHECK:-0}" != "1" ]]; then
    scripts/check.sh
fi

echo "bench: sizing the registry-built architecture grid (topostat -families)"
FAMILIES="$(go run ./cmd/topostat -families | wc -l | tr -d '[:space:]')"
export FAMILIES_REPORT="$FAMILIES"
echo "  registry_families=$FAMILIES"

if [[ "${BENCH_SKIP_SCALING:-0}" != "1" ]]; then
    echo "bench: sweep scaling curve (quick -fig 12 at GOMAXPROCS 1/2/4; $CPUS core(s) available)"
    go build -o "$QCBENCH" ./cmd/qcbench
    for p in 1 2 4; do
        start="$(date +%s%N)"
        GOMAXPROCS=$p "$QCBENCH" -fig 12 >/dev/null
        end="$(date +%s%N)"
        echo "$p $((end - start))" >> "$SCALING"
        echo "  gomaxprocs=$p wall=$(( (end - start) / 1000000 ))ms"
    done
fi

go test -bench="$FILTER" -benchmem -benchtime="$TIME" -count=1 -run='^$' . ./internal/transpile ./internal/noise | tee "$RAW"

# Newest prior snapshot (for the deltas section); empty when none exists.
PRIOR="$(ls -t BENCH_*.json 2>/dev/null | grep -Fxv "$OUT" | head -1 || true)"

awk -v out="$OUT" -v scalingfile="$SCALING" -v prior="$PRIOR" '
function jsonnum(line, key,   s) {
    # Extract a numeric field from a machine-written benchmark line;
    # returns "" when absent or null.
    if (match(line, "\"" key "\": [0-9.eE+-]+") == 0) return ""
    s = substr(line, RSTART, RLENGTH)
    sub(/.*: /, "", s)
    return s
}
/^goos:/   { goos = $2 }
/^goarch:/ { goarch = $2 }
/^cpu:/    { sub(/^cpu: */, ""); cpu = $0 }
/^Benchmark/ {
    # Benchmark lines: Name[-P] iters ns/op [B/op] [allocs/op] [custom metrics]
    name = $1; iters = $2; ns = $3
    b = "null"; allocs = "null"; chits = "null"; cmisses = "null"; swaps = "null"
    lshare = "null"; rshare = "null"; tshare = "null"
    dretries = "null"; degraded = "null"
    estfid = "null"; noisyns = "null"
    layers = "null"; bwidth = "null"; lshareop = "null"
    dwarm = "null"; ddedup = "null"; ordinals = "null"; mcsteps = "null"
    for (i = 3; i <= NF; i++) {
        if ($(i) == "ns/op")           ns = $(i - 1)
        if ($(i) == "B/op")            b = $(i - 1)
        if ($(i) == "allocs/op")       allocs = $(i - 1)
        if ($(i) == "cache_hits/op")   chits = $(i - 1)
        if ($(i) == "cache_misses/op") cmisses = $(i - 1)
        if ($(i) == "swaps")           swaps = $(i - 1)
        if ($(i) == "layout_share")    lshare = $(i - 1)
        if ($(i) == "route_share")     rshare = $(i - 1)
        if ($(i) == "translate_share") tshare = $(i - 1)
        if ($(i) == "disk_retries/op") dretries = $(i - 1)
        if ($(i) == "degraded")        degraded = $(i - 1)
        if ($(i) == "est_fidelity")    estfid = $(i - 1)
        if ($(i) == "noisy_eval_ns/op") noisyns = $(i - 1)
        if ($(i) == "layers_per_circuit") layers = $(i - 1)
        if ($(i) == "batch_width_avg")    bwidth = $(i - 1)
        if ($(i) == "fused_layer_share")  lshareop = $(i - 1)
        if ($(i) == "daemon_warm_eval_us") dwarm = $(i - 1)
        if ($(i) == "daemon_dedup_per_op") ddedup = $(i - 1)
        if ($(i) == "ordinals_scanned/trial") ordinals = $(i - 1)
        if ($(i) == "steps_simulated/shot") mcsteps = $(i - 1)
    }
    n++
    lines[n] = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"b_per_op\": %s, \"allocs_per_op\": %s, \"cache_hits_per_op\": %s, \"cache_misses_per_op\": %s, \"swaps_per_op\": %s, \"layout_share\": %s, \"route_share\": %s, \"translate_share\": %s, \"disk_retries_per_op\": %s, \"degraded\": %s, \"est_fidelity\": %s, \"noisy_eval_ns_per_op\": %s, \"layers_per_circuit\": %s, \"batch_width_avg\": %s, \"fused_layer_share\": %s, \"daemon_warm_eval_us\": %s, \"daemon_dedup_per_op\": %s, \"ordinals_scanned_per_trial\": %s, \"mc_steps_per_shot\": %s}",
                       name, iters, ns, b, allocs, chits, cmisses, swaps, lshare, rshare, tshare, dretries, degraded, estfid, noisyns, layers, bwidth, lshareop, dwarm, ddedup, ordinals, mcsteps)
    names[n] = name; nsval[n] = ns; allocval[n] = allocs
}
END {
    printf "{\n  \"goos\": \"%s\",\n  \"goarch\": \"%s\",\n  \"cpu\": \"%s\",\n  \"gomaxprocs\": %s,\n  \"cpus\": %s,\n  \"registry_families\": %s,\n  \"benchmarks\": [\n", \
           goos, goarch, cpu, ENVIRON["GOMAXPROCS_REPORT"], ENVIRON["CPUS_REPORT"], ENVIRON["FAMILIES_REPORT"] > out
    for (i = 1; i <= n; i++) printf "%s%s\n", lines[i], (i < n ? "," : "") >> out
    print "  ]," >> out
    print "  \"scaling\": [" >> out
    m = 0
    while ((getline line < scalingfile) > 0) {
        split(line, f, " ")
        m++
        srows[m] = sprintf("    {\"gomaxprocs\": %s, \"wall_ns\": %s}", f[1], f[2])
    }
    for (i = 1; i <= m; i++) printf "%s%s\n", srows[i], (i < m ? "," : "") >> out
    print "  ]," >> out
    # Deltas against the newest prior snapshot: ratios prior/new, so > 1
    # is an improvement; benchmarks missing from either side are skipped.
    if (prior != "") {
        while ((getline line < prior) > 0) {
            if (match(line, /"name": "[^"]+"/) == 0) continue
            pname = substr(line, RSTART + 9, RLENGTH - 10)
            # Only benchmark rows carry ns_per_op; the prior file own
            # deltas rows must not clobber them.
            pv = jsonnum(line, "ns_per_op")
            if (pv == "") continue
            pns[pname] = pv
            pallocs[pname] = jsonnum(line, "allocs_per_op")
        }
        printf "  \"deltas_vs\": \"%s\",\n", prior >> out
    } else {
        print "  \"deltas_vs\": null," >> out
    }
    print "  \"deltas\": [" >> out
    dn = 0
    for (i = 1; i <= n; i++) {
        if (!(names[i] in pns) || pns[names[i]] == "" || nsval[i] + 0 == 0) continue
        nsr = pns[names[i]] / nsval[i]
        ar = "null"
        if (allocval[i] != "null" && pallocs[names[i]] != "" && allocval[i] + 0 > 0)
            ar = sprintf("%.4g", pallocs[names[i]] / allocval[i])
        dn++
        drows[dn] = sprintf("    {\"name\": \"%s\", \"ns_ratio\": %.4g, \"allocs_ratio\": %s}", names[i], nsr, ar)
    }
    for (i = 1; i <= dn; i++) printf "%s%s\n", drows[i], (i < dn ? "," : "") >> out
    print "  ]\n}" >> out
}
' "$RAW"

echo "wrote $OUT"
