#!/usr/bin/env bash
# Run the scheduler/CME microbenchmarks and emit BENCH_sched.json at the
# repo root so successive PRs can track the performance trajectory.
#
# Usage:
#   bench/run_bench.sh [--filter REGEX] [--jobs N] [--sweep|--no-sweep]
#                      [--fuzz|--no-fuzz] [--metrics] [--serve]
#                      [extra google-benchmark flags]
#
# --filter REGEX limits the run to matching benchmarks (and merges only
# their numbers into BENCH_sched.json), e.g.
#
#   bench/run_bench.sh --filter 'BM_Schedule(Exact|Verify)'
#
# runs and gates the exact-backend benches in isolation.
#
# --jobs N sets the worker count forwarded to the suite-sweep binary
# (default: nproc); the job count and both wall-clock numbers (jobs=1
# and jobs=N) are recorded under "parallel_sweep" in BENCH_sched.json.
# The sweep runs by default on a full benchmark pass and is skipped on
# --filter runs (pass --sweep to force, --no-sweep to suppress).
#
# Environment:
#   BUILD_DIR       build tree (default: <repo>/build)
#   BENCH_FILTER    --benchmark_filter regex (default: all benchmarks;
#                   --filter wins when both are given)
#   BENCH_MIN_TIME  --benchmark_min_time seconds (default: 2)
#   SWEEP_BUDGET    exact-search node budget for the sweep timing
#                   (default: the library default)
#   FUZZ_SCENARIOS  differential fuzz-sweep scenario count (default 200)
#   FUZZ_SEED       differential fuzz-sweep base seed (default: the
#                   library's fixed seed)
#   SAT_LOOPS       engine-comparison corpus size (default 200): the
#                   generated loops the bnb/sat certifying
#                   engines are compared on; the per-engine
#                   certified/unknown counts and wall clocks land
#                   under "sat" in BENCH_sched.json
#
# --metrics runs the jobs=N suite sweep with the obs registry enabled
# (sweep_bench --metrics=FILE) and distils the report into a "metrics"
# section of BENCH_sched.json: search-health rates (nodes per search,
# prunes, backjumps), locality-cache hit rates (RatioMemo,
# StreamCache) and pool utilisation. Off by default — the
# instrumented run is a second sweep pass — and merged like every
# other section: keys a run does not remeasure survive from the
# previous record.
#
# --serve runs the scheduling-service load generator (bench/serve_bench
# with --check --gate: every reply byte-compared against the offline
# pipeline, warm/cold throughput gated at 5x) and records a "service"
# section: schedules/sec cold and warm, the speedup, the cache hit
# rate, request-latency p50/p99 and the reply fingerprint. Off by
# default, preserved across re-runs like every other section.
#
# Like the suite sweep, the differential fuzz sweep (bench/fuzz_sweep:
# generated scenarios through schedule validation, exact-II
# cross-check, kernel expansion, lockstep simulation and CME-vs-oracle
# agreement) runs on full benchmark passes and is skipped on --filter
# runs; its scenario count, wall clock and output fingerprint land
# under "fuzz_sweep" in BENCH_sched.json. A failing scenario fails the
# whole benchmark run.
#
# The output is standard google-benchmark JSON plus four extra
# top-level keys: "seed_baseline", carrying the pre-optimisation
# reference numbers of the benchmarks the build is gated on;
# "parallel_sweep" with the sharded-driver wall-clock record; "cme",
# the locality-layer section — the latest BM_StreamMaterialise /
# BM_CmeMissRatio_* / BM_Oracle* times plus speedups against the
# recorded "pre_overhaul" reference (the PR-3 numbers, preserved
# across re-runs); and "exact", the exact-engine section — the
# BM_ScheduleExact / BM_ScheduleVerify times and node throughput,
# speedups against the recorded pre-overhaul reference (the PR-5-era
# numbers, seeded automatically from the record the first time the
# section is built and preserved afterwards), and the fuzz sweep's
# certified rate. Quick single-layer refreshes:
#
#   bench/run_bench.sh --filter 'BM_Cme|BM_Oracle|BM_Stream'
#   bench/run_bench.sh --filter 'BM_Schedule(Exact|Verify)'
#
# Existing values of all four keys are preserved across re-runs that
# do not remeasure them.

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-$ROOT/build}"
OUT="$ROOT/BENCH_sched.json"

JOBS="$(nproc 2>/dev/null || echo 1)"
SWEEP=auto
FUZZ=auto
METRICS=no
SERVE=no
ARGS=()
while [ $# -gt 0 ]; do
    case "$1" in
      --filter)
        [ $# -ge 2 ] || { echo "--filter needs a regex" >&2; exit 2; }
        BENCH_FILTER="$2"
        shift 2
        ;;
      --filter=*)
        BENCH_FILTER="${1#--filter=}"
        shift
        ;;
      --jobs)
        [ $# -ge 2 ] || { echo "--jobs needs a count" >&2; exit 2; }
        JOBS="$2"
        shift 2
        ;;
      --jobs=*)
        JOBS="${1#--jobs=}"
        shift
        ;;
      --sweep)
        SWEEP=yes
        shift
        ;;
      --no-sweep)
        SWEEP=no
        shift
        ;;
      --fuzz)
        FUZZ=yes
        shift
        ;;
      --no-fuzz)
        FUZZ=no
        shift
        ;;
      --metrics)
        METRICS=yes
        shift
        ;;
      --serve)
        SERVE=yes
        shift
        ;;
      *)
        ARGS+=("$1")
        shift
        ;;
    esac
done
set -- ${ARGS+"${ARGS[@]}"}

# A filtered run is a targeted micro probe: skip the multi-second suite
# and fuzz sweeps unless explicitly requested.
if [ "$SWEEP" = auto ]; then
    if [ -n "${BENCH_FILTER:-}" ]; then SWEEP=no; else SWEEP=yes; fi
fi
if [ "$FUZZ" = auto ]; then
    if [ -n "${BENCH_FILTER:-}" ]; then FUZZ=no; else FUZZ=yes; fi
fi

if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
    cmake -B "$BUILD_DIR" -S "$ROOT" -DMVP_BENCH=ON
fi
# Always rebuild so the numbers describe the checked-out tree, never a
# stale binary.
TARGETS=(micro_sched sweep_bench fuzz_sweep table_gap)
[ "$SERVE" = yes ] && TARGETS+=(serve_bench)
cmake --build "$BUILD_DIR" -j --target "${TARGETS[@]}"

TMP="$(mktemp)"
SWEEP_TMP="$(mktemp)"
FUZZ_TMP="$(mktemp)"
METRICS_TMP="$(mktemp)"
SERVE_TMP="$(mktemp)"
SAT_TMP="$(mktemp)"
trap 'rm -f "$TMP" "$SWEEP_TMP" "$FUZZ_TMP" "$METRICS_TMP" "$SERVE_TMP" "$SAT_TMP"' EXIT
: > "$METRICS_TMP"

"$BUILD_DIR/micro_sched" \
    --benchmark_filter="${BENCH_FILTER:-.*}" \
    --benchmark_min_time="${BENCH_MIN_TIME:-2}" \
    --benchmark_out="$TMP" \
    --benchmark_out_format=json \
    "$@"

# Suite-sweep wall clock: jobs=1 vs jobs=N through the same sharded
# driver (the acceptance number for the parallel pipeline).
if [ "$SWEEP" = yes ]; then
    SWEEP_ARGS=(--exact)
    [ -n "${SWEEP_BUDGET:-}" ] && SWEEP_ARGS+=(--budget "$SWEEP_BUDGET")
    echo "suite sweep at jobs=1 and jobs=$JOBS ..."
    M1=()
    [ "$JOBS" = 1 ] && [ "$METRICS" = yes ] && M1=("--metrics=$METRICS_TMP")
    "$BUILD_DIR/sweep_bench" --jobs 1 "${SWEEP_ARGS[@]}" \
        ${M1[@]+"${M1[@]}"} | tee -a "$SWEEP_TMP"
    if [ "$JOBS" != 1 ]; then
        # The jobs=N pass doubles as the instrumented run on --metrics
        # (the registry costs one predictable branch when disabled, so
        # the timing stays comparable either way).
        [ "$METRICS" = yes ] && SWEEP_ARGS+=("--metrics=$METRICS_TMP")
        "$BUILD_DIR/sweep_bench" --jobs "$JOBS" "${SWEEP_ARGS[@]}" \
            | tee -a "$SWEEP_TMP"
    fi
fi

# Differential fuzz sweep: generated scenarios through the full
# validation pipeline; any scenario failure fails the benchmark run
# (fuzz_sweep's exit status is its failure count).
if [ "$FUZZ" = yes ]; then
    echo "differential fuzz sweep (${FUZZ_SCENARIOS:-200} scenarios, jobs=$JOBS) ..."
    FUZZ_ARGS=(--scenarios "${FUZZ_SCENARIOS:-200}" --jobs "$JOBS")
    [ -n "${FUZZ_SEED:-}" ] && FUZZ_ARGS+=(--seed "$FUZZ_SEED")
    "$BUILD_DIR/fuzz_sweep" "${FUZZ_ARGS[@]}" | tee "$FUZZ_TMP"
fi

# Certifying-engine comparison: the branch and bound and the CDCL
# engine over a generated corpus at the fuzz
# sweep's fixed seed — certified/unknown counts, charged work and wall
# clock per engine. Runs on full passes like the fuzz sweep; the
# engine= lines land under "sat" in BENCH_sched.json.
if [ "$FUZZ" = yes ]; then
    echo "certifying-engine comparison over ${SAT_LOOPS:-200} generated loops (jobs=$JOBS) ..."
    "$BUILD_DIR/table_gap" --jobs "$JOBS" --engines bnb,sat \
        --workloads "gen:seed=0xd1ff+loops=${SAT_LOOPS:-200}" \
        | tee "$SAT_TMP"
fi

# The scheduling service: checked + gated load-generator run; the
# printed summary line lands in the "service" section.
if [ "$SERVE" = yes ]; then
    echo "service load run (jobs=$JOBS, checked against the offline pipeline) ..."
    "$BUILD_DIR/serve_bench" --jobs "$JOBS" --clients 4 --rounds 3 \
        --check --gate --sessions 1,2,4,8 | tee "$SERVE_TMP"
fi

python3 - "$TMP" "$OUT" "$SWEEP_TMP" "$JOBS" "$FUZZ_TMP" "$METRICS_TMP" \
    "$SERVE_TMP" "$SAT_TMP" <<'EOF'
import json
import sys

(fresh_path, out_path, sweep_path, jobs, fuzz_path,
 metrics_path, serve_path, sat_path) = sys.argv[1:9]
# A filter that matches no benchmark leaves the output file empty
# (google-benchmark writes nothing); treat it as "measured nothing" so
# sweep-only refreshes still merge.
try:
    with open(fresh_path) as f:
        fresh = json.load(f)
except ValueError:
    fresh = {}

# Merge into the existing record: a filtered run updates only the
# benchmarks it measured, and the recorded pre-optimisation baseline
# survives every re-run.
try:
    with open(out_path) as f:
        prev = json.load(f)
except (OSError, ValueError):
    prev = {}

if "seed_baseline" in prev:
    fresh["seed_baseline"] = prev["seed_baseline"]
# Keys this run did not produce (e.g. the google-benchmark "context"
# on a measure-nothing run) survive from the previous record.
for key, value in prev.items():
    fresh.setdefault(key, value)
measured = {b["name"] for b in fresh.get("benchmarks", [])}
kept = [b for b in prev.get("benchmarks", [])
        if b.get("name") not in measured]
fresh["benchmarks"] = kept + fresh.get("benchmarks", [])

# Parse the sweep_bench lines into {"jobs": N, "<sweep>": {...}}.
sweep = prev.get("parallel_sweep", {})
try:
    with open(sweep_path) as f:
        lines = [l.split() for l in f if l.startswith("sweep=")]
except OSError:
    lines = []
for fields in lines:
    kv = dict(field.split("=", 1) for field in fields)
    name = kv["sweep"]
    entry = sweep.setdefault(name, {})
    entry["items"] = int(kv["items"])
    entry["fingerprint"] = kv["fingerprint"]
    entry["wall_ms_jobs%s" % kv["jobs"]] = float(kv["wall_ms"])
if lines:
    sweep["jobs"] = int(jobs)
    for entry in sweep.values():
        if not isinstance(entry, dict):
            continue
        one = entry.get("wall_ms_jobs1")
        n = entry.get("wall_ms_jobs%s" % jobs)
        if one and n:
            entry["speedup_jobs%s" % jobs] = round(one / n, 2)
if sweep:
    fresh["parallel_sweep"] = sweep

# The locality-layer section: record the CME/oracle microbenchmark
# times that gate the locality stack, and their speedup against the
# recorded pre-overhaul reference (preserved across re-runs like
# seed_baseline).
CME_BENCHES = [
    "BM_StreamMaterialise",
    "BM_CmeMissRatio_Fresh",
    "BM_CmeMissRatio_Memoised",
    "BM_OracleExact",
    "BM_OracleIncremental",
]
cme = prev.get("cme", {})
times = {b["name"]: b["real_time"] for b in fresh.get("benchmarks", [])
         if b.get("name") in CME_BENCHES}
if times:
    for name, ns in times.items():
        cme[name + "_ns"] = round(ns, 1)
    baseline = cme.get("pre_overhaul", {})
    for name, ns in times.items():
        ref = baseline.get(name + "_ns")
        if ref and ns:
            cme["speedup_" + name] = round(ref / ns, 2)
if cme:
    fresh["cme"] = cme

# The differential fuzz sweep: scenario count, pass/fail split, wall
# clock and the report fingerprint (preserved across runs that skip
# the sweep).
fuzz = prev.get("fuzz_sweep", {})
try:
    with open(fuzz_path) as f:
        fuzz_lines = [l.split() for l in f if l.startswith("fuzz ")]
except OSError:
    fuzz_lines = []
for fields in fuzz_lines:
    kv = dict(field.split("=", 1) for field in fields[1:])
    fuzz = {
        "jobs": int(kv["jobs"]),
        "scenarios": int(kv["scenarios"]),
        "passed": int(kv["passed"]),
        "failed": int(kv["failed"]),
        "exact_settled": int(kv["exact_settled"]),
        "rmca_optimal": int(kv["rmca_optimal"]),
        "wall_ms": float(kv["wall_ms"]),
        "fingerprint": kv["fingerprint"],
    }
if fuzz:
    fresh["fuzz_sweep"] = fuzz

# The certifying-engine comparison: per engine (bnb, sat),
# certified/unknown counts, charged work and wall clock, summed over
# the two clustered machines of the comparison run.
sat_section = prev.get("sat", {})
try:
    with open(sat_path) as f:
        engine_lines = [l.split() for l in f if l.startswith("engine=")]
except OSError:
    engine_lines = []
if engine_lines:
    engines = {}
    for fields in engine_lines:
        kv = dict(field.split("=", 1) for field in fields)
        e = engines.setdefault(kv["engine"], {
            "loops": 0, "certified": 0, "unknown": 0,
            "total_gap": 0, "work": 0, "wall_ms": 0.0,
        })
        e["loops"] += int(kv["loops"])
        e["certified"] += int(kv["certified"])
        e["unknown"] += int(kv["unknown"])
        e["total_gap"] += int(kv["gap"])
        e["work"] += int(kv["nodes"])
        e["wall_ms"] = round(e["wall_ms"] + float(kv["wall_ms"]), 1)
    sat_section = {"jobs": int(jobs), "engines": engines}
    for name, e in engines.items():
        if e["loops"]:
            e["certified_rate"] = round(e["certified"] / e["loops"], 4)
if sat_section:
    fresh["sat"] = sat_section

# The scheduling-service section: serve_bench's summary line —
# sustained schedules/sec cold vs warm, the gated speedup, canonical
# and raw-lane hit rates, warm-only request-latency percentiles, the
# per-round/per-phase latency split, the --sessions scaling sweep and
# the reply fingerprint (preserved across runs that skip --serve).
service = prev.get("service", {})
try:
    with open(serve_path) as f:
        raw_serve = [l.split() for l in f if l.startswith("serve")]
except OSError:
    raw_serve = []
serve_lines = [l[1:] for l in raw_serve if l and l[0] == "serve"]
phase_lines = [l[1:] for l in raw_serve if l and l[0] == "serve_phase"]
scale_lines = [l[1:] for l in raw_serve if l and l[0] == "serve_scale"]
for fields in serve_lines:
    kv = dict(field.split("=", 1) for field in fields)
    service = {
        "jobs": int(kv["jobs"]),
        "clients": int(kv["clients"]),
        "requests": int(kv["requests"]),
        "rounds": int(kv["rounds"]),
        "cold_schedules_per_s": float(kv["cold_sps"]),
        "warm_schedules_per_s": float(kv["warm_sps"]),
        "warm_speedup": float(kv["speedup"]),
        "cache_hit_rate": float(kv["hit_rate"]),
        "raw_lane_hit_rate": float(kv["raw_hit_rate"]),
        "latency_p50_us": float(kv["p50_us"]),
        "latency_p99_us": float(kv["p99_us"]),
        "warm_latency_p50_us": float(kv["warm_p50_us"]),
        "warm_latency_p99_us": float(kv["warm_p99_us"]),
        "fingerprint": kv["fingerprint"],
    }
if serve_lines:
    phases = {}
    for fields in phase_lines:
        kv = dict(field.split("=", 1) for field in fields)
        phases["%s_%s" % (kv["round"], kv["phase"])] = {
            "p50_us": float(kv["p50_us"]),
            "p99_us": float(kv["p99_us"]),
            "mean_us": float(kv["mean_us"]),
        }
    if phases:
        service["phases"] = phases
    scaling = {}
    for fields in scale_lines:
        kv = dict(field.split("=", 1) for field in fields)
        scaling["sessions_%s" % kv["sessions"]] = {
            "warm_schedules_per_s": float(kv["warm_sps"]),
            "p99_us": float(kv["p99_us"]),
        }
    if scaling:
        service["scaling"] = scaling
if service:
    fresh["service"] = service

# The exact-engine section: the BM_ScheduleExact / BM_ScheduleVerify
# times and node throughput that gate the exact-search overhaul, their
# speedup against the recorded pre-overhaul reference, and the fuzz
# sweep's certified rate (scenarios the engine settled / scenarios).
# The reference is seeded from the benchmark record the first time
# this section is built — i.e. from the last pre-overhaul run — and
# preserved across re-runs like seed_baseline.
EXACT_BENCHES = [
    "BM_ScheduleExact/2",
    "BM_ScheduleExact/4",
    "BM_ScheduleVerify/2",
    "BM_ScheduleVerify/4",
]

def exact_key(name):
    return name.replace("/", "_")

exact = prev.get("exact", {})
exact_times = {b["name"]: b for b in fresh.get("benchmarks", [])
               if b.get("name") in EXACT_BENCHES
               and b.get("name") in measured}
if exact_times:
    baseline = exact.setdefault("pre_overhaul", {})
    if not baseline:
        for b in prev.get("benchmarks", []):
            if b.get("name") in EXACT_BENCHES:
                baseline[exact_key(b["name"]) + "_ns"] = round(
                    b["real_time"], 1)
    for name, b in exact_times.items():
        k = exact_key(name)
        exact[k + "_ns"] = round(b["real_time"], 1)
        if "nodes/s" in b:
            exact[k + "_nodes_per_s"] = round(b["nodes/s"])
        ref = baseline.get(k + "_ns")
        if ref and b["real_time"]:
            exact["speedup_" + k] = round(ref / b["real_time"], 2)
if fuzz and fuzz.get("scenarios"):
    exact["certified_rate"] = round(
        fuzz["exact_settled"] / fuzz["scenarios"], 4)
if exact:
    fresh["exact"] = exact

# The observability section (--metrics runs only): distil the
# obs::Registry report of the instrumented sweep into the health rates
# worth tracking across PRs — search effort and prune/backjump
# behaviour, locality-cache hit rates, pool utilisation. Preserved
# across re-runs that skip the instrumented sweep, like every other
# section.
try:
    with open(metrics_path) as f:
        report = json.load(f)
except (OSError, ValueError):
    report = {}
if report:
    det = report.get("deterministic", {}).get("counters", {})
    rt = report.get("runtime", {})
    rtc = rt.get("counters", {})
    rtg = rt.get("gauges", {})
    metrics = prev.get("metrics", {})
    # The dominance memo is retired; scrub its stat from old records.
    metrics.pop("exact_memo_hit_rate", None)

    def rate(num, den):
        return round(num / den, 4) if den else None

    searches = det.get("exact.searches", 0)
    metrics.update({
        "exact_searches": searches,
        "exact_nodes": det.get("exact.nodes", 0),
        "exact_nodes_per_search": rate(det.get("exact.nodes", 0),
                                       searches),
        "exact_prune_fu": det.get("exact.prune_fu", 0),
        "exact_prune_pressure": det.get("exact.prune_pressure", 0),
        "exact_backjumps": det.get("exact.backjumps", 0),
        "ratio_memo_hit_rate": rate(
            rtg.get("cme.ratio_lookups", 0)
            - rtg.get("cme.ratio_queries_solved", 0),
            rtg.get("cme.ratio_lookups", 0)),
        "stream_cache_hit_rate": rate(
            rtg.get("cme.stream_requests", 0)
            - rtg.get("cme.streams_built", 0),
            rtg.get("cme.stream_requests", 0)),
        "oracle_incremental_rate": rate(
            rtg.get("oracle.incremental_extensions", 0),
            rtg.get("oracle.incremental_extensions", 0)
            + rtg.get("oracle.full_simulations", 0)),
        "pool_workers": rtg.get("pool.workers", 0),
        "pool_items": det.get("pool.items", 0),
        "pool_busy_ms": rtc.get("pool.busy_ms", 0),
    })
    metrics = {k: v for k, v in metrics.items() if v is not None}
    fresh["metrics"] = metrics

with open(out_path, "w") as f:
    json.dump(fresh, f, indent=2)
    f.write("\n")
EOF

echo "wrote $OUT"
