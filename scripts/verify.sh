#!/usr/bin/env bash
# Repo verification gate: the tier-1 build/test gate, a type-check of the
# benchmark (perfbench/) against its lockfile, the robustness suites
# (fault injection + checkpoint round-trip properties), the serving gate
# (the shipped serve binary driven by loadgen), the ANN gate and the chaos
# gate.
#
#   ./scripts/verify.sh
#
# Exits non-zero on the first failure. Prints per-gate wall-clock timings
# and finishes with the one-line cmr-lint summary, one-line obs/serve/
# chaos/ann snapshots (the serve line is loadgen's summary) and a `loc:`
# line (source lines per crate plus the lint's allow count). Archives the
# lint artifacts (results/LINT_report.json, results/LOCKGRAPH.json,
# results/TAINTGRAPH.json; results/CALLGRAPH.json is written too but not
# tracked: at ~540 KB it churned on every change), the obs artifacts
# (results/OBS_train.json, results/OBS_retrieval.json), the chaos
# artifacts (results/BENCH_chaos.json, results/OBS_chaos.json) and the ANN
# artifacts (results/BENCH_ann.json archived at 1M, plus the
# results/ann_gate/ smoke sweep).

set -euo pipefail
cd "$(dirname "$0")/.."

GATE_TIMINGS=()
gate() {
    local title="$1"
    shift
    echo "== $title =="
    local start end dur
    start=$(date +%s.%N)
    "$@"
    end=$(date +%s.%N)
    dur=$(awk -v a="$start" -v b="$end" 'BEGIN { printf "%.2f", b - a }')
    GATE_TIMINGS+=("$(printf '%8ss  %s' "$dur" "$title")")
}

gate "tier 1: release build" cargo build --release

# Benchmark build gate: perfbench/ is its own Cargo workspace that depends
# on crates/* by path and on the public API they export (e.g.
# cmr_nn::load_embedding_blob, cmr_retrieval::load_index). Type-check it
# against its committed lockfile so a public-API break or lockfile drift
# fails here rather than in the benchmark run.
gate "benchmark: perfbench type-checks against its lockfile" \
    env CARGO_TARGET_DIR=.bench_build \
    cargo check --offline --locked --manifest-path perfbench/Cargo.toml

mkdir -p results
# cmr-lint's last stdout line is its summary (files scanned, findings,
# allows, panic-surface, lock-edge/cycle counts); the run closes with it.
LINT_SUMMARY=""
check_lint() {
    local out
    out=$(cargo run -p cmr-lint --release -q -- \
        --workspace --json results/LINT_report.json --graph results/CALLGRAPH.json) || {
        echo "$out"
        return 1
    }
    echo "$out"
    LINT_SUMMARY=$(tail -1 <<<"$out")
}
gate "static analysis: cmr-lint" check_lint

# Concurrency gate: --graph above also emitted results/LOCKGRAPH.json (the
# workspace lock inventory and acquired-while-held edge list). The artifact
# must carry the expected schema and — the deadlock invariant — zero cycles.
check_lockgraph() {
    local key
    if [[ ! -f results/LOCKGRAPH.json ]]; then
        echo "lockgraph: missing artifact results/LOCKGRAPH.json"
        return 1
    fi
    if ! grep -q '"schema_version": 1' results/LOCKGRAPH.json; then
        echo "lockgraph: wrong or missing schema_version in results/LOCKGRAPH.json"
        return 1
    fi
    for key in '"locks"' '"condvars"' '"edges"' '"cycles"' '"max_held_depth"' \
               '"crates"' '"inventory"' '"order_edges"'; do
        if ! grep -q "$key" results/LOCKGRAPH.json; then
            echo "lockgraph: $key missing from results/LOCKGRAPH.json"
            return 1
        fi
    done
    if ! grep -q '"cycles": 0' results/LOCKGRAPH.json; then
        echo "lockgraph: lock-order cycle detected — potential deadlock; see results/LOCKGRAPH.json order_edges"
        return 1
    fi
}
gate "static analysis: lock-order graph" check_lockgraph

# Taint gate: --graph above also emitted results/TAINTGRAPH.json (untrusted
# network/disk bytes traced to allocation and index sinks). The artifact must
# carry the expected schema and — the hardening invariant — zero flows that
# reach a sink without a dominating sanitizer.
check_taintgraph() {
    local key
    if [[ ! -f results/TAINTGRAPH.json ]]; then
        echo "taintgraph: missing artifact results/TAINTGRAPH.json"
        return 1
    fi
    if ! grep -q '"schema_version": 1' results/TAINTGRAPH.json; then
        echo "taintgraph: wrong or missing schema_version in results/TAINTGRAPH.json"
        return 1
    fi
    for key in '"sources"' '"sinks"' '"sanitizers"' '"flows"' \
               '"unsanitized_flows"' '"crates"' '"inventory"' '"flow_edges"'; do
        if ! grep -q "$key" results/TAINTGRAPH.json; then
            echo "taintgraph: $key missing from results/TAINTGRAPH.json"
            return 1
        fi
    done
    if ! grep -q '"unsanitized_flows": 0' results/TAINTGRAPH.json; then
        echo "taintgraph: unsanitized taint flow — untrusted bytes reach an allocation or index sink; see results/TAINTGRAPH.json flow_edges"
        return 1
    fi
}
gate "static analysis: taint graph" check_taintgraph

# Budget gate: the lint pass must stay fast enough to run on every commit.
# LINT_report.json records its own wall-clock in elapsed_ms.
check_lint_budget() {
    local ms
    ms=$(grep -o '"elapsed_ms": [0-9]*' results/LINT_report.json | grep -o '[0-9]*$' || true)
    if [[ -z "$ms" ]]; then
        echo "lint budget: elapsed_ms missing from results/LINT_report.json"
        return 1
    fi
    if (( ms > 30000 )); then
        echo "lint budget: cmr-lint took ${ms}ms (> 30000ms budget)"
        return 1
    fi
    echo "lint budget: ${ms}ms (budget 30000ms)"
}
gate "static analysis: lint budget" check_lint_budget

gate "tier 1: workspace tests" cargo test -q --workspace

gate "robustness: fault-injection suite" cargo test --test fault_injection -q

gate "robustness: checkpoint round-trip properties" cargo test --test checkpoint_roundtrip -q

# Tiny instrumented train + retrieve run; writes results/OBS_train.json and
# results/OBS_retrieval.json.
gate "observability: instrumented tiny train+retrieve" \
    env CMR_OBS=1 cargo run --release -q -p cmr-bench --bin exp_obs -- --scale tiny --out results

# Schema-drift check: the archived artifacts must carry the expected schema
# version and the load-bearing metric names (per-epoch β′ for both losses,
# checkpoint latency, per-query latency, IVF probe/agreement counters).
check_obs_schema() {
    local f key
    for f in results/OBS_train.json results/OBS_retrieval.json; do
        if [[ ! -f "$f" ]]; then
            echo "obs schema: missing artifact $f"
            return 1
        fi
        if ! grep -q '"schema_version": 3' "$f"; then
            echo "obs schema: wrong or missing schema_version in $f"
            return 1
        fi
    done
    for key in '"train.epoch"' '"active_frac_ins"' '"active_frac_sem"' '"phase"' \
               '"train.checkpoint_save_s"' '"train.batches"'; do
        if ! grep -q "$key" results/OBS_train.json; then
            echo "obs schema: $key missing from results/OBS_train.json"
            return 1
        fi
    done
    for key in '"retrieval.query_latency_s"' '"retrieval.ivf.queries"' \
               '"retrieval.ivf.cells_probed"' '"retrieval.ivf.candidates_scanned"' \
               '"retrieval.ivf.checked"' '"retrieval.ivf.agree_top1"' '"p50"' '"p99"' \
               '"p999"'; do
        if ! grep -q "$key" results/OBS_retrieval.json; then
            echo "obs schema: $key missing from results/OBS_retrieval.json"
            return 1
        fi
    done
}
gate "observability: artifact schema" check_obs_schema

# Serving gate: boot the shipped serve binary and drive it with loadgen,
# 16 keep-alive clients x 60 requests. loadgen exits non-zero on any failed
# request; its summary line closes the run as the `serve:` snapshot.
SERVE_SUMMARY=""
check_serve() {
    rm -f results/serve.addr
    # Build before backgrounding: `cargo run -p cmr-bench` resolves
    # features per-package, so the first run after a workspace-wide build
    # can recompile the bin — that must not eat the addr-wait budget.
    cargo build --release -q -p cmr-bench --bin serve --bin loadgen
    cargo run --release -q -p cmr-bench --bin serve -- \
        --addr 127.0.0.1:0 --addr-file results/serve.addr \
        --gallery 500 --dim 32 --duration-s 20 &
    local serve_pid=$!
    local tries=0
    while [[ ! -s results/serve.addr ]]; do
        if ! kill -0 "$serve_pid" 2>/dev/null; then
            echo "serve: server exited before publishing its address"
            return 1
        fi
        tries=$((tries + 1))
        if [[ $tries -gt 100 ]]; then
            echo "serve: timed out waiting for results/serve.addr"
            kill "$serve_pid" 2>/dev/null || true
            return 1
        fi
        sleep 0.1
    done
    local addr out rc=0
    addr=$(cat results/serve.addr)
    out=$(cargo run --release -q -p cmr-bench --bin loadgen -- \
        --addr "$addr" --clients 16 --requests 60 --dim 32) || rc=$?
    echo "$out"
    kill "$serve_pid" 2>/dev/null || true
    wait "$serve_pid" 2>/dev/null || true
    if [[ $rc -ne 0 ]]; then
        echo "serve: loadgen failed against $addr"
        return 1
    fi
    SERVE_SUMMARY=${out#loadgen: }
}
gate "serving: serve binary + loadgen" check_serve

# ANN gate: build + save a quantized index at the 100k scale, prove that a
# single flipped byte makes the load fail with a typed error (never a
# panic, never a silently-wrong index), then smoke the recall/latency
# benchmark and hold its operating point to the recall@10 floor. The
# smoke sweep lands in results/ann_gate/ (results/BENCH_ann.json keeps
# the archived 1M curve; regenerate it with a plain `bench_ann` run).
check_ann() {
    local index=results/ann_gate/ann_index.ivf
    mkdir -p results/ann_gate
    rm -f "$index"
    cargo run --release -q -p cmr-bench --bin bench_ann -- \
        --rows 100000 --dim 32 --queries 300 --nlist 256 --m 16 --ks 256 \
        --probes 1,4,16 --out results/ann_gate --index-out "$index"
    if [[ ! -s "$index" ]]; then
        echo "ann: bench_ann did not write $index"
        return 1
    fi
    # Flip one payload byte mid-file; the streamed CRC check must refuse it.
    cp "$index" "$index.corrupt"
    local size off
    size=$(wc -c < "$index.corrupt")
    off=$((size / 2))
    printf '\xff' | dd of="$index.corrupt" bs=1 seek="$off" count=1 conv=notrunc status=none
    if ! cargo run --release -q -p cmr-bench --bin bench_ann -- \
        --expect-corrupt "$index.corrupt"; then
        echo "ann: corrupt index was not rejected with a typed error"
        rm -f "$index.corrupt"
        return 1
    fi
    rm -f "$index.corrupt"
}
gate "ann: quantized index + corrupt-load + recall benchmark" check_ann

check_ann_schema() {
    local key
    if [[ ! -f results/ann_gate/BENCH_ann.json ]]; then
        echo "ann schema: missing artifact results/ann_gate/BENCH_ann.json"
        return 1
    fi
    if ! grep -q '"schema_version": 1' results/ann_gate/BENCH_ann.json; then
        echo "ann schema: wrong or missing schema_version in results/ann_gate/BENCH_ann.json"
        return 1
    fi
    for key in '"bytes_flat_residuals"' '"bytes_quantized"' '"compression_x"' \
               '"curves"' '"flat"' '"pq"' '"nprobe"' '"recall_at_1"' \
               '"recall_at_10"' '"p50_s"' '"p99_s"' '"operating_point"'; do
        if ! grep -q "$key" results/ann_gate/BENCH_ann.json; then
            echo "ann schema: $key missing from results/ann_gate/BENCH_ann.json"
            return 1
        fi
    done
    # The archived operating point must clear the recall@10 floor, and the
    # quantized index must actually compress (>= 4x vs flat f32 residuals).
    awk '
        /"operating_point"/ { op = 1 }
        op && /"recall_at_10"/ {
            r = $2 + 0
            if (r < 0.95) { printf "ann schema: operating-point recall@10 %.4f below the 0.95 floor\n", r; exit 1 }
            exit 0
        }
    ' results/ann_gate/BENCH_ann.json || return 1
    awk '
        /"compression_x"/ {
            c = $2 + 0
            if (c < 4.0) { printf "ann schema: compression %.2fx below the 4x floor\n", c; exit 1 }
            exit 0
        }
    ' results/ann_gate/BENCH_ann.json || return 1
}
gate "ann: benchmark artifact schema + recall floor" check_ann_schema

# Chaos gate: boot the sharded fleet behind seeded fault proxies and drive
# real-socket clients through every fault mix (healthy / delay / flaky /
# wedged shard / killed shard). bench_chaos exits non-zero if any request
# failed — degraded (reduced coverage) is allowed, a 5xx or a hang is not.
# Writes results/BENCH_chaos.json and results/OBS_chaos.json.
check_chaos() {
    cargo run --release -q -p cmr-bench --bin bench_chaos -- \
        --shards 3 --clients 3 --requests 25 --seed 42 --out results
}
gate "chaos: sharded fleet under fault injection" check_chaos

check_chaos_schema() {
    local key
    if [[ ! -f results/BENCH_chaos.json ]]; then
        echo "chaos schema: missing artifact results/BENCH_chaos.json"
        return 1
    fi
    if ! grep -q '"schema_version": 1' results/BENCH_chaos.json; then
        echo "chaos schema: wrong or missing schema_version in results/BENCH_chaos.json"
        return 1
    fi
    for key in '"availability"' '"degraded"' '"failed"' '"latency_s"' '"p50"' \
               '"p99"' '"p999"' '"healthy"' '"flaky"' '"wedge_one"' '"kill_one"' \
               '"deadline_ms"' '"retries"'; do
        if ! grep -q "$key" results/BENCH_chaos.json; then
            echo "chaos schema: $key missing from results/BENCH_chaos.json"
            return 1
        fi
    done
    if grep -q '"failed": [^0]' results/BENCH_chaos.json; then
        echo "chaos schema: a fault mix recorded failed requests"
        return 1
    fi
}
gate "chaos: benchmark artifact schema" check_chaos_schema

echo "== gate timings =="
for t in "${GATE_TIMINGS[@]}"; do
    echo "$t"
done

# The lint gate's summary line, so the run ends with the health snapshot.
echo "$LINT_SUMMARY"

# One-line obs health snapshot from the freshly written retrieval artifact.
p50=$(grep -m1 '"p50"' results/OBS_retrieval.json | sed 's/.*: *//; s/,.*//')
p99=$(grep -m1 '"p99"' results/OBS_retrieval.json | sed 's/.*: *//; s/,.*//')
echo "obs: retrieval query latency p50 ${p50}s p99 ${p99}s (results/OBS_train.json, results/OBS_retrieval.json)"

# One-line serving snapshot: loadgen's summary from the serving gate.
echo "serve: ${SERVE_SUMMARY}"

# One-line availability summary over every chaos mix: min availability and
# the total degraded/failed counts across mixes.
chaos_avail=$(grep '"availability"' results/BENCH_chaos.json | sed 's/.*: *//; s/,.*//' | sort -g | head -1)
chaos_degraded=$(grep '"degraded"' results/BENCH_chaos.json | sed 's/.*: *//; s/,.*//' | awk '{s+=$1} END {print s}')
chaos_failed=$(grep '"failed"' results/BENCH_chaos.json | sed 's/.*: *//; s/,.*//' | awk '{s+=$1} END {print s}')
echo "chaos: min availability ${chaos_avail} across mixes, ${chaos_degraded} degraded / ${chaos_failed} failed (results/BENCH_chaos.json)"

# One-line ANN snapshot from the freshly written benchmark artifact.
ann_recall=$(awk '/"operating_point"/ { op = 1 } op && /"recall_at_10"/ { print $2 + 0; exit }' results/ann_gate/BENCH_ann.json)
ann_nprobe=$(awk '/"operating_point"/ { op = 1 } op && /"nprobe"/ { print $2 + 0; exit }' results/ann_gate/BENCH_ann.json)
ann_comp=$(grep -m1 '"compression_x"' results/ann_gate/BENCH_ann.json | sed 's/.*: *//; s/,.*//')
echo "ann: recall@10 ${ann_recall} at nprobe ${ann_nprobe}, quantized ${ann_comp}x smaller (results/ann_gate/BENCH_ann.json)"

# One-line code-size snapshot: source lines per crate (crates/*/src) and the
# lint's allow inventory, so size moves show up per commit. Informational.
loc=""
for src in crates/*/src; do
    krate=${src#crates/}
    loc+=" ${krate%/src}=$(find "$src" -name '*.rs' -exec cat {} + | wc -l)"
done
echo "loc:${loc} $(grep -o 'allows=[0-9]*' <<<"$LINT_SUMMARY")"

echo "verify: all gates green"
