#!/usr/bin/env bash
# Perf-smoke gate for CI and local use.
#
# Re-runs the full figure sweep single-threaded and enforces:
#   1. Output parity: every deterministic experiment (all_figures,
#      fig2-fig6, the eight ablations and fig_temporal) is regenerated,
#      and results/*.json must match the committed figures exactly,
#      except the environment-dependent `wall_clock_seconds` and
#      `workers` fields. Each binary's stdout (its report: status lines
#      go to stderr) is written to results/<name>.txt, so the committed
#      tables are covered by the same diff. The all_figures run is
#      traced, so the committed Chrome trace golden
#      (results/all_figures.trace.json) is covered too — tracing must
#      stay byte-deterministic.
#   2. Wall clock: all_figures must not take more than 2x the committed
#      BENCH_SWEEP.json baseline.
#   3. Throughput: neither all_figures nor the full fig_temporal sweep
#      may drop more than 20% below the events/sec of its committed
#      BENCH_SWEEP.json entry. These are the event-core regression
#      gates: wall clock tolerates machine variance at 2x, events/sec
#      pins the simulator's speed itself. all_figures runs for under
#      0.1 s, so host noise can dominate its gate; the checked
#      fig_temporal sweep runs ~1.1M events in under a second. Both
#      entries are committed from --check runs like the ones below.
#   4. Invariants: the sweeps run under `--check`, which streams every
#      run's event trace through the online oracle (monitor::CheckSink)
#      and exits non-zero on any protocol violation. The oracle only
#      observes, so parity in (1) is unaffected.
#   5. Scale: a reduced `fig_scale --smoke --check` pass, so the
#      million-transaction configuration stays runnable and invariant-
#      clean on every push without full-sweep cost.
#   5b. Live backend: a reduced `fig_live --smoke --check` pass runs all
#      four protocols on real worker threads and replays each run's
#      event stream through the oracle under CheckConfig::live. Smoke
#      mode writes no artifacts, so the parity diff in (1) is untouched.
#   5c. Temporal readers: a reduced `fig_temporal --smoke --check` pass
#       runs the lock-based, latch-scan and snapshot reader classes at
#       the highest update rate and asserts the snapshot arm misses
#       fewer reader deadlines than the lock arm, oracle-checked. Smoke
#       mode writes no artifacts; the committed fig_temporal.json golden
#       is covered by the parity diff in (1).
#   6. Inspection: the run records a replayable JSONL trace
#      (results/all_figures.trace.jsonl, committed, covered by the
#      parity diff in (1)) and `rtlock-inspect` must answer `summary`
#      and `top-blockers` against it.
#   7. Codegen: scripts/check_sink_codegen.sh proves the untraced
#      library still contains no journal drain/flush symbols, so the
#      new profiling sinks stay strictly opt-in.
#
# Refreshed BENCH_SWEEP.json / results timing fields are left in the
# working tree; commit them when the change is a deliberate perf shift.
set -euo pipefail
cd "$(dirname "$0")/.."

# Extracts a numeric field from the named experiment's BENCH_SWEEP.json
# entry (the file holds one entry per experiment).
sweep_field() {
    awk -F': ' -v exp_name="\"$1\"" -v field="\"$2\"" '
        $1 ~ /"experiment"/ { gsub(/,$/, "", $2); current = $2 }
        index($1, field) && current == exp_name { gsub(/,$/, "", $2); print $2; exit }
    ' BENCH_SWEEP.json
}

baseline=$(sweep_field all_figures wall_clock_seconds)
baseline_eps=$(sweep_field all_figures events_per_sec)
baseline_temporal_eps=$(sweep_field fig_temporal events_per_sec)
if [ -z "${baseline}" ] || [ -z "${baseline_eps}" ] || [ -z "${baseline_temporal_eps}" ]; then
    echo "perf-smoke: no committed all_figures wall clock / events_per_sec or fig_temporal events_per_sec in BENCH_SWEEP.json" >&2
    exit 1
fi

cargo build --release --workspace
RTLOCK_BENCH_WORKERS=1 ./target/release/all_figures --check \
    --trace results/all_figures.trace.json \
    --record=results/all_figures.trace.jsonl > results/all_figures.txt

# Every other deterministic experiment is fully seeded too (the fault
# sweep also seeds its fault streams), so each results file must
# reproduce byte-for-byte against its committed golden; the parity diff
# below covers them. fig_scale at full scale and the wall-clock-driven
# fig_live are not deterministic goldens and stay out.
for bin in fig2 fig3 fig4 fig5 fig6 \
    ablation_rw_semantics ablation_inheritance ablation_victim \
    ablation_timestamp ablation_io ablation_temporal ablation_granularity \
    ablation_faults fig_temporal; do
    RTLOCK_BENCH_WORKERS=1 "./target/release/${bin}" --check > "results/${bin}.txt"
done

# Reduced-scale pass over the stress configuration. `--smoke` writes no
# artifacts, so the committed full-scale entry survives.
RTLOCK_BENCH_WORKERS=1 ./target/release/fig_scale --smoke --check

# Real-threads backend, oracle-checked. `--smoke` writes no artifacts,
# so the committed fig_live.json and BENCH_SWEEP entry survive.
RTLOCK_BENCH_WORKERS=1 ./target/release/fig_live --smoke --check

# Reader service classes over the multiversion store. Asserts snapshot
# readers beat lock-based readers on deadline misses at the top update
# rate; `--smoke` writes no artifacts.
RTLOCK_BENCH_WORKERS=1 ./target/release/fig_temporal --smoke --check

echo "perf-smoke: checking simulation output parity"
if ! git diff --exit-code -I'"wall_clock_seconds"' -I'"workers"' -- results/; then
    echo "perf-smoke: results/ drifted from the committed figures" >&2
    exit 1
fi

current=$(sweep_field all_figures wall_clock_seconds)
echo "perf-smoke: wall clock ${current}s (committed baseline ${baseline}s)"
if ! awk -v cur="${current}" -v base="${baseline}" 'BEGIN { exit !(cur <= 2.0 * base) }'; then
    echo "perf-smoke: all_figures regressed more than 2x (${current}s vs ${baseline}s)" >&2
    exit 1
fi

# Fails if the named experiment's fresh events/sec is more than 20%
# below its committed baseline.
throughput_gate() {
    local current
    current=$(sweep_field "$1" events_per_sec)
    echo "perf-smoke: $1 throughput ${current} events/sec (committed baseline $2)"
    if ! awk -v cur="${current}" -v base="$2" 'BEGIN { exit !(cur >= 0.8 * base) }'; then
        echo "perf-smoke: $1 throughput dropped more than 20% (${current} vs $2 events/sec)" >&2
        exit 1
    fi
}
throughput_gate all_figures "${baseline_eps}"
throughput_gate fig_temporal "${baseline_temporal_eps}"

echo "perf-smoke: querying the recorded trace with rtlock-inspect"
./target/release/rtlock-inspect summary results/all_figures.trace.jsonl > /dev/null
./target/release/rtlock-inspect top-blockers results/all_figures.trace.jsonl > /dev/null

./scripts/check_sink_codegen.sh

echo "perf-smoke: OK"
