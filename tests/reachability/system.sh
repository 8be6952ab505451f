#!/bin/sh
# The system set of the reachability audit: what the repository runs
# outside tier-1 -- every benchmark file, every example, the perf
# workloads and the command-line steps of CI.  Run it from the root of
# the repository under the tracer (report.py reads what it writes):
#
#   PYTHONPATH="$PWD/tests/reachability:$PWD/src" \
#   REACHABILITY_OUT="$PWD/reach/system" sh tests/reachability/system.sh
#
# It reports and gates nothing: a step that fails prints its exit status
# and the rest still run.
out=$(mktemp -d)
run() { "$@" > "$out/step.log" 2>&1 || echo "exit $?: $*"; }

run python -m pytest -q -o addopts="" --benchmark-disable -p no:cacheprovider \
    benchmarks/bench_*.py
for example in examples/*.py; do run python "$example"; done
run python examples/chaos_demo.py --seed 7 --event-log-out "$out/chaos.jsonl"
run python benchmarks/bench_fig07_aggregation.py --rows 100000 \
    --out "$out/fig07.json" --event-log-out "$out/bench_events"
run python -m benchmarks.perf.run --quick
for workload in shuffle_join scan_agg serving_mix; do
    run python benchmarks/perf/run.py --workload "$workload" --seed 7 \
        --seconds 3 --trace 1
done
run python tests/obs/check_metric_names.py
for report in "" memory tenants cache quality; do
    run python -m repro.obs.history "$out/chaos.jsonl" $report
done
run python -m repro.obs.history "$out/bench_events" memory --markdown
run python -m repro.serving.workload --queries 300 --chaos \
    --event-log-out "$out/soak.jsonl" --report-out "$out/soak.txt"
run python -m repro.serving.workload --queries 300 --chaos --sql-cache \
    --event-log-out "$out/cache_soak.jsonl" --report-out "$out/cache_soak.txt"
run python -m repro.obs.history "$out/soak.jsonl" tenants
# The doctor diffs the two soaks' logs: one corpus of named queries, the
# cache soak's as the baseline and the plain soak's as the current run.
run python -m repro.obs.doctor "$out/cache_soak.jsonl" "$out/soak.jsonl"
rm -rf "$out"
