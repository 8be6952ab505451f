"""Run one workload: the untraced run (end-to-end metrics) and the
traced run (per-layer metrics).

A run is a fixed op schedule — ``cycles`` x (set-up, ``passes`` timed
passes), the cycle count derived from ``--seconds`` — never a loop
against the clock, so allocation-driven GC and state growth are the
same run to run.  ``gc.collect()`` and a calibration spin bracket every
pass and every set-up.
"""

from __future__ import annotations

import gc
import os
import sys
import time
import traceback
from dataclasses import dataclass

from . import harness, probes
from .harness import PassSample, median
from .oracle import rows_match
from .spans import Recorder
from .workloads import (
    Runner,
    ServingMix,
    State,
    Workload,
    instrument_engine,
    traced_select,
)

#: Engine counters whose per-pass deltas the traced run reports.
_COUNTERS = (
    "tasks.launched",
    "stages.run",
    "shuffle.write.bytes",
    "shuffle.read.bytes",
    "batch.rows",
    "batch.batches",
    "memory.spill.events",
    "memory.spill.bytes",
    "blocks.evicted",
)

_LOAD_SPANS = (
    "sql.session.load_cached",
    "sql.session.load_external",
    "sql.session.ctas",
)

#: span name -> column of the self-time share matrix.
_GROUP_OF = {
    "sql.parser": "front_end",
    "sql.analyzer": "front_end",
    "sql.optimizer": "front_end",
    "sql.planner": "planner_self",
    "job.scan": "jobs_scan",
    "job.reduce": "jobs_reduce",
    "job.rows": "jobs_rows",
    "collect": "collect_self",
    "query": "collect_self",
}
SHARE_GROUPS = (
    "front_end",
    "planner_self",
    "jobs_scan",
    "jobs_reduce",
    "jobs_rows",
    "collect_self",
    "load",
    "serving_cache",
    "cap_penalty",
)


@dataclass
class Cycle:
    state: State
    setup_raw: float
    setup_cal: float
    passes: list
    rss_after_setup: float
    rss_end: float


def run_cycle(
    workload: Workload,
    seed: int,
    quick: bool,
    runner: Runner,
    recorder=None,
    before_pass=None,
    after_pass=None,
) -> Cycle:
    gc.collect()
    spin_before = harness.spin()
    start = time.perf_counter()
    data = workload.generate(seed, quick)
    state = workload.build(data, recorder)
    setup_raw = time.perf_counter() - start
    factor = harness.speed_factor(spin_before, harness.spin())
    rss_after_setup = harness.rss_mb()
    runner.results.clear()
    passes = []
    for index in range(data["passes"]):
        if before_pass is not None:
            before_pass(state, index)
        gc.collect()
        spin_before = harness.spin()
        overrides = workload.run_pass(state, index, runner) or {}
        spin_after = harness.spin()
        if after_pass is not None:
            after_pass(state, index)
        passes.append(
            PassSample(runner.take_ops(), spin_before, spin_after, **overrides)
        )
    return Cycle(
        state, setup_raw, setup_raw * factor, passes,
        rss_after_setup, harness.rss_mb(),
    )


def count_failed(workload: Workload, data: dict, runner: Runner, ops) -> int:
    """Ops that raised, were rejected or shed, or whose rows disagree
    with the sqlite3 oracle.  Rows are compared in full for the last
    execution of every key; every other execution of the key is held to
    the oracle's row count."""
    expected = workload.expected(data)
    wrong = workload.check_order(runner.results)
    for key, rows in expected.items():
        got = runner.results.get(key)
        if got is None or not rows_match(got, rows):
            wrong.add(key)
    failed = 0
    for op in ops:
        want = expected.get(op.key)
        if (
            not op.ok
            or op.key in wrong
            or (want is not None and op.nrows != len(want))
        ):
            failed += 1
    return failed


def cycles_for(workload: Workload, seconds: float, quick: bool) -> int:
    if quick:
        return 1
    return max(round(workload.cycles_per_10s * seconds / 10.0), 1)


def untraced_run(
    workload: Workload, seed: int, seconds: float, quick: bool
) -> dict:
    runner = Runner()
    setups, setups_raw, cycles = [], [], []
    rss_growth = 0.0
    cycle = None
    started = time.perf_counter()
    for index in range(cycles_for(workload, seconds, quick)):
        # Never start a cycle that could carry the run past the
        # driver's per-run limit on a much slower machine.
        if index and time.perf_counter() - started > 6 * seconds:
            break
        cycle = None  # let the previous cycle's context go first
        cycle = run_cycle(workload, seed, quick, runner)
        setups.append(cycle.setup_cal)
        setups_raw.append(cycle.setup_raw)
        cycles.append(cycle.passes)
        if index == 0:
            rss_growth = cycle.rss_end - cycle.rss_after_setup
    peak_rss = harness.peak_rss_mb()  # before the oracle allocates
    data = cycle.state.data
    stored_ratio = cycle.state.stored_bytes / workload.user_bytes(data)
    metrics = harness.end_to_end(setups, cycles, peak_rss, stored_ratio)
    passes = [p for cycle_passes in cycles for p in cycle_passes]
    ops = [op for p in passes for op in p.ops]
    failed = count_failed(workload, data, runner, ops)
    latencies = [ms for p in passes for ms in p.latencies_cal_ms()]
    p90 = metrics["cal_op_p90_ms"]
    pass_cal = harness.across_cycles(cycles, lambda p: [p.cal_seconds])
    pass_raw = harness.across_cycles(cycles, lambda p: [p.raw_seconds])
    raw = {
        "setup_raw_s": median(setups_raw),
        "setup_first_raw_s": setups_raw[0],
        "raw_ops_per_s": len(ops) / len(cycles) / sum(pass_raw),
        "machine_speed": median([p.factor for p in passes]),
        "drift_ratio": harness.drift_ratio(pass_cal),
        "rss_growth_mb": rss_growth,
        "latency_samples": len(latencies),
        "latency_positions": len(latencies) // len(cycles),
        "latency_samples_beyond_p90": sum(ms > p90 for ms in latencies),
        "latency_samples_beyond_p90_rule": harness.samples_beyond(
            len(latencies), 90
        ),
        "passes": len(passes),
        "setups": len(setups),
    }
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
        "harness": raw,
    }


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
def _group_seconds(recorder: Recorder) -> dict:
    """Self seconds per share-matrix column.  Everything under a load
    span (its jobs too) is columnar load."""
    spans = recorder.spans
    child_time = [0.0] * len(spans)
    in_load = [False] * len(spans)
    for index, span in enumerate(spans):
        if span.parent is not None:
            child_time[span.parent] += span.duration
            in_load[index] = in_load[span.parent]
        if span.name in _LOAD_SPANS:
            in_load[index] = True
    totals = dict.fromkeys(SHARE_GROUPS, 0.0)
    for index, span in enumerate(spans):
        group = "load" if in_load[index] else _GROUP_OF.get(span.name)
        if group is not None:
            totals[group] += span.duration - child_time[index]
    return totals


def _root_seconds(recorder: Recorder) -> float:
    return sum(s.duration for s in recorder.spans if s.parent is None)


def _pipeline_metrics(recorder: Recorder, ops: int, factor: float) -> dict:
    """Front end, planner and job metrics from explicit-pipeline spans,
    per op, in calibrated milliseconds."""
    spans = recorder.spans
    self_times = recorder.self_times()
    per_op_ms = factor * 1e3 / ops

    def jobs_under(parent_name: str) -> list:
        return [
            s.duration for s in spans
            if s.name.startswith("job.")
            and s.parent is not None
            and spans[s.parent].name == parent_name
        ]

    plan_jobs = jobs_under("sql.planner")
    planner_total = sum(s.duration for s in spans if s.name == "sql.planner")
    root_seconds = max(_root_seconds(recorder), 1e-12)
    out = {
        f"{layer}.self_ms_per_op": self_times.get(layer, 0.0) * per_op_ms
        for layer in (
            "sql.parser", "sql.analyzer", "sql.optimizer", "sql.planner"
        )
    }
    out["sql.planner.jobs_per_op"] = len(plan_jobs) / ops
    out["sql.planner.share"] = planner_total / root_seconds
    out["engine.jobs_in_plan_ms_per_op"] = sum(plan_jobs) * per_op_ms
    out["engine.jobs_in_collect_ms_per_op"] = (
        sum(jobs_under("collect")) * per_op_ms
    )
    # An overlay on the share matrix, not a column of it: the part of
    # the traced pipeline's time spent in jobs launched from inside
    # plan() (PDE pre-shuffles, broadcast builds).
    out["share.jobs_in_plan"] = sum(plan_jobs) / root_seconds
    return out


def _engine_state_metrics(engine) -> dict:
    """What a cycle left behind: retained shuffle blocks, the execution
    pool's peak and residue, clamped releases."""
    retained = engine.shuffle_manager.registered_block_ids()
    execution = [
        row for row in engine.memory.watermarks()
        if row["pool"] == "execution"
    ]
    return {
        "engine.shuffle.retained_blocks": len(retained),
        "engine.shuffle.retained_bytes": sum(
            worker.blocks.size_of(block_id)
            for worker in engine.cluster.workers
            for block_id in retained
            if block_id in worker.blocks
        ),
        "engine.memory.peak_execution_bytes": max(
            row["peak_bytes"] for row in execution
        ),
        "engine.memory.release_clamped": (
            engine.memory.clamped_release_bytes
        ),
        "engine.memory.residue_bytes": sum(
            row["used_bytes"] for row in execution
        ),
    }


def _counter_values(shark) -> dict:
    metrics = shark.metrics
    return {name: metrics.value(name) for name in _COUNTERS}


_COUNTER_METRICS = (
    ("engine.tasks_per_op", "tasks.launched"),
    ("engine.stages_per_op", "stages.run"),
    ("engine.shuffle.write_bytes_per_op", "shuffle.write.bytes"),
    ("engine.shuffle.read_bytes_per_op", "shuffle.read.bytes"),
    ("columnar.batch.rows_per_op", "batch.rows"),
    ("columnar.batch.batches_per_op", "batch.batches"),
    ("engine.spill.events_per_op", "memory.spill.events"),
    ("engine.spill.bytes_per_op", "memory.spill.bytes"),
    ("engine.memory.evictions_per_op", "blocks.evicted"),
)

_SERVING_METRICS = (
    "sql.cache.result_hit_ratio",
    "sql.cache.plan_hit_ratio",
    "sql.cache.fragment_hit_ratio",
    "sql.cache.hit_us",
    "sql.cache.miss_overhead_us",
    "serving.submit_us_per_op",
    "serving.drain_ms_per_op",
    "serving.overhead_ratio",
    "serving.rejected",
    "serving.shed",
)


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _replay_serving(workload: ServingMix, data: dict, misses_of=None):
    """Run a cycle's statements one by one on a twin context, appends
    included.  Without ``misses_of``: plain ``shark.sql`` with the SQL
    cache on, every statement; returns key -> (seconds, cache_hit).
    With it: only the statements that missed there, as the traced
    explicit pipeline with the cache off; returns key -> seconds and the
    twin's recorder."""
    traced = misses_of is not None
    recorder = Recorder() if traced else None
    shark = workload.build_context(data, sql_cache=not traced)
    if traced:
        instrument_engine(shark.engine, recorder)
    runner = Runner(recorder)
    out = {}
    for wave, statements in enumerate(data["waves"]):
        if wave % workload.waves_per_pass == 0:
            workload.append(
                shark, data, wave // workload.waves_per_pass, runner
            )
        for i, (_, text) in enumerate(statements):
            key = f"w{wave}:{i}"
            if not traced:
                start = time.perf_counter()
                result = shark.sql(text)
                out[key] = (time.perf_counter() - start, result.cache_hit)
            elif not misses_of[key][1]:
                start = time.perf_counter()
                with recorder.span("query"):
                    traced_select(
                        shark, text, recorder, runner.operator_modes
                    )
                out[key] = time.perf_counter() - start
    return out, recorder


def _serving_layers(workload, cycle: Cycle, traced: list, recorder):
    """``sql.cache``, ``serving`` and front-end metrics for
    ``serving_mix``: from the server's own counters and from two replays
    of the cycle on twin contexts.  Also returns the twin's share-matrix
    seconds, scaled to the traced passes."""
    state = cycle.state
    data = state.data
    cache, server = state.shark.sql_cache, state.server
    factor = median([p.factor for p in traced])
    submissions = sum(
        1 for p in traced for op in p.ops if op.key.startswith("w")
    )
    served_s = sum(
        s.duration for s in recorder.spans
        if s.name in ("serving.submit", "serving.drain")
    )
    submit_s = sum(
        s.duration for s in recorder.spans if s.name == "serving.submit"
    )
    out = {
        "sql.cache.result_hit_ratio": _ratio(
            cache.result_hits, cache.result_misses
        ),
        "sql.cache.plan_hit_ratio": _ratio(
            cache.plan_hits, cache.plan_misses
        ),
        "sql.cache.fragment_hit_ratio": _ratio(
            cache.fragment_hits, cache.fragment_misses
        ),
        "serving.submit_us_per_op": submit_s * factor * 1e6 / submissions,
        "serving.drain_ms_per_op": (
            (served_s - submit_s) * factor * 1e3 / submissions
        ),
        "serving.rejected": server.rejected,
        "serving.shed": server.shed,
    }
    spin_before = harness.spin()
    cached, _ = _replay_serving(workload, data)
    uncached, twin = _replay_serving(workload, data, misses_of=cached)
    twin_factor = harness.speed_factor(spin_before, harness.spin())
    hit_s = [seconds for seconds, hit in cached.values() if hit]
    overhead = [
        cached[key][0] - seconds for key, seconds in uncached.items()
    ]
    replay_total = sum(seconds for seconds, _ in cached.values())
    out["sql.cache.hit_us"] = median(hit_s) * twin_factor * 1e6
    out["sql.cache.miss_overhead_us"] = median(overhead) * twin_factor * 1e6
    out["serving.overhead_ratio"] = (served_s * factor / submissions) / (
        replay_total / len(cached) * twin_factor
    )
    out.update(_pipeline_metrics(twin, len(cached), twin_factor))
    # Share-matrix seconds.  What the server adds is its wall time minus
    # the plain cached replay; result-cache hits are cache time; the rest
    # of the replay is query execution, split in the proportions of the
    # traced twin.  All scaled to the traced passes' part of the cycle.
    scale = len(traced) / data["passes"] * twin_factor / factor
    replay_s = replay_total * scale
    hits_s = sum(hit_s) * scale
    execution = {
        name: seconds
        for name, seconds in _group_seconds(twin).items()
        if name != "load"  # the server's own appends are already spans
    }
    per_second = (replay_s - hits_s) / sum(execution.values())
    twin_groups = {
        name: seconds * per_second for name, seconds in execution.items()
    }
    twin_groups["serving_cache"] = max(served_s - replay_s, 0.0) + hits_s
    return out, twin_groups


def _uncapped_twin(workload, data: dict) -> Recorder:
    """The cycle again on a context without the memory cap, tracing the
    same (odd) passes."""
    recorder = Recorder()
    recorder.active = False  # set-up is not traced
    runner = Runner(recorder)
    twin_data = dict(data, sizes=dict(data["sizes"], memory_cap=None))
    state = workload.build(twin_data, recorder)
    for index in range(data["passes"]):
        recorder.active = index % 2 == 1
        workload.run_pass(state, index, runner)
    return recorder


def _obs_metrics(workload, seed: int, quick: bool, out_dir: str) -> dict:
    """A cycle whose passes interleave plain / engine tracing on / event
    log on: the observability layer's own overhead."""
    log_path = os.path.join(out_dir, f"eventlog_{workload.name}.jsonl")
    if os.path.exists(log_path):
        os.remove(log_path)

    def before(state, index):
        if index % 3 == 1:
            state.shark.enable_tracing()
        elif index % 3 == 2:
            state.shark.enable_event_log(log_path)

    def after(state, index):
        state.shark.disable_tracing()
        state.shark.close_event_log()

    cycle = run_cycle(
        workload, seed, quick, Runner(), before_pass=before, after_pass=after
    )
    plain, tracing, logging = (cycle.passes[m::3] for m in range(3))

    def per_op(passes):
        return median([p.cal_seconds / len(p.ops) for p in passes])

    logged_ops = sum(len(p.ops) for p in logging)
    return {
        "obs.tracing_overhead_ratio": (
            per_op(tracing) / per_op(plain) if tracing else 0.0
        ),
        "obs.eventlog_overhead_ratio": (
            per_op(logging) / per_op(plain) if logging else 0.0
        ),
        "obs.eventlog_bytes_per_op": (
            os.path.getsize(log_path) / logged_ops if logged_ops else 0.0
        ),
    }


def traced_run(
    workload: Workload, seed: int, quick: bool, out_dir: str
) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    recorder = Recorder()
    recorder.active = False
    runner = Runner(recorder)

    # Passes alternate untraced / traced on the same context, so the
    # two sets see the same state growth.
    traced_counters = dict.fromkeys(_COUNTERS, 0.0)
    mark: dict = {}
    spills_per_pass, evictions_per_pass = [], []

    def before(state, index):
        recorder.active = index % 2 == 1
        mark.update(_counter_values(state.shark))

    def after(state, index):
        now = _counter_values(state.shark)
        spills_per_pass.append(
            now["memory.spill.events"] - mark["memory.spill.events"]
        )
        evictions_per_pass.append(
            now["blocks.evicted"] - mark["blocks.evicted"]
        )
        if recorder.active:
            for name in _COUNTERS:
                traced_counters[name] += now[name] - mark[name]
        recorder.active = False

    cycle = run_cycle(workload, seed, quick, runner, recorder, before, after)
    data = cycle.state.data
    plain, traced = cycle.passes[0::2], cycle.passes[1::2]
    traced_ops = sum(len(p.ops) for p in traced)
    factor = median([p.factor for p in traced])
    plain_ops = sum(len(p.ops) for p in plain)
    plain_cal = sum(p.cal_seconds for p in plain)

    metrics = _pipeline_metrics(recorder, traced_ops, factor)
    for metric, counter in _COUNTER_METRICS:
        metrics[metric] = traced_counters[counter] / traced_ops
    metrics["engine.spill.min_events_per_pass"] = min(spills_per_pass)
    metrics["engine.memory.min_evictions_per_pass"] = min(evictions_per_pass)
    metrics["sql.physical.row_mode_operators_per_op"] = (
        sum(1 for mode in runner.operator_modes if mode == "row")
        / traced_ops
    )
    metrics.update(_engine_state_metrics(cycle.state.shark.engine))
    metrics["costmodel.sim_per_cal_s"] = (
        sum(p.sim_seconds for p in plain) / plain_cal
    )
    metrics["costmodel.analyze_ms_per_op"] = (
        runner.analyze_seconds / runner.analyze_calls * factor * 1e3
    )
    metrics["harness.trace_overhead_ratio"] = (plain_ops / plain_cal) / (
        traced_ops / sum(p.cal_seconds for p in traced)
    )
    metrics["harness.machine_speed"] = median(
        [p.factor for p in cycle.passes]
    )
    metrics["harness.raw_ops_per_s"] = plain_ops / sum(
        p.raw_seconds for p in plain
    )
    metrics["harness.drift_ratio"] = harness.drift_ratio(
        [p.cal_seconds for p in plain]
    )
    metrics["harness.rss_growth_mb"] = cycle.rss_end - cycle.rss_after_setup
    metrics["harness.setup_raw_s"] = cycle.setup_raw

    # This workload's row of the self-time share matrix.  Two columns
    # are differences against a twin, because no span from outside can
    # isolate them: what the server and cache add over bare execution,
    # and what the memory cap adds over the same ops uncapped.
    groups = _group_seconds(recorder)
    whole = _root_seconds(recorder)
    if isinstance(workload, ServingMix):
        serving, twin_groups = _serving_layers(
            workload, cycle, traced, recorder
        )
        metrics.update(serving)
        groups.update(twin_groups)
    else:
        metrics.update(dict.fromkeys(_SERVING_METRICS, 0.0))
    if data["sizes"].get("memory_cap") is not None:
        twin = _uncapped_twin(workload, data)
        groups = _group_seconds(twin)
        groups["cap_penalty"] = max(whole - _root_seconds(twin), 0.0)
    covered = sum(groups.values())
    for group in SHARE_GROUPS:
        metrics[f"share.{group}"] = groups[group] / covered

    ops = [op for p in cycle.passes for op in p.ops]
    failed = count_failed(workload, data, runner, ops)
    cycle = None  # drop the context before the next cycle builds its own

    metrics.update(_obs_metrics(workload, seed, quick, out_dir))

    # Direct calls into the storage-side layers, on one frozen chunk.
    try:
        metrics.update(probes.layer_probes(data["main"]))
    except Exception:  # a layer's surface moved: report, keep the rest
        traceback.print_exc(file=sys.stderr)
        print(
            "perf: layer probes failed; their metrics read -1",
            file=sys.stderr,
        )
        metrics.update(dict.fromkeys(probes.METRICS, -1.0))

    recorder.write_chrome_trace(
        os.path.join(out_dir, f"trace_{workload.name}.json")
    )
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: float(value) for name, value in metrics.items()},
    }
