"""Grep guards: code that a simplification deleted stays deleted.

Each guard names a path the codebase gave up — a second operator family,
a mode knob, a hook that bypassed the query scope, a row executor — by
the identifiers it left behind, and fails when one of them reappears
where it used to live.  One parametrized case per guard; a rule allows
``at_most`` matching lines (most allow none).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Rule:
    pattern: str
    paths: tuple[str, ...] = ("src",)
    #: Path fragment whose files the rule does not read.
    exclude: str = ""
    at_most: int = 0
    #: Match across lines (the whole file at once).
    multiline: bool = False

    def hits(self) -> list[str]:
        regex = re.compile(self.pattern, re.MULTILINE)
        found = []
        for path in self.paths:
            base = ROOT / path
            files = [base] if base.is_file() else sorted(base.rglob("*.py"))
            for file in files:
                name = file.relative_to(ROOT).as_posix()
                if self.exclude and self.exclude in name:
                    continue
                text = file.read_text(encoding="utf-8")
                if self.multiline:
                    found += [f"{name}: {m.group(0)}" for m in regex.finditer(text)]
                    continue
                found += [
                    f"{name}:{number}: {line.strip()}"
                    for number, line in enumerate(text.splitlines(), 1)
                    if regex.search(line)
                ]
        return found


_RESTATED = (
    r'clamped_release_bytes ==\s0|live_bytes\((EXECUTION|"execution")\) ==\s0'
    r"|end is None\] ==\s\[\]"
)

_ANALYZER = "src/repro/sql/analyzer.py"

GUARDS = {
    # Every byte moves through MemoryAccountant.reserve/release: nothing
    # pokes block-store internals or the ledger's byte fields.
    "memory-ledger": [
        Rule(r"\._blocks\b", ("src/repro",), exclude="cluster/worker.py"),
        Rule(r"\.used\[|\.peak\[", ("src/repro",), exclude="engine/memory.py"),
    ],
    # A cached scan's predicate is the batch chain's first filter.
    "one-predicate-evaluator": [
        Rule(r"VectorFilter|enable_vectorized_scan|vector_filters"),
    ],
    # One set of operators, over batches.
    "one-operator-family": [
        Rule(
            r"MemstoreScanRDD|scan_memstore|filter_rows|project_rows"
            r"|partial_aggregate_rdd|SpillableGroups|pre_shuffled_pairs",
            ("src/repro/sql", "src/repro/engine"),
        ),
    ],
    # Nothing selects a second execution mode.
    "one-execution-path": [
        Rule(
            r"\bvectorize\b|arrays(: bool|=)|\.arrays\b",
            ("src/repro/sql", "src/repro/obs"),
        ),
    ],
    # GROUP BY factorizes whatever the key.
    "one-group-id-path": [Rule(r"group_ordinals")],
    # A node's SQL rule is BoundExpr.apply: no row compiler, no exec().
    "one-scalar-rule": [
        Rule(
            r"enable_codegen|use_codegen"
            r"|compile_(predicate|projection|expression)|exec\("
        ),
    ],
    # A query's engine state lives on its QueryScope.
    "one-owner": [
        Rule(
            r"note_shuffle|note_cache_lookups|on_task_seconds"
            r"|current_token\(|current_tenant\(|in_query\("
            r"|_live_broadcasts|shed_queued"
        ),
        Rule(r"_next_shuffle_id", exclude="src/repro/engine/"),
    ],
    # A query's facts are stated once, as its QueryRecord.
    "one-record": [
        Rule(r"rebuild_profiles"),
        Rule(r"write_query\(\s*[a-z_]+=", multiline=True),
        Rule(r'if markdown else "== "', at_most=1),
        Rule(r'"shuffle_write_bytes": stage\.shuffle_write_bytes'),
        Rule(r"reset_profiles", ("src/repro/obs",)),
    ],
    # A cached table's storage is extended, never a union chain.
    "one-block-list": [Rule(r"cached_rdd\.union\(", ("src/repro",))],
    # The operators and the engine do not know a query cache exists.
    "session-owned-cache": [
        Rule(
            r"fragment|sql_cache",
            ("src/repro/sql/physical.py", "src/repro/engine"),
        ),
    ],
    # A bucket weighs its encoded batch: no pickle in the shuffle, and
    # the pickled-row size rule stays with the Hadoop baselines.
    "exchange": [
        Rule(
            r"^\s*(import pickle|from pickle)",
            ("src/repro/engine/shuffle.py",),
        ),
        Rule(r"serialized_size_bytes", ("src/repro/engine", "src/repro/sql")),
    ],
    # One column format from memstore to wire: the store keeps no second
    # encoder, so only the serdes' module pickles.
    "one-column-format": [
        Rule(
            r"^\s*(import pickle|from pickle)",
            ("src/repro/columnar",),
            exclude="columnar/serde.py",
        ),
        Rule(r"EncodedColumn|CompressionScheme", ("src/repro",)),
    ],
    # Concurrency is the lifecycle manager's cooperative baton: no other
    # module starts, locks or waits on a thread.
    "one-threaded-module": [
        Rule(
            r"^\s*(import threading|from threading)",
            ("src/repro",),
            exclude="engine/lifecycle.py",
        ),
    ],
    # Trace time is the simulated clock's: the engine reads no wall clock.
    "wall-clock": [Rule(r"time\.time\(\)|perf_counter", ("src/repro",))],
    # A map task reports one status; PDE reads every statistic off it
    # and no pluggable collector feeds a table beside it.
    "one-map-status": [
        Rule(
            r"StatisticsCollector|stats_collectors|custom_partials"
            r"|skew_partials|encoded_bucket_sizes",
            ("src/repro",),
        ),
    ],
    # What only tests reached stays deleted: the journal keeps statement
    # text (no AST renderer), EXPLAIN ANALYZE is the one profile
    # renderer, and no MPP executor, linear regression or simulator
    # fault plug comes back.
    "tests-only-deleted": [
        Rule(
            r"repro\.sql\.render|LinearRegression|MppExecutor"
            r"|sim_task_effects|QueryProfile\.describe",
            ("src/repro",),
        ),
    ],
    # A column is typed once, by its declared type: no second column
    # analysis on the load path, and every way into the memstore hands
    # the writer a ColumnBatch (``ColumnBatch.from_columns`` stays).
    "one-column-typing": [
        Rule(
            r"ColumnAnalysis|repro\.columnar\.analysis|def _stored\b"
            r"|ColumnarPartition\.from_columns",
            ("src/repro",),
        ),
    ],
    # An external scan decodes each block once, straight into typed
    # vectors: no list-of-values decode beside it, and the scan's batches
    # select the decoded columns without typing them again.
    "one-text-decode": [
        Rule(r"decode_columns", ("src/repro",)),
        Rule(
            r"(?s)^def external_batches\b(?:(?!^def ).)*?"
            r"(?:from_columns|from_values)",
            ("src/repro/sql/physical.py",),
            multiline=True,
        ),
    ],
    # One write path into tables: every write hands the session's writer
    # batches — INSERT ... SELECT collects no rows (only
    # SELECT and EXPLAIN ANALYZE do), a delta merges from its blocks'
    # columns and keeps no row chunk — and SharkContext.create_table goes
    # through the session's.
    "one-write-path": [
        Rule(r"\.chunk\b|chunk=|stored_table", ("src/repro",)),
        Rule(
            r"planned\.rdd\.collect\(",
            ("src/repro/sql/session.py",),
            at_most=2,
        ),
        Rule(r"TableEntry\(", ("src/repro/core/context.py",)),
    ],
    # The baselines are lowering policies over the one engine: no
    # MapReduce loop and no row executor of their own.
    "baselines-on-the-engine": [
        Rule(
            r"MapReduceEngine|_emit_joined|\.eval\(",
            ("src/repro/baselines",),
        ),
    ],
    # A value has one home: a gauge is read from its owner, never
    # written, and no counter repeats shuffle.write.records / .bytes.
    "gauges-are-read": [
        Rule(r"set_gauge\(|_update_gauges", ("src/repro",)),
        Rule(r'"exchange\.(rows|encoded_bytes)"', ("src/repro",)),
    ],
    # A count has one home: a counter whose event an owner already
    # counts reads that owner (metrics.register_counter), and the twin
    # tallies stay gone — spills live in spilled_by_owner, the server's
    # outcome counts in its tenants, a task's volumes in its TaskMetrics
    # (folded into their counters when the job ends).
    "counters-read-their-owner": [
        Rule(r"\.inc\(", ("src/repro",), at_most=54),
        Rule(r"self\.spill_(bytes|runs|events) \+=", ("src/repro",)),
        Rule(
            r"self\.(submitted|completed|shed|rejected|cache_hits) \+=",
            ("src/repro/serving/server.py",),
        ),
    ],
    # The cleanup invariants live in invariant_violations alone (but for
    # one accountant unit test; \s: this file does not match itself).
    "one-invariant-check": [
        Rule(_RESTATED, ("tests",), at_most=1),
        Rule(_RESTATED, ("src/repro",)),
    ],
    # A shuffle write's and a fetch's volumes are their task's record:
    # no instant repeats them.
    "no-volume-instants": [
        Rule(
            r'\.instant\(\s*"shuffle\.(write|fetch)"',
            ("src/repro",),
            multiline=True,
        ),
    ],
    # One expression binder: above an Aggregate, expressions bind through
    # Analyzer.bind (AggregateScope is a lookup it asks, not a second
    # switch), and one session method runs analyze -> optimize.
    "one-binder": [
        Rule(r"isinstance\(expr, ast\.Cast\)", (_ANALYZER,), at_most=1),
        Rule(r"BoundCast\(", (_ANALYZER,), at_most=1),
        Rule(
            r"analyze_select\(", ("src/repro",), exclude=_ANALYZER, at_most=1
        ),
    ],
    # A finished query is held only by its caller: neither the lifecycle
    # manager nor the server keeps a list of the handles or tickets it
    # has finished.
    "finished-queries-forgotten": [
        Rule(
            r"finish_order|(lifecycle|self)\.handles\b"
            r"|(server|self)\.finished\b",
            ("src", "examples", "benchmarks", "tests"),
            exclude="tests/test_guards.py",
        ),
    ],
    # One fair-share rule picks the next admitted query's task, and the
    # lifecycle config holds only its two admission bounds: no
    # round-robin policy, no default deadline, no settable breaker.
    "one-fair-share-rule": [
        Rule(
            r"""["']round-robin["']|_rr_cursor|fairness="""
            r"|default_deadline_s|circuit_(failure_threshold|reset_completions)",
            ("src", "examples", "benchmarks", "tests"),
            exclude="tests/test_guards.py",
        ),
    ],
    # Every option has a caller: the scheduler's retry, speculation and
    # blacklist bounds and the result cache's caps are module constants,
    # and speculation runs exactly under a fault injector; no config
    # object or parameter sets them.
    "every-option-has-a-caller": [
        Rule(
            r"SchedulerConfig|scheduler_config|SqlCacheConfig|enable_result"
            r"|max_result_entries|cache_config",
            ("src", "tests", "examples", "benchmarks"),
            exclude="tests/test_guards.py",
        ),
    ],
    # One driver merge: the driver fetches the map outputs of the one
    # exchange it replaces the reduce stage of, a global aggregate's as a
    # GROUP BY's; no result-task outputs handed to it, and no second
    # pricing of them.
    "one-driver-merge": [
        Rule(
            r"\.collected\b|collected=|_result_bytes|\.partials\b",
            ("src/repro/engine", "src/repro/obs"),
        ),
    ],
    # One event-log schema: the history store reads only the version
    # this tree writes, and a query record stores no per-stage seconds
    # or operator modes, which its profiles determine.
    "one-event-log-schema": [
        Rule(
            r"stage_sim|[\"']operator_modes[\"']|log_v[2-6]|predates schema",
            ("src", "tests"),
            exclude="tests/test_guards.py",
        ),
    ],
    # A job's profile lives on the scope that ran it: the scheduler keeps
    # no history or last profile of its own.
    "profiles-live-on-scopes": [
        Rule(
            r"reset_history|scheduler\.(history|last_profile)\b"
            r"|self\.(history|last_profile)\b",
            ("src/repro/engine", "tests", "benchmarks", "examples"),
            exclude="tests/test_guards.py",
        ),
    ],
}


@pytest.mark.parametrize("guard", sorted(GUARDS))
def test_guard(guard):
    for rule in GUARDS[guard]:
        hits = rule.hits()
        assert len(hits) <= rule.at_most, (rule.pattern, hits)
