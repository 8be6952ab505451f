"""The five workloads: what is set up, what one timed pass does, and what
the oracle expects.

Every workload is a closed loop with one client.  All run on the
sentinel's virtual cluster (4 workers x 2 cores).  Sizes and pass counts
are frozen here; a run repeats *cycles* of (set-up, fixed passes) so that
``setup_s`` has several samples and state never grows past one cycle.
Every cycle of a run builds the same rows from the same seed, so the
simulated-clock metrics repeat exactly.
"""

from __future__ import annotations

import sys
import time
import traceback
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import datagen, queries
from .harness import OpSample
from .oracle import Oracle, is_sorted

WORKERS = 4
CORES_PER_WORKER = 2


def schema_of(table: datagen.Table):
    from repro.datatypes import Schema, type_by_name

    return Schema.of(
        *[(name, type_by_name(kind)) for name, kind in table.columns]
    )


def sim_seconds(engine) -> float:
    """Simulated cluster seconds of the jobs since ``reset_profiles()`` —
    the perf sentinel's definition."""
    from repro.obs.analyze import analyze_profiles

    return analyze_profiles(
        "",
        engine.profiles,
        num_workers=WORKERS,
        cores_per_worker=CORES_PER_WORKER,
    ).total_sim_seconds


def traced_select(shark, text: str, recorder, modes: list):
    """One SELECT as the explicit public pipeline — what
    ``SqlSession._execute_select`` does with the cache off — with a span
    around each layer.  Jobs launched inside ``plan()`` or ``collect()``
    become child spans through ``instrument_engine``."""
    from repro.sql.analyzer import Analyzer
    from repro.sql.optimizer import optimize
    from repro.sql.parser import parse
    from repro.sql.planner import PhysicalPlanner

    session = shark.session
    try:
        with recorder.span("sql.parser"):
            statement = parse(text)
        with recorder.span("sql.analyzer"):
            plan = Analyzer(
                session.catalog, session.registry
            ).analyze_select(statement)
        with recorder.span("sql.optimizer"):
            plan = optimize(plan)
        with recorder.span("sql.planner"):
            planned = PhysicalPlanner(
                shark.engine, shark.store, session.config
            ).plan(plan)
        modes.extend(mode for _, mode in planned.report.operator_modes)
        with recorder.span("collect"):
            return planned.rdd.collect()
    finally:
        shark.engine.release_broadcast_accounting()


def instrument_engine(engine, recorder) -> None:
    """Wrap the job entry points *on this context instance* so every job
    becomes a span under whatever launched it, named by what the job's
    counters show it did: ``job.scan`` ran a fused batch pipeline over
    table blocks (map side: kernels, partial aggregation, shuffle
    write), ``job.reduce`` only consumed shuffle output, ``job.rows`` is
    anything else (row-mode scans, loads)."""
    metrics = engine.metrics

    def wrap(name: str) -> None:
        inner = getattr(engine, name)

        def traced(*args, **kwargs):
            if not recorder.active:
                return inner(*args, **kwargs)
            scanned = metrics.value("batch.rows")
            fetched = metrics.value("shuffle.read.bytes")
            span = recorder.begin("job")
            try:
                return inner(*args, **kwargs)
            finally:
                if metrics.value("batch.rows") > scanned:
                    span.name = "job.scan"
                elif metrics.value("shuffle.read.bytes") > fetched:
                    span.name = "job.reduce"
                else:
                    span.name = "job.rows"
                recorder.finish(span)

        setattr(engine, name, traced)

    for name in ("run_job", "materialize_shuffle", "materialize_dependency"):
        wrap(name)


class Runner:
    """Executes and times ops.  Untraced, a query is ``shark.sql``; with
    a recorder whose ``active`` flag is set it is the explicit pipeline
    under spans.  End-to-end metrics always come from untraced passes."""

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.ops: list = []
        #: key -> rows of the most recent execution (the oracle's input).
        self.results: dict = {}
        #: Execution modes of the operators planned by traced queries.
        self.operator_modes: list = []
        #: Wall seconds spent in ``sim_seconds`` (costmodel.analyze_*).
        self.analyze_seconds = 0.0
        self.analyze_calls = 0

    @property
    def tracing(self) -> bool:
        return self.recorder is not None and self.recorder.active

    def take_ops(self) -> list:
        ops, self.ops = self.ops, []
        return ops

    def timed(self, shark, key: str, fn, span: str = "op"):
        """Time ``fn()`` as one op; an op that raises counts as failed
        and the run goes on."""
        engine = shark.engine
        engine.reset_profiles()
        opened = self.recorder.begin(span) if self.tracing else None
        start = time.perf_counter()
        try:
            result, ok = fn(), True
        except Exception:  # boundary: report, count the op as failed
            traceback.print_exc(file=sys.stderr)
            result, ok = None, False
        wall = time.perf_counter() - start
        if opened is not None:
            self.recorder.finish(opened)
        analyze_start = time.perf_counter()
        sim = sim_seconds(engine)
        self.analyze_seconds += time.perf_counter() - analyze_start
        self.analyze_calls += 1
        nrows = len(result) if isinstance(result, list) else None
        self.ops.append(OpSample(key, wall, sim, ok, nrows))
        self.results[key] = result
        return result

    def query(self, shark, key: str, text: str):
        if self.tracing:
            return self.timed(
                shark,
                key,
                lambda: traced_select(
                    shark, text, self.recorder, self.operator_modes
                ),
                span="query",
            )
        return self.timed(shark, key, lambda: shark.sql(text).rows)


@dataclass
class State:
    """What one cycle's set-up built."""

    shark: object
    #: The generated inputs this cycle was built from.
    data: dict
    server: object = None
    #: Sum of TableEntry.size_bytes over the workload's tables.
    stored_bytes: int = 0


class Workload:
    #: The ``why`` of each workload is in BENCHMARK.json and the README.
    name = ""
    #: Cycles of a ``--seconds 10`` run, and timed passes per cycle:
    #: sized so a run measures about ten seconds here, has at least 100
    #: timed ops and latency samples, and sets up five times.
    cycles_per_10s = 5
    passes = 1
    quick_passes = 3

    def sizes(self, quick: bool) -> dict:
        """Row counts (and ``memory_cap``, bytes per worker) — frozen."""
        raise NotImplementedError

    def generate(self, seed: int, quick: bool) -> dict:
        """Benchmark-owned inputs for one cycle (part of set-up).  The
        result carries ``sizes``, ``passes`` and the ``main`` table (the
        one the layer probes take their chunk from) next to the rows."""
        raise NotImplementedError

    def build(self, data: dict, recorder=None) -> State:
        """Context construction and base-table loading (set-up)."""
        raise NotImplementedError

    def run_pass(self, state: State, index: int, runner: Runner):
        """Run one timed pass through ``runner``; may return a dict of
        PassSample overrides (``sim_s``, ``wall_samples``)."""
        raise NotImplementedError

    def expected(self, data: dict) -> dict:
        """key -> rows the sqlite3 oracle computes for one cycle."""
        raise NotImplementedError

    def check_order(self, results: dict) -> set:
        """Keys whose rows violate an ORDER BY (the oracle compares
        multisets, so order is checked here)."""
        return set()

    def user_bytes(self, data: dict) -> int:
        """Bytes of the stored rows in the benchmark's text encoding."""
        raise NotImplementedError

    def _inputs(self, quick: bool, **rows) -> dict:
        return dict(
            rows,
            sizes=self.sizes(quick),
            passes=self.quick_passes if quick else self.passes,
        )


def new_context(data: dict, recorder=None):
    from repro import SharkContext

    shark = SharkContext(
        num_workers=WORKERS,
        cores_per_worker=CORES_PER_WORKER,
        memory_per_worker_bytes=data["sizes"].get("memory_cap"),
    )
    if recorder is not None:
        instrument_engine(shark.engine, recorder)
    return shark


def load_cached(shark, table: datagen.Table, partitions: int) -> None:
    shark.create_table(table.name, schema_of(table), cached=True)
    shark.load_rows(table.name, table.rows, num_partitions=partitions)


def stored_bytes(shark, names) -> int:
    return sum(shark.table_entry(name).size_bytes or 0 for name in names)


class QueryWorkload(Workload):
    """Fixed query texts over cached TPC-H-lite and Pavlo tables."""

    statements: tuple = ()

    def generate(self, seed: int, quick: bool) -> dict:
        n = self.sizes(quick)
        tables = [
            datagen.lineitem(seed, n["lineitem"]),
            datagen.rankings(seed, n["rankings"]),
            datagen.uservisits(
                seed, n["uservisits"], n["rankings"], n["uservisits"] // 15
            ),
        ]
        if "orders" in n:
            tables.append(datagen.orders(seed, n["orders"]))
            tables.append(datagen.customer(seed, n["customer"]))
        return self._inputs(quick, tables=tables, main=tables[0])

    def build(self, data: dict, recorder=None) -> State:
        shark = new_context(data, recorder)
        for table in data["tables"]:
            load_cached(shark, table, 1 if table.name == "customer" else 2)
        names = [table.name for table in data["tables"]]
        return State(shark, data, stored_bytes=stored_bytes(shark, names))

    def run_pass(self, state: State, index: int, runner: Runner):
        for key, text in self.statements:
            runner.query(state.shark, key, text)

    def expected(self, data: dict) -> dict:
        oracle = Oracle()
        try:
            for table in data["tables"]:
                oracle.load(table)
            return {key: oracle.query(text) for key, text in self.statements}
        finally:
            oracle.close()

    def check_order(self, results: dict) -> set:
        rows = results.get("order_by")
        if rows is not None and not is_sorted(rows, 1, descending=True):
            return {"order_by"}
        return set()

    def user_bytes(self, data: dict) -> int:
        return sum(datagen.text_bytes(t.rows) for t in data["tables"])


class ScanAgg(QueryWorkload):
    name = "scan_agg"
    statements = queries.SCAN_AGG
    passes = 7

    def sizes(self, quick: bool) -> dict:
        if quick:
            return {"lineitem": 4000, "rankings": 400, "uservisits": 2000}
        return {"lineitem": 40000, "rankings": 4000, "uservisits": 20000}


class ShuffleJoin(QueryWorkload):
    name = "shuffle_join"
    statements = queries.SHUFFLE_JOIN
    passes = 4

    def sizes(self, quick: bool) -> dict:
        if quick:
            return {
                "lineitem": 3000, "orders": 750, "customer": 75,
                "rankings": 250, "uservisits": 1500,
            }
        return {
            "lineitem": 24000, "orders": 6000, "customer": 600,
            "rankings": 2000, "uservisits": 12000,
        }


class CappedSpill(QueryWorkload):
    name = "capped_spill"
    statements = queries.CAPPED_SPILL
    # Short cycles: retained shuffle blocks eat the capped memory, so
    # passes slow ~2x over six; three keep the latency tail steady.
    cycles_per_10s = 6
    passes = 3

    def sizes(self, quick: bool) -> dict:
        # memory_cap: the largest power of two at which every pass both
        # spills and evicts at these row counts (halved down from 4 MiB).
        if quick:
            return {
                "lineitem": 3000, "orders": 750, "customer": 75,
                "rankings": 250, "uservisits": 1500,
                "memory_cap": 32 * 1024,
            }
        return {
            "lineitem": 12000, "orders": 3000, "customer": 300,
            "rankings": 1200, "uservisits": 6000,
            "memory_cap": 256 * 1024,
        }


class Ingest(Workload):
    name = "ingest"
    passes = 6
    chunks = 3
    _TABLES = ("lineitem_mem", "lineitem_ext", "lineitem_ctas")
    _CTAS = (
        "CREATE TABLE lineitem_ctas TBLPROPERTIES ('shark.cache' = 'true') "
        "AS SELECT * FROM lineitem_src"
    )

    def sizes(self, quick: bool) -> dict:
        return {"chunk": 400 if quick else 3000}

    def generate(self, seed: int, quick: bool) -> dict:
        chunk = self.sizes(quick)["chunk"]
        table = datagen.lineitem(seed, chunk * self.chunks)
        # The seed also nudges where the chunks are cut (1 % of a chunk;
        # the total is fixed), so no op costs the same on every seed.
        nudges = np.random.default_rng([seed, 98]).integers(
            -(chunk // 100), chunk // 100 + 1, self.chunks - 1
        )
        cuts = [0] + [
            (i + 1) * chunk + int(nudge) for i, nudge in enumerate(nudges)
        ] + [len(table.rows)]
        return self._inputs(
            quick,
            table=table,
            main=table,
            chunks=[
                table.rows[start:end] for start, end in zip(cuts, cuts[1:])
            ],
        )

    def build(self, data: dict, recorder=None) -> State:
        shark = new_context(data, recorder)
        # Base table: the external (DFS text) source the CTAS op reads.
        shark.create_table(
            "lineitem_src", schema_of(data["table"]), cached=False
        )
        shark.load_rows("lineitem_src", data["table"].rows, num_partitions=2)
        return State(shark, data)

    def run_pass(self, state: State, index: int, runner: Runner):
        shark, data = state.shark, state.data
        # SQL DDL, not create_table(): DROP TABLE leaves an external
        # table's DFS file behind and only the SQL path overwrites it.
        columns = ", ".join(
            f"{name} {kind.upper()}" for name, kind in data["table"].columns
        )
        shark.sql(
            f"CREATE TABLE lineitem_mem ({columns}) "
            "TBLPROPERTIES ('shark.cache' = 'true')"
        )
        shark.sql(f"CREATE TABLE lineitem_ext ({columns})")
        for kind, table in (
            ("cached", "lineitem_mem"), ("external", "lineitem_ext")
        ):
            for i, chunk in enumerate(data["chunks"]):
                runner.timed(
                    shark,
                    f"load_{kind}:{i}",
                    lambda: shark.load_rows(table, chunk, num_partitions=2),
                    span=f"sql.session.load_{kind}",
                )
        runner.timed(
            shark, "ctas", lambda: shark.sql(self._CTAS),
            span="sql.session.ctas",
        )
        runner.query(shark, "readback_cached", "SELECT * FROM lineitem_mem")
        runner.query(shark, "readback_ctas", "SELECT * FROM lineitem_ctas")
        state.stored_bytes = stored_bytes(shark, self._TABLES)
        # The external copy is read back for the oracle only, untimed.
        runner.results["readback_external"] = shark.sql(
            "SELECT * FROM lineitem_ext"
        ).rows
        for name in self._TABLES:
            shark.drop_table(name)

    def expected(self, data: dict) -> dict:
        # Full-row multiset of every table the pass filled.
        oracle = Oracle()
        try:
            oracle.load(data["table"])
            rows = oracle.query("SELECT * FROM lineitem")
        finally:
            oracle.close()
        return {
            "readback_cached": rows,
            "readback_ctas": rows,
            "readback_external": rows,
        }

    def user_bytes(self, data: dict) -> int:
        return len(self._TABLES) * datagen.text_bytes(data["table"].rows)


class ServingMix(Workload):
    name = "serving_mix"
    # Long cycles on purpose: every pass opens with an append, and the
    # slowdown they cause (see README findings) must stay in the run.
    cycles_per_10s = 3
    passes = 7
    waves_per_pass = 5
    wave_size = 40
    #: The statement schedule is frozen like the other workloads' query
    #: texts; ``--seed`` selects the rows, not the statements.
    schedule_seed = 20130622
    #: (tenant, tier): four tenants across the three tiers.
    tenants = (
        ("dashboards", "interactive"),
        ("etl", "batch"),
        ("reports", "batch"),
        ("crawler", "best_effort"),
    )
    literals = 30
    template_alpha = 1.0
    literal_alpha = 1.1

    def sizes(self, quick: bool) -> dict:
        if quick:
            return {"base": 600, "append": 30}
        return {"base": 4000, "append": 200}

    def generate(self, seed: int, quick: bool) -> dict:
        data = self._inputs(quick)
        n, passes = data["sizes"], data["passes"]
        rng = np.random.default_rng(self.schedule_seed)
        waves = []
        for _ in range(passes * self.waves_per_pass):
            templates = datagen.zipf_indices(
                rng, len(queries.SERVING_TEMPLATES), self.wave_size,
                self.template_alpha,
            )
            literals = datagen.zipf_indices(
                rng, self.literals, self.wave_size, self.literal_alpha
            )
            waves.append(
                [
                    (
                        self.tenants[i % len(self.tenants)][0],
                        queries.serving_statement(t, lit),
                    )
                    for i, (t, lit) in enumerate(zip(templates, literals))
                ]
            )
        data["base"] = data["main"] = datagen.readings(seed, n["base"])
        # appends[p] is loaded at the start of pass p (none before pass 0).
        data["appends"] = [None] + [
            datagen.readings(seed, n["append"], part=p)
            for p in range(1, passes)
        ]
        data["waves"] = waves
        return data

    def build_context(self, data: dict, sql_cache: bool = True):
        shark = new_context(data)
        shark.create_table("readings", schema_of(data["base"]), cached=True)
        shark.load_rows("readings", data["base"].rows, num_partitions=4)
        if sql_cache:
            shark.enable_sql_cache()
        return shark

    def build(self, data: dict, recorder=None) -> State:
        from repro import ServerConfig, SqlServer, TenantQuota

        shark = self.build_context(data)
        # Quotas and the brownout depth are sized so nothing is rejected
        # or shed: any failed op is a regression.
        server = SqlServer(
            shark,
            ServerConfig(
                engine_slots=4,
                brownout_enter_depth=10 * self.wave_size,
                brownout_exit_depth=10 * self.wave_size - 1,
            ),
        )
        quota = TenantQuota(max_concurrent=2, max_queued=self.wave_size)
        for tenant, tier in self.tenants:
            server.register_tenant(tenant, tier, quota)
        return State(shark, data, server=server)

    def append(self, shark, data: dict, index: int, runner: Runner):
        """The append that opens pass ``index`` (a timed op), if any."""
        append = data["appends"][index]
        if append is None:
            return None
        runner.timed(
            shark,
            f"append:{index}",
            lambda: shark.load_rows(
                "readings", append.rows, num_partitions=1
            ),
            span="sql.session.load_cached",
        )
        return runner.ops[-1].wall_s

    def run_pass(self, state: State, index: int, runner: Runner):
        from repro.errors import ReproError

        shark, server, data = state.shark, state.server, state.data
        recorder = runner.recorder if runner.tracing else None
        clock = shark.engine.tracer.clock
        sim_start = clock.now()
        wall_samples = []
        append_wall = self.append(shark, data, index, runner)
        if append_wall is not None:
            wall_samples.append(append_wall)
        first = index * self.waves_per_pass
        for wave in range(first, first + self.waves_per_pass):
            tickets = []
            start = time.perf_counter()
            if recorder is not None:
                span = recorder.begin("serving.submit")
            for tenant, text in data["waves"][wave]:
                try:
                    tickets.append(server.submit(tenant, text))
                except ReproError:  # quota rejection: a failed op
                    tickets.append(None)
            if recorder is not None:
                recorder.finish(span)
                span = recorder.begin("serving.drain")
            server.drain()
            if recorder is not None:
                recorder.finish(span)
            # One wall-clock sample per wave, per submission: the API is
            # batch-synchronous, so a client sees waves, not single ops.
            share = (time.perf_counter() - start) / len(tickets)
            wall_samples.append(share)
            for i, ticket in enumerate(tickets):
                key = f"w{wave}:{i}"
                done = ticket is not None and ticket.state == "done"
                rows = ticket.result.rows if done else None
                runner.results[key] = rows
                runner.ops.append(
                    OpSample(
                        key,
                        share,
                        ticket.latency_s if ticket is not None else 0.0,
                        done,
                        len(rows) if done else None,
                    )
                )
        state.stored_bytes = stored_bytes(shark, ["readings"])
        return {
            "sim_s": clock.now() - sim_start,
            "wall_samples": wall_samples,
        }

    def expected(self, data: dict) -> dict:
        # Appends are replayed wave by wave, as the server saw them.
        oracle = Oracle()
        try:
            oracle.load(data["base"])
            expected = {}
            for wave, statements in enumerate(data["waves"]):
                if wave % self.waves_per_pass == 0:
                    append = data["appends"][wave // self.waves_per_pass]
                    if append is not None:
                        oracle.insert("readings", append.rows)
                by_text: dict = {}
                for i, (_, text) in enumerate(statements):
                    if text not in by_text:
                        by_text[text] = oracle.query(text)
                    expected[f"w{wave}:{i}"] = by_text[text]
            return expected
        finally:
            oracle.close()

    def user_bytes(self, data: dict) -> int:
        rows = list(data["base"].rows)
        for append in data["appends"]:
            if append is not None:
                rows.extend(append.rows)
        return datagen.text_bytes(rows)


WORKLOADS = {
    w.name: w
    for w in (Ingest(), ScanAgg(), ShuffleJoin(), CappedSpill(), ServingMix())
}
