"""The query caching stack: text memo, plan cache, result cache.

Shark's interactivity claim rests on amortizing work across the query
stream, not just within one query (paper §3.1-§3.2).  This module layers
two caches over the SQL session, behind a memo of raw statement texts:

* **Plan cache** — parsed SQL is *normalized* (literals parameterized,
  identifiers case-folded, commutative predicates canonically ordered
  via :func:`repro.sql.optimizer.canonical_commutative_swap`) and the
  analyzed+optimized logical plan is cached keyed on
  ``(normalized_sql, params, catalog_ddl_version)``.  A hit skips
  parse → analyze → optimize entirely (the raw text memo short-circuits
  the parser).  Physical planning still runs per execution so adaptive
  decisions (PDE, map pruning) see live statistics.
* **Result cache** — final result sets keyed on the normalized query
  plus the *version vector* of every referenced table: one
  ``(alias, table, version)`` entry per FROM-clause occurrence (a
  self-join ``t a, t b`` contributes two entries).  The catalog bumps a
  monotonic per-table version on every journaled DDL/load/insert, so a
  stale entry's key can never be rebuilt — and an invalidation listener
  frees its memory eagerly.

There is no scan-side layer: a cached table's block memoizes every
column it decodes (``ColumnarPartition.column``), so whichever queries
read a block — concurrent or later, whatever their literals — decode
each of its columns once, with or without this module (DESIGN §14).

Every cached byte is charged to the ``sql_cache`` owner in the
:class:`~repro.engine.memory.MemoryAccountant` (storage pool, driver
ledger).  The caps are module constants: ``MAX_PLAN_ENTRIES`` plans,
``MAX_RESULT_ENTRIES`` result sets and ``MAX_RESULT_BYTES`` of them,
least recently used out first.  Both layers default *off*;
``SqlSession.enable_sql_cache()`` turns them on together, and the
session is the only code that consults them.
"""

from __future__ import annotations

import sys
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Iterator, Optional

from repro.engine.memory import DRIVER_WORKER, STORAGE
from repro.sql import ast
from repro.sql.optimizer import canonical_commutative_swap

__all__ = [
    "SqlCache",
    "NormalizedQuery",
    "normalize_select",
]

#: Ledger attribution label for every cached byte (result rows, on the
#: driver ledger).
CACHE_OWNER = "sql_cache"


class UncacheableQuery(Exception):
    """Raised by the normalizer on AST shapes it does not cover; the
    query simply bypasses every cache layer."""


@dataclass(frozen=True)
class NormalizedQuery:
    """One SELECT's cache identity: canonical text, extracted literal
    parameters, and the per-alias table references (one entry per
    FROM-clause occurrence, subqueries included)."""

    text: str
    params: tuple
    #: ``(alias_lower, table_lower)`` per occurrence, traversal order.
    tables: tuple


#: Plans the plan cache keeps (least recently used out first); the text
#: memo keeps up to four times as many texts.
MAX_PLAN_ENTRIES = 128
#: Result sets the result cache keeps (least recently used out first).
MAX_RESULT_ENTRIES = 256
#: Driver-heap bytes the result cache keeps; a larger result set is
#: never stored.
MAX_RESULT_BYTES = 16 * 1024 * 1024


# ---------------------------------------------------------------------------
# SQL normalization (literal parameterization + canonicalization)
# ---------------------------------------------------------------------------


def _norm_expr(expr: ast.Expr, params: list) -> str:
    if isinstance(expr, ast.Literal):
        params.append(expr.value)
        return "?"
    if isinstance(expr, ast.ColumnRef):
        if expr.qualifier:
            return f"{expr.qualifier.lower()}.{expr.name.lower()}"
        return expr.name.lower()
    if isinstance(expr, ast.Star):
        return f"{expr.qualifier.lower()}.*" if expr.qualifier else "*"
    if isinstance(expr, ast.BinaryOp):
        op = expr.op.lower()
        if op == "<>":
            op = "!="
        left_params: list = []
        right_params: list = []
        left = _norm_expr(expr.left, left_params)
        right = _norm_expr(expr.right, right_params)
        if canonical_commutative_swap(op, left, right):
            left, right = right, left
            left_params, right_params = right_params, left_params
        params.extend(left_params)
        params.extend(right_params)
        return f"({left} {op} {right})"
    if isinstance(expr, ast.UnaryOp):
        return f"({expr.op.lower()} {_norm_expr(expr.operand, params)})"
    if isinstance(expr, ast.FunctionCall):
        inner = ", ".join(_norm_expr(arg, params) for arg in expr.args)
        prefix = "distinct " if expr.distinct else ""
        return f"{expr.name.lower()}({prefix}{inner})"
    if isinstance(expr, ast.CaseWhen):
        parts = ["case"]
        if expr.operand is not None:
            parts.append(_norm_expr(expr.operand, params))
        for condition, value in expr.branches:
            parts.append(
                f"when {_norm_expr(condition, params)} "
                f"then {_norm_expr(value, params)}"
            )
        if expr.otherwise is not None:
            parts.append(f"else {_norm_expr(expr.otherwise, params)}")
        parts.append("end")
        return " ".join(parts)
    if isinstance(expr, ast.Cast):
        operand = _norm_expr(expr.operand, params)
        return f"cast({operand} as {expr.type_name.lower()})"
    if isinstance(expr, ast.Between):
        op = "not between" if expr.negated else "between"
        operand = _norm_expr(expr.operand, params)
        low = _norm_expr(expr.low, params)
        high = _norm_expr(expr.high, params)
        return f"({operand} {op} {low} and {high})"
    if isinstance(expr, ast.InList):
        op = "not in" if expr.negated else "in"
        operand = _norm_expr(expr.operand, params)
        inner = ", ".join(_norm_expr(o, params) for o in expr.options)
        return f"({operand} {op} ({inner}))"
    if isinstance(expr, ast.InSubquery):
        op = "not in" if expr.negated else "in"
        operand = _norm_expr(expr.operand, params)
        return f"({operand} {op} ({_norm_select(expr.query, params)}))"
    if isinstance(expr, ast.Like):
        op = "not like" if expr.negated else "like"
        operand = _norm_expr(expr.operand, params)
        return f"({operand} {op} {_norm_expr(expr.pattern, params)})"
    if isinstance(expr, ast.IsNull):
        op = "is not null" if expr.negated else "is null"
        return f"({_norm_expr(expr.operand, params)} {op})"
    raise UncacheableQuery(f"unnormalizable expression {type(expr).__name__}")


def _norm_relation(relation: ast.Relation, params: list) -> str:
    if isinstance(relation, ast.TableRef):
        name = relation.name.lower()
        alias = (relation.alias or relation.name).lower()
        return f"{name} {alias}" if alias != name else name
    if isinstance(relation, ast.SubqueryRef):
        inner = _norm_select(relation.query, params)
        return f"({inner}) {relation.alias.lower()}"
    if isinstance(relation, ast.JoinRef):
        left = _norm_relation(relation.left, params)
        right = _norm_relation(relation.right, params)
        text = f"({left} {relation.join_type.lower()} join {right}"
        if relation.condition is not None:
            text += f" on {_norm_expr(relation.condition, params)}"
        return text + ")"
    raise UncacheableQuery(f"unnormalizable relation {type(relation).__name__}")


def _norm_select(select: ast.SelectStatement, params: list) -> str:
    parts = ["select"]
    if select.distinct:
        parts.append("distinct")
    items = []
    for item in select.items:
        text = _norm_expr(item.expr, params)
        if item.alias:
            text += f" as {item.alias.lower()}"
        items.append(text)
    parts.append(", ".join(items))
    if select.relation is not None:
        parts.append(f"from {_norm_relation(select.relation, params)}")
    if select.where is not None:
        parts.append(f"where {_norm_expr(select.where, params)}")
    if select.group_by:
        keys = ", ".join(_norm_expr(e, params) for e in select.group_by)
        parts.append(f"group by {keys}")
    if select.having is not None:
        parts.append(f"having {_norm_expr(select.having, params)}")
    if select.order_by:
        keys = ", ".join(
            _norm_expr(item.expr, params)
            + ("" if item.ascending else " desc")
            for item in select.order_by
        )
        parts.append(f"order by {keys}")
    if select.limit is not None:
        # LIMIT shapes the result; keep it in the text, not the params.
        parts.append(f"limit {select.limit}")
    if select.distribute_by:
        keys = ", ".join(
            _norm_expr(e, params) for e in select.distribute_by
        )
        parts.append(f"distribute by {keys}")
    for branch in select.union_all:
        parts.append(f"union all {_norm_select(branch, params)}")
    return " ".join(parts)


def _walk_exprs(expr: Optional[ast.Expr]) -> Iterator[ast.Expr]:
    if expr is None:
        return
    yield expr
    for child in expr.children():
        yield from _walk_exprs(child)


def _collect_tables(select: ast.SelectStatement, out: list) -> None:
    """Every referenced table, one ``(alias, table)`` entry *per
    occurrence* — a self-join or a FROM-clause subquery over the same
    table must contribute one version entry per alias, or two queries
    differing only in how often they scan the table could collide."""

    def relation(rel: Optional[ast.Relation]) -> None:
        if rel is None:
            return
        if isinstance(rel, ast.TableRef):
            name = rel.name.lower()
            out.append(((rel.alias or rel.name).lower(), name))
        elif isinstance(rel, ast.SubqueryRef):
            _collect_tables(rel.query, out)
        elif isinstance(rel, ast.JoinRef):
            relation(rel.left)
            relation(rel.right)

    relation(select.relation)
    roots = [item.expr for item in select.items]
    roots.append(select.where)
    roots.extend(select.group_by)
    roots.append(select.having)
    roots.extend(item.expr for item in select.order_by)
    for root in roots:
        for expr in _walk_exprs(root):
            if isinstance(expr, ast.InSubquery):
                _collect_tables(expr.query, out)
    for branch in select.union_all:
        _collect_tables(branch, out)


def normalize_select(select: ast.SelectStatement) -> NormalizedQuery:
    """Canonical cache identity for one SELECT statement.

    Raises :class:`UncacheableQuery` on AST shapes the normalizer does
    not cover (the query then bypasses the cache stack entirely).
    """
    params: list = []
    text = _norm_select(select, params)
    tables: list = []
    _collect_tables(select, tables)
    return NormalizedQuery(text, tuple(params), tuple(tables))


# ---------------------------------------------------------------------------
# Cache entries
# ---------------------------------------------------------------------------


@dataclass
class _PlanEntry:
    plan: Any
    schema: Any
    #: Tables the plan references (eager invalidation on DDL).
    tables: frozenset


@dataclass
class _ResultEntry:
    rows: list
    schema: Any
    nbytes: int
    tables: frozenset


def _rows_nbytes(rows: list) -> int:
    """Driver-heap estimate for a materialized result set."""
    total = sys.getsizeof(rows)
    for row in rows:
        total += sys.getsizeof(row)
        for value in row:
            total += sys.getsizeof(value)
    return total


# ---------------------------------------------------------------------------
# The cache stack
# ---------------------------------------------------------------------------


class SqlCache:
    """The query cache of one session, bound to its catalog and engine
    context (see the module docstring for the layer contract)."""

    #: Constant 0: there is no fragment layer.  Only the traced run of
    #: ``benchmarks/perf/measure.py`` (``sql.cache.fragment_hit_ratio``)
    #: reads these two; they go in the next PR that may edit it.
    fragment_hits = 0
    fragment_misses = 0

    def __init__(self, ctx, catalog):
        self._ctx = ctx
        self.catalog = catalog
        #: Raw SQL text -> NormalizedQuery (None = known-uncacheable);
        #: a memo hit skips the parser entirely.
        self._text_memo: dict[str, Optional[NormalizedQuery]] = {}
        self._plans: OrderedDict = OrderedDict()
        self._results: OrderedDict = OrderedDict()
        self._result_bytes = 0
        # Lifetime tallies, read by the sqlcache.* counters.
        self.plan_hits = 0
        self.plan_misses = 0
        self.result_hits = 0
        self.result_misses = 0
        self.invalidations = 0
        self.evictions = 0
        catalog.add_listener(self._on_table_change)
        metrics = ctx.tracer.metrics
        metrics.register_counter("sqlcache.plan.hits", lambda: self.plan_hits)
        metrics.register_counter(
            "sqlcache.plan.misses", lambda: self.plan_misses
        )
        metrics.register_counter(
            "sqlcache.result.hits", lambda: self.result_hits
        )
        metrics.register_counter(
            "sqlcache.result.misses", lambda: self.result_misses
        )
        metrics.register_counter(
            "sqlcache.invalidations", lambda: self.invalidations
        )
        metrics.register_counter("sqlcache.evictions", lambda: self.evictions)
        metrics.register_gauge("sqlcache.bytes", lambda: self._result_bytes)
        metrics.register_gauge(
            "sqlcache.entries", lambda: len(self._plans) + len(self._results)
        )

    # ------------------------------------------------------------------
    # Text memo
    # ------------------------------------------------------------------
    _MISSING = object()

    def memo_for(self, text: str):
        """The memoized :class:`NormalizedQuery` for ``text``, ``None``
        when the text is known-uncacheable, or ``SqlCache._MISSING``
        when the text has never been normalized."""
        return self._text_memo.get(text, SqlCache._MISSING)

    def memoize(self, text: str, select: ast.SelectStatement):
        """Normalize ``select`` and memoize it under its raw text.
        Returns the NormalizedQuery, or None when uncacheable."""
        try:
            normalized = normalize_select(select)
        except UncacheableQuery:
            normalized = None
        self._text_memo[text] = normalized
        if len(self._text_memo) > 4 * MAX_PLAN_ENTRIES:
            # The memo is bounded by the plan cache's horizon; drop the
            # oldest half when it overgrows (plain dicts iterate in
            # insertion order).
            for stale in list(self._text_memo)[
                : len(self._text_memo) // 2
            ]:
                del self._text_memo[stale]
        return normalized

    # ------------------------------------------------------------------
    # Versions
    # ------------------------------------------------------------------
    def version_vector(
        self, normalized: NormalizedQuery
    ) -> Optional[tuple]:
        """``(alias, table, version)`` per referenced-table occurrence,
        or None when any table is unknown (bypass: the normal path will
        produce the proper analyzer error)."""
        vector = []
        for alias, table in normalized.tables:
            if not self.catalog.exists(table):
                return None
            vector.append((alias, table, self.catalog.version(table)))
        return tuple(vector)

    # ------------------------------------------------------------------
    # Plan cache
    # ------------------------------------------------------------------
    def plan_lookup(self, normalized: NormalizedQuery):
        """The cached (optimized plan, schema) pair, or None."""
        key = (normalized.text, normalized.params, self.catalog.ddl_version)
        entry = self._plans.get(key)
        if entry is None:
            self.plan_misses += 1
            return None
        self._plans.move_to_end(key)
        self.plan_hits += 1
        return entry.plan, entry.schema

    def plan_store(
        self, normalized: NormalizedQuery, plan, schema
    ) -> None:
        key = (normalized.text, normalized.params, self.catalog.ddl_version)
        tables = frozenset(table for __, table in normalized.tables)
        self._plans[key] = _PlanEntry(plan, schema, tables)
        self._plans.move_to_end(key)
        while len(self._plans) > MAX_PLAN_ENTRIES:
            self._plans.popitem(last=False)

    # ------------------------------------------------------------------
    # Result cache
    # ------------------------------------------------------------------
    def result_lookup(self, normalized: NormalizedQuery):
        """The cached (rows, schema) for the current version vector, or
        None.  Rows are returned as a fresh list (callers own it)."""
        vector = self.version_vector(normalized)
        if vector is None:
            return None
        key = (normalized.text, normalized.params, vector)
        entry = self._results.get(key)
        if entry is None:
            self.result_misses += 1
            return None
        self._results.move_to_end(key)
        self.result_hits += 1
        return list(entry.rows), entry.schema

    def result_store(
        self, normalized: NormalizedQuery, rows: list, schema
    ) -> None:
        vector = self.version_vector(normalized)
        if vector is None:
            return
        key = (normalized.text, normalized.params, vector)
        if key in self._results:
            return
        nbytes = _rows_nbytes(rows)
        if nbytes > MAX_RESULT_BYTES:
            return
        self._ctx.memory.reserve(DRIVER_WORKER, STORAGE, CACHE_OWNER, nbytes)
        self._result_bytes += nbytes
        tables = frozenset(table for __, table in normalized.tables)
        self._results[key] = _ResultEntry(list(rows), schema, nbytes, tables)
        while (
            len(self._results) > MAX_RESULT_ENTRIES
            or self._result_bytes > MAX_RESULT_BYTES
        ):
            stale_key, stale = self._results.popitem(last=False)
            self._drop_result(stale)

    def _drop_result(self, entry: _ResultEntry, evicted: bool = True) -> None:
        self._ctx.memory.release(
            DRIVER_WORKER, STORAGE, CACHE_OWNER, entry.nbytes
        )
        self._result_bytes -= entry.nbytes
        if evicted:
            self.evictions += 1
            self._ctx.tracer.metrics.inc(
                "sqlcache.evicted.bytes", entry.nbytes
            )

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def _on_table_change(self, table: str, version: int, ddl: bool) -> None:
        """Catalog listener: ``table``'s version moved (load/insert) or
        its DDL identity changed (create/drop/cache/uncache).  Stale
        keys can never be rebuilt — this eagerly frees their memory."""
        dropped = 0
        for key in [
            key
            for key, entry in self._results.items()
            if table in entry.tables
        ]:
            self._drop_result(self._results.pop(key), evicted=False)
            dropped += 1
        if ddl:
            for key in [
                key
                for key, entry in self._plans.items()
                if table in entry.tables
            ]:
                del self._plans[key]
                dropped += 1
        self.invalidations += dropped

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def bytes_cached(self) -> int:
        return self._result_bytes

    def summary_lines(self) -> list[str]:
        """The ``== sql cache ==`` section for EXPLAIN ANALYZE and the
        shell's ``.cache`` dot-command."""

        def ratio(hits: int, misses: int) -> str:
            total = hits + misses
            if not total:
                return "no lookups"
            return f"{hits}/{total} hits ({100.0 * hits / total:.0f}%)"

        return [
            f"plan cache: {len(self._plans)} entries, "
            f"{ratio(self.plan_hits, self.plan_misses)}",
            f"result cache: {len(self._results)} entries, "
            f"{self._result_bytes} B, "
            f"{ratio(self.result_hits, self.result_misses)}",
            f"invalidated {self.invalidations}, evicted {self.evictions}, "
            f"{self.bytes_cached} B charged to '{CACHE_OWNER}'",
        ]
