"""Rule-based logical optimization (paper Section 2.4).

Shark applies "basic logical optimization, such as predicate pushdown"
shared with Hive, plus "additional rule-based optimizations, such as
pushing LIMIT down to individual partitions" (the physical planner applies
the per-partition LIMIT; the rules here keep the Limit adjacent to its
child so it can).  Rules, in application order:

1. **constant folding** — literal-only subtrees evaluate once at plan time;
2. **predicate pushdown** — WHERE conjuncts move below projections and into
   join sides; ``left.col = right.col`` conjuncts over a cross/inner join
   become equi-join keys (this is what turns the Pavlo benchmark's
   ``FROM rankings R, uservisits UV WHERE R.pageURL = UV.destURL`` into a
   hash join);
3. **column pruning** — scans read only the columns the query touches,
   which is where columnar storage pays off.
"""

from __future__ import annotations

from typing import Optional

from repro.datatypes import Field, Schema
from repro.sql import logical
from repro.sql.expressions import (
    BoundAnd,
    BoundColumn,
    BoundExpr,
    BoundLiteral,
    map_children,
    rewrite_columns,
)


def optimize(plan: logical.LogicalPlan) -> logical.LogicalPlan:
    """Apply all rules and return the optimized plan."""
    plan = fold_constants(plan)
    plan = push_down_predicates(plan)
    plan = prune_columns(plan)
    return plan


# ---------------------------------------------------------------------------
# Commutative canonicalization (plan-cache normalization)
# ---------------------------------------------------------------------------

#: Operators whose operand order never changes the result — the plan
#: cache's normalizer orders their operands canonically so ``a = 1`` and
#: ``1 = a`` (or ``x AND y`` / ``y AND x``) share one cache entry.
COMMUTATIVE_OPS = frozenset({"=", "!=", "+", "*", "and", "or"})


def canonical_commutative_swap(op: str, left_key: str, right_key: str) -> bool:
    """True when a commutative ``op``'s operands should swap to reach
    canonical order.  ``left_key``/``right_key`` are the operands'
    already-normalized renderings; ordering by them is deterministic and
    stable across textual variants of the same predicate."""
    return op in COMMUTATIVE_OPS and right_key < left_key


# ---------------------------------------------------------------------------
# Constant folding
# ---------------------------------------------------------------------------


def fold_expression(expr: BoundExpr) -> BoundExpr:
    """Replace literal-only subtrees with their evaluated value."""
    if isinstance(expr, BoundLiteral):
        return expr
    if not expr.references():
        try:
            value = expr.eval(())
        except Exception:
            return expr  # leave non-evaluable expressions alone
        return BoundLiteral(value, expr.data_type)
    # Fold children, copying only the nodes on a path to a fold.
    return map_children(expr, fold_expression)


def fold_constants(plan: logical.LogicalPlan) -> logical.LogicalPlan:
    if isinstance(plan, logical.Filter):
        return logical.Filter(
            fold_constants(plan.child), fold_expression(plan.condition)
        )
    if isinstance(plan, logical.Project):
        return logical.Project(
            fold_constants(plan.child),
            [fold_expression(expr) for expr in plan.expressions],
            plan.schema,
        )
    if isinstance(plan, logical.Aggregate):
        return logical.Aggregate(
            fold_constants(plan.child),
            [fold_expression(expr) for expr in plan.group_expressions],
            [
                logical.AggregateSpec(
                    spec.function,
                    fold_expression(spec.argument) if spec.argument else None,
                    spec.output_name,
                )
                for spec in plan.aggregates
            ],
            plan.schema,
        )
    if isinstance(plan, logical.Join):
        return logical.Join(
            fold_constants(plan.left),
            fold_constants(plan.right),
            plan.join_type,
            [fold_expression(expr) for expr in plan.left_keys],
            [fold_expression(expr) for expr in plan.right_keys],
            fold_expression(plan.residual) if plan.residual else None,
            plan.schema,
            plan.strategy_hint,
        )
    if isinstance(plan, logical.Sort):
        return logical.Sort(
            fold_constants(plan.child),
            [(fold_expression(expr), asc) for expr, asc in plan.keys],
        )
    if isinstance(plan, logical.Limit):
        return logical.Limit(fold_constants(plan.child), plan.count)
    if isinstance(plan, logical.Distinct):
        return logical.Distinct(fold_constants(plan.child))
    if isinstance(plan, logical.UnionAll):
        return logical.UnionAll([fold_constants(child) for child in plan.inputs])
    if isinstance(plan, logical.Repartition):
        return logical.Repartition(
            fold_constants(plan.child),
            [fold_expression(expr) for expr in plan.expressions],
        )
    if isinstance(plan, logical.SemiJoinFilter):
        return logical.SemiJoinFilter(
            fold_constants(plan.child),
            fold_expression(plan.key),
            fold_constants(plan.subquery),
            plan.negated,
        )
    return plan


# ---------------------------------------------------------------------------
# Predicate pushdown
# ---------------------------------------------------------------------------


def split_conjuncts(expr: BoundExpr) -> list[BoundExpr]:
    if isinstance(expr, BoundAnd):
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def join_conjuncts(conjuncts: list[BoundExpr]) -> Optional[BoundExpr]:
    if not conjuncts:
        return None
    result = conjuncts[0]
    for conjunct in conjuncts[1:]:
        result = BoundAnd(result, conjunct)
    return result


def _is_simple_equi(expr: BoundExpr, left_width: int) -> Optional[tuple[BoundExpr, BoundExpr]]:
    """``expr(left-only) = expr(right-only)`` over a join's combined row."""
    from repro.sql.expressions import BoundComparison

    if not (isinstance(expr, BoundComparison) and expr.op == "="):
        return None
    left_refs = expr.left.references()
    right_refs = expr.right.references()
    if not left_refs or not right_refs:
        return None
    if max(left_refs) < left_width and min(right_refs) >= left_width:
        return expr.left, expr.right
    if max(right_refs) < left_width and min(left_refs) >= left_width:
        return expr.right, expr.left
    return None


def push_down_predicates(plan: logical.LogicalPlan) -> logical.LogicalPlan:
    if isinstance(plan, logical.Filter):
        child = push_down_predicates(plan.child)
        conjuncts = split_conjuncts(plan.condition)
        return _push_into(child, conjuncts)
    if isinstance(plan, logical.Project):
        return logical.Project(
            push_down_predicates(plan.child), plan.expressions, plan.schema
        )
    if isinstance(plan, logical.Aggregate):
        return logical.Aggregate(
            push_down_predicates(plan.child),
            plan.group_expressions,
            plan.aggregates,
            plan.schema,
        )
    if isinstance(plan, logical.Join):
        return logical.Join(
            push_down_predicates(plan.left),
            push_down_predicates(plan.right),
            plan.join_type,
            plan.left_keys,
            plan.right_keys,
            plan.residual,
            plan.schema,
            plan.strategy_hint,
        )
    if isinstance(plan, logical.Sort):
        return logical.Sort(push_down_predicates(plan.child), plan.keys)
    if isinstance(plan, logical.Limit):
        return logical.Limit(push_down_predicates(plan.child), plan.count)
    if isinstance(plan, logical.Distinct):
        return logical.Distinct(push_down_predicates(plan.child))
    if isinstance(plan, logical.UnionAll):
        return logical.UnionAll(
            [push_down_predicates(child) for child in plan.inputs]
        )
    if isinstance(plan, logical.Repartition):
        return logical.Repartition(
            push_down_predicates(plan.child), plan.expressions
        )
    if isinstance(plan, logical.SemiJoinFilter):
        return logical.SemiJoinFilter(
            push_down_predicates(plan.child),
            plan.key,
            push_down_predicates(plan.subquery),
            plan.negated,
        )
    return plan


def _push_into(
    plan: logical.LogicalPlan, conjuncts: list[BoundExpr]
) -> logical.LogicalPlan:
    """Push filter conjuncts as deep as legal into ``plan``."""
    if not conjuncts:
        return plan

    if isinstance(plan, logical.Filter):
        # Merge adjacent filters and keep pushing.
        return _push_into(plan.child, conjuncts + split_conjuncts(plan.condition))

    if isinstance(plan, logical.Project):
        # A conjunct can cross the projection when every column it reads is
        # a pass-through column reference.
        passthrough: dict[int, int] = {}
        for out_index, expr in enumerate(plan.expressions):
            if isinstance(expr, BoundColumn):
                passthrough[out_index] = expr.index
        pushable: list[BoundExpr] = []
        stuck: list[BoundExpr] = []
        for conjunct in conjuncts:
            refs = conjunct.references()
            if refs <= set(passthrough):
                pushable.append(rewrite_columns(conjunct, passthrough))
            else:
                stuck.append(conjunct)
        new_child = _push_into(plan.child, pushable)
        result: logical.LogicalPlan = logical.Project(
            new_child, plan.expressions, plan.schema
        )
        remaining = join_conjuncts(stuck)
        if remaining is not None:
            result = logical.Filter(result, remaining)
        return result

    if isinstance(plan, logical.Join):
        return _push_into_join(plan, conjuncts)

    if isinstance(plan, (logical.Sort, logical.Limit)):
        # Pushing below Limit changes results; keep the filter above.
        condition = join_conjuncts(conjuncts)
        return logical.Filter(plan, condition)

    if isinstance(plan, logical.Distinct):
        inner = _push_into(plan.child, conjuncts)
        return logical.Distinct(inner)

    if isinstance(plan, logical.UnionAll):
        return logical.UnionAll(
            [_push_into(child, list(conjuncts)) for child in plan.inputs]
        )

    if isinstance(plan, logical.Repartition):
        return logical.Repartition(
            _push_into(plan.child, conjuncts), plan.expressions
        )

    if isinstance(plan, logical.SemiJoinFilter):
        # A semi-join filter only removes rows; other filters commute.
        return logical.SemiJoinFilter(
            _push_into(plan.child, conjuncts),
            plan.key,
            plan.subquery,
            plan.negated,
        )

    # Scan, Values, Aggregate (conjuncts above an Aggregate were already
    # placed by the analyzer as HAVING): attach the filter here.
    condition = join_conjuncts(conjuncts)
    if condition is None:
        return plan
    return logical.Filter(plan, condition)


def _push_into_join(
    plan: logical.Join, conjuncts: list[BoundExpr]
) -> logical.LogicalPlan:
    left_width = len(plan.left.schema)
    right_width = len(plan.right.schema)

    left_conjuncts: list[BoundExpr] = []
    right_conjuncts: list[BoundExpr] = []
    new_left_keys = list(plan.left_keys)
    new_right_keys = list(plan.right_keys)
    residual: list[BoundExpr] = (
        split_conjuncts(plan.residual) if plan.residual else []
    )
    join_type = plan.join_type

    can_push_left = join_type in ("inner", "cross", "left")
    can_push_right = join_type in ("inner", "cross", "right")

    for conjunct in conjuncts:
        refs = conjunct.references()
        if refs and max(refs) < left_width and can_push_left:
            left_conjuncts.append(conjunct)
            continue
        if refs and min(refs) >= left_width and can_push_right:
            right_conjuncts.append(
                rewrite_columns(
                    conjunct, {i: i - left_width for i in refs}
                )
            )
            continue
        if join_type in ("inner", "cross"):
            pair = _is_simple_equi(conjunct, left_width)
            if pair is not None:
                left_side, right_side = pair
                new_left_keys.append(left_side)
                new_right_keys.append(
                    rewrite_columns(
                        right_side,
                        {i: i - left_width for i in right_side.references()},
                    )
                )
                continue
        residual.append(conjunct)

    if join_type == "cross" and new_left_keys:
        join_type = "inner"

    new_left = _push_into(push_down_predicates(plan.left), left_conjuncts)
    new_right = _push_into(push_down_predicates(plan.right), right_conjuncts)
    del right_width
    return logical.Join(
        new_left,
        new_right,
        join_type,
        new_left_keys,
        new_right_keys,
        join_conjuncts(residual),
        plan.schema,
        plan.strategy_hint,
    )


# ---------------------------------------------------------------------------
# Column pruning
# ---------------------------------------------------------------------------


def prune_columns(plan: logical.LogicalPlan) -> logical.LogicalPlan:
    pruned, kept = _prune(plan, None)
    if kept != list(range(len(plan.schema))):
        # Restore the original output layout with a final projection.
        mapping = {old: new for new, old in enumerate(kept)}
        exprs = [
            BoundColumn(
                mapping[i], field.data_type, field.name
            )
            for i, field in enumerate(plan.schema.fields)
        ]
        return logical.Project(pruned, exprs, plan.schema)
    return pruned


def _prune(
    plan: logical.LogicalPlan, required: Optional[set[int]]
) -> tuple[logical.LogicalPlan, list[int]]:
    """Returns (new_plan, kept) where ``kept`` lists the old output
    ordinals surviving, in new output order."""
    all_ordinals = list(range(len(plan.schema)))
    if required is None:
        required = set(all_ordinals)

    if isinstance(plan, logical.Scan):
        kept = sorted(required) or [0]
        if kept == all_ordinals:
            return plan, all_ordinals
        names = [plan.schema.names[i] for i in kept]
        new_scan = logical.Scan(plan.table)
        new_scan.projected_columns = names
        new_scan.schema = plan.schema.select(names)
        return new_scan, kept

    if isinstance(plan, logical.Filter):
        child_required = required | plan.condition.references()
        new_child, kept = _prune(plan.child, child_required)
        mapping = {old: new for new, old in enumerate(kept)}
        condition = rewrite_columns(plan.condition, mapping)
        return logical.Filter(new_child, condition), kept

    if isinstance(plan, logical.Project):
        kept = sorted(required) or [0]
        kept_exprs = [plan.expressions[i] for i in kept]
        child_required: set[int] = set()
        for expr in kept_exprs:
            child_required |= expr.references()
        new_child, child_kept = _prune(plan.child, child_required)
        mapping = {old: new for new, old in enumerate(child_kept)}
        rewritten = [rewrite_columns(expr, mapping) for expr in kept_exprs]
        schema = Schema([plan.schema.fields[i] for i in kept])
        return logical.Project(new_child, rewritten, schema), kept

    if isinstance(plan, logical.Aggregate):
        num_groups = len(plan.group_expressions)
        kept_aggs = [
            i for i in range(len(plan.aggregates))
            if (num_groups + i) in required
        ]
        specs = [plan.aggregates[i] for i in kept_aggs]
        child_required: set[int] = set()
        for expr in plan.group_expressions:
            child_required |= expr.references()
        for spec in specs:
            if spec.argument is not None:
                child_required |= spec.argument.references()
        new_child, child_kept = _prune(plan.child, child_required)
        mapping = {old: new for new, old in enumerate(child_kept)}
        groups = [
            rewrite_columns(expr, mapping) for expr in plan.group_expressions
        ]
        new_specs = [
            logical.AggregateSpec(
                spec.function,
                rewrite_columns(spec.argument, mapping)
                if spec.argument is not None
                else None,
                spec.output_name,
            )
            for spec in specs
        ]
        kept = list(range(num_groups)) + [num_groups + i for i in kept_aggs]
        schema = Schema([plan.schema.fields[i] for i in kept])
        return (
            logical.Aggregate(new_child, groups, new_specs, schema),
            kept,
        )

    if isinstance(plan, logical.Join):
        return _prune_join(plan, required)

    if isinstance(plan, logical.Sort):
        child_required = set(required)
        for expr, __ in plan.keys:
            child_required |= expr.references()
        new_child, kept = _prune(plan.child, child_required)
        mapping = {old: new for new, old in enumerate(kept)}
        keys = [
            (rewrite_columns(expr, mapping), asc) for expr, asc in plan.keys
        ]
        return logical.Sort(new_child, keys), kept

    if isinstance(plan, logical.Limit):
        new_child, kept = _prune(plan.child, required)
        return logical.Limit(new_child, plan.count), kept

    if isinstance(plan, logical.Repartition):
        child_required = set(required)
        for expr in plan.expressions:
            child_required |= expr.references()
        new_child, kept = _prune(plan.child, child_required)
        mapping = {old: new for new, old in enumerate(kept)}
        exprs = [rewrite_columns(expr, mapping) for expr in plan.expressions]
        return logical.Repartition(new_child, exprs), kept

    if isinstance(plan, logical.SemiJoinFilter):
        child_required = set(required) | plan.key.references()
        new_child, kept = _prune(plan.child, child_required)
        mapping = {old: new for new, old in enumerate(kept)}
        key = rewrite_columns(plan.key, mapping)
        new_subquery, __ = _prune(plan.subquery, None)
        return (
            logical.SemiJoinFilter(
                new_child, key, new_subquery, plan.negated
            ),
            kept,
        )

    # Distinct, UnionAll, Values and anything else: semantics depend on the
    # full row; recurse without narrowing.
    if isinstance(plan, logical.Distinct):
        new_child, kept = _prune(plan.child, None)
        return logical.Distinct(new_child), kept
    if isinstance(plan, logical.UnionAll):
        children = [_prune(child, None)[0] for child in plan.inputs]
        return logical.UnionAll(children), all_ordinals
    return plan, all_ordinals


def _prune_join(
    plan: logical.Join, required: set[int]
) -> tuple[logical.LogicalPlan, list[int]]:
    left_width = len(plan.left.schema)

    left_required = {i for i in required if i < left_width}
    right_required = {i - left_width for i in required if i >= left_width}
    for key in plan.left_keys:
        left_required |= key.references()
    for key in plan.right_keys:
        right_required |= key.references()
    if plan.residual is not None:
        for ref in plan.residual.references():
            if ref < left_width:
                left_required.add(ref)
            else:
                right_required.add(ref - left_width)

    new_left, left_kept = _prune(plan.left, left_required)
    new_right, right_kept = _prune(plan.right, right_required)
    left_mapping = {old: new for new, old in enumerate(left_kept)}
    right_mapping = {old: new for new, old in enumerate(right_kept)}

    left_keys = [rewrite_columns(key, left_mapping) for key in plan.left_keys]
    right_keys = [
        rewrite_columns(key, right_mapping) for key in plan.right_keys
    ]

    new_left_width = len(left_kept)
    combined_mapping: dict[int, int] = {}
    for old, new in left_mapping.items():
        combined_mapping[old] = new
    for old, new in right_mapping.items():
        combined_mapping[old + left_width] = new + new_left_width
    residual = (
        rewrite_columns(plan.residual, combined_mapping)
        if plan.residual is not None
        else None
    )

    kept = [i for i in left_kept] + [i + left_width for i in right_kept]
    fields: list[Field] = [plan.schema.fields[i] for i in kept]
    return (
        logical.Join(
            new_left,
            new_right,
            plan.join_type,
            left_keys,
            right_keys,
            residual,
            Schema(fields),
            plan.strategy_hint,
        ),
        kept,
    )
