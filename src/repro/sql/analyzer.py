"""Semantic analysis: AST -> resolved, typed logical plan.

Responsibilities:

* name resolution with alias scoping (``t.col``, subquery aliases, join
  scopes, ambiguity detection);
* expression binding and typing (:mod:`repro.sql.expressions`): one
  switch, :meth:`Analyzer.bind`, whatever the scope;
* aggregate extraction — above an Aggregate node, select, HAVING and
  ORDER BY expressions bind against an :class:`AggregateScope`, which
  maps group keys and aggregate calls to the node's output columns;
* equi-join key extraction from ON conditions;
* ORDER BY / GROUP BY positional and alias references, hidden sort columns;
* plan shaping: Filter -> Aggregate -> Having -> Project -> Sort -> Limit ->
  Repartition (DISTRIBUTE BY).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from typing import Any, Callable, Optional

from repro.datatypes import (
    DataType,
    Field,
    STRING,
    Schema,
    infer_type,
)
from repro.errors import AnalysisError
from repro.sql import ast
from repro.sql.catalog import Catalog
from repro.sql.expressions import (
    BoundAnd,
    BoundArithmetic,
    BoundBetween,
    BoundCase,
    BoundCast,
    BoundColumn,
    BoundComparison,
    BoundExpr,
    BoundIn,
    BoundIsNull,
    BoundLike,
    BoundLiteral,
    BoundNegate,
    BoundNot,
    BoundOr,
    BoundScalarCall,
    expr_signature,
)
from repro.sql.functions import (
    AGGREGATE_NAMES,
    FunctionRegistry,
    make_aggregate,
)
from repro.sql import logical
from repro.datatypes import type_by_name


@dataclass(frozen=True)
class ScopeColumn:
    qualifier: Optional[str]
    name: str
    data_type: DataType
    declared: bool = False  # a stored column's type, see BoundColumn


class Scope:
    """Maps (qualifier, name) to row ordinals for one operator's input."""

    def __init__(self, columns: list[ScopeColumn]):
        self.columns = columns

    @classmethod
    def from_schema(
        cls, schema: Schema, qualifier: Optional[str], declared: bool = False
    ) -> "Scope":
        return cls(
            [
                ScopeColumn(qualifier, field.name, field.data_type, declared)
                for field in schema.fields
            ]
        )

    def concat(self, other: "Scope") -> "Scope":
        return Scope(self.columns + other.columns)

    def resolve(self, name: str, qualifier: Optional[str]) -> tuple[int, ScopeColumn]:
        matches = []
        for index, column in enumerate(self.columns):
            if column.name.lower() != name.lower():
                continue
            if qualifier is not None and (
                column.qualifier is None
                or column.qualifier.lower() != qualifier.lower()
            ):
                continue
            matches.append((index, column))
        if not matches:
            shown = f"{qualifier}.{name}" if qualifier else name
            available = [
                (f"{c.qualifier}." if c.qualifier else "") + c.name
                for c in self.columns
            ]
            raise AnalysisError(
                f"unknown column {shown!r}; available: {available}"
            )
        if len(matches) > 1:
            shown = f"{qualifier}.{name}" if qualifier else name
            raise AnalysisError(f"ambiguous column reference {shown!r}")
        return matches[0]

    def columns_for(self, qualifier: Optional[str]) -> list[int]:
        """Ordinals selected by ``*`` or ``qualifier.*``."""
        if qualifier is None:
            return list(range(len(self.columns)))
        out = [
            index
            for index, column in enumerate(self.columns)
            if column.qualifier is not None
            and column.qualifier.lower() == qualifier.lower()
        ]
        if not out:
            raise AnalysisError(f"unknown table alias {qualifier!r} in '*'")
        return out

    def lookup(self, expr: ast.Expr, bind) -> Optional[BoundExpr]:
        """What ``expr`` binds to as a whole in this scope, before
        :meth:`Analyzer.bind` looks at its kind; None here."""
        return None

    def __len__(self) -> int:
        return len(self.columns)


class AggregateScope(Scope):
    """An Aggregate node's output: its group keys, then its aggregate
    results, over ``input_scope``.

    :meth:`lookup` turns a subtree into a column of this layout when it
    is a GROUP BY expression — by syntax first, then by the signature of
    its binding over ``input_scope`` (so ``sourceIP`` matches ``GROUP BY
    UV.sourceIP``) — or an aggregate call; a bare column that is neither
    is an error.
    """

    def __init__(
        self,
        columns: list[ScopeColumn],
        group_asts: list[ast.Expr],
        agg_asts: list[ast.FunctionCall],
        input_scope: Scope,
        group_signatures: list[tuple],
    ):
        super().__init__(columns)
        self.group_asts = group_asts
        self.agg_asts = agg_asts
        self.input_scope = input_scope
        self.group_signatures = group_signatures

    def lookup(self, expr: ast.Expr, bind) -> Optional[BoundExpr]:
        index = self._ordinal(expr, bind)
        if index is not None:
            column = self.columns[index]
            return BoundColumn(
                index, column.data_type, column.name, column.declared
            )
        if isinstance(expr, ast.ColumnRef):
            raise AnalysisError(
                f"column {expr} must appear in GROUP BY or inside an aggregate"
            )
        return None

    def _ordinal(self, expr: ast.Expr, bind) -> Optional[int]:
        if expr in self.group_asts:
            return self.group_asts.index(expr)
        if self.group_signatures and not _contains_aggregate(expr):
            try:
                signature = expr_signature(bind(expr, self.input_scope))
            except AnalysisError:
                return None
            if signature in self.group_signatures:
                return self.group_signatures.index(signature)
        if expr in self.agg_asts:
            return len(self.group_asts) + self.agg_asts.index(expr)
        return None


def _same(value):
    return value


def _to_date(value) -> date:
    return value if isinstance(value, date) else date.fromisoformat(str(value))


def _or_null(convert: Callable[[Any], Any]) -> Callable[[Any], Any]:
    """``convert``, except that a value it cannot convert is NULL, as in
    Hive (``CAST('a' AS INT)``, ``CAST('2024-13-01' AS DATE)``)."""

    def cast(value):
        try:
            return convert(value)
        except (TypeError, ValueError, OverflowError):
            return None

    return cast


#: A CAST's conversion of one non-NULL value, by target type name.
_CASTS = {
    "int": _or_null(int),
    "bigint": _or_null(int),
    "double": _or_null(float),
    "string": str,
    "boolean": bool,
    "date": _or_null(_to_date),
}


def _is_aggregate(expr: ast.Expr) -> bool:
    return (
        isinstance(expr, ast.FunctionCall)
        and expr.name.lower() in AGGREGATE_NAMES
    )


def _contains_aggregate(expr: ast.Expr) -> bool:
    return _is_aggregate(expr) or any(
        map(_contains_aggregate, expr.children())
    )


def _collect_aggregates(expr: ast.Expr, out: list[ast.FunctionCall]) -> None:
    if _is_aggregate(expr):
        if expr not in out:
            out.append(expr)
        return  # no nested aggregates
    for child in expr.children():
        _collect_aggregates(child, out)


class Analyzer:
    """Binds one SELECT statement into a logical plan."""

    def __init__(self, catalog: Catalog, registry: FunctionRegistry):
        self.catalog = catalog
        self.registry = registry

    # ------------------------------------------------------------------
    # Expression binding
    # ------------------------------------------------------------------
    def bind(self, expr: ast.Expr, scope: Scope) -> BoundExpr:
        """The one switch from an AST node to its ``Bound*`` node.  Each
        node asks the scope first (an :class:`AggregateScope` maps group
        keys and aggregate calls to its columns)."""
        found = scope.lookup(expr, self.bind)
        if found is not None:
            return found
        if isinstance(expr, ast.Literal):
            if expr.value is None:
                return BoundLiteral(None, STRING)
            return BoundLiteral(expr.value, infer_type(expr.value))
        if isinstance(expr, ast.ColumnRef):
            index, column = scope.resolve(expr.name, expr.qualifier)
            return BoundColumn(
                index, column.data_type, str(expr), column.declared
            )
        if isinstance(expr, ast.Star):
            raise AnalysisError("'*' is only valid in SELECT or COUNT(*)")
        if isinstance(expr, ast.BinaryOp):
            if expr.op == "and":
                return BoundAnd(self.bind(expr.left, scope), self.bind(expr.right, scope))
            if expr.op == "or":
                return BoundOr(self.bind(expr.left, scope), self.bind(expr.right, scope))
            left = self.bind(expr.left, scope)
            right = self.bind(expr.right, scope)
            if expr.op in ("=", "<>", "<", "<=", ">", ">="):
                return BoundComparison(expr.op, left, right)
            return BoundArithmetic(expr.op, left, right)
        if isinstance(expr, ast.UnaryOp):
            operand = self.bind(expr.operand, scope)
            if expr.op == "not":
                return BoundNot(operand)
            return BoundNegate(operand)
        if isinstance(expr, ast.Between):
            return BoundBetween(
                self.bind(expr.operand, scope),
                self.bind(expr.low, scope),
                self.bind(expr.high, scope),
                negated=expr.negated,
            )
        if isinstance(expr, ast.InList):
            return BoundIn(
                self.bind(expr.operand, scope),
                [self.bind(option, scope) for option in expr.options],
                negated=expr.negated,
            )
        if isinstance(expr, ast.Like):
            return BoundLike(
                self.bind(expr.operand, scope),
                self.bind(expr.pattern, scope),
                negated=expr.negated,
            )
        if isinstance(expr, ast.IsNull):
            return BoundIsNull(self.bind(expr.operand, scope), expr.negated)
        if isinstance(expr, ast.CaseWhen):
            return self._bind_case(expr, scope)
        if isinstance(expr, ast.Cast):
            return self._bind_cast(expr, scope)
        if isinstance(expr, ast.FunctionCall):
            if expr.name.lower() in AGGREGATE_NAMES:
                raise AnalysisError(
                    f"aggregate {expr.name.upper()} is not allowed here"
                )
            return self._bind_call(expr, scope)
        if isinstance(expr, ast.InSubquery):
            raise AnalysisError(
                "IN (SELECT ...) is only supported as a top-level WHERE "
                "conjunct"
            )
        raise AnalysisError(f"cannot bind expression {expr!r}")

    def _bind_case(self, expr: ast.CaseWhen, scope: Scope) -> BoundExpr:
        branches: list[tuple[BoundExpr, BoundExpr]] = []
        if expr.operand is not None:
            operand = self.bind(expr.operand, scope)
            for condition, value in expr.branches:
                bound_condition = BoundComparison(
                    "=", operand, self.bind(condition, scope)
                )
                branches.append((bound_condition, self.bind(value, scope)))
        else:
            for condition, value in expr.branches:
                branches.append(
                    (self.bind(condition, scope), self.bind(value, scope))
                )
        otherwise = (
            self.bind(expr.otherwise, scope)
            if expr.otherwise is not None
            else None
        )
        data_type = branches[0][1].data_type if branches else (
            otherwise.data_type if otherwise else STRING
        )
        return BoundCase(branches, otherwise, data_type)

    def _bind_cast(self, expr: ast.Cast, scope: Scope) -> BoundExpr:
        target = type_by_name(expr.type_name)
        operand = self.bind(expr.operand, scope)
        return BoundCast(operand, target, _CASTS.get(target.name, _same))

    def _bind_call(self, expr: ast.FunctionCall, scope: Scope) -> BoundExpr:
        spec = self.registry.lookup(expr.name)
        if spec is None:
            raise AnalysisError(
                f"unknown function {expr.name!r}; register UDFs via "
                f"SharkContext.register_udf"
            )
        args = [self.bind(arg, scope) for arg in expr.args]
        if not spec.min_args <= len(args) <= spec.max_args:
            raise AnalysisError(
                f"{expr.name.upper()} expects between {spec.min_args} and "
                f"{spec.max_args} arguments, got {len(args)}"
            )
        data_type = spec.resolve_type([arg.data_type for arg in args])
        return BoundScalarCall(
            expr.name, spec.fn, args, data_type,
            null_propagating=spec.null_propagating,
        )

    # ------------------------------------------------------------------
    # Relations
    # ------------------------------------------------------------------
    def analyze_relation(
        self, relation: ast.Relation
    ) -> tuple[logical.LogicalPlan, Scope]:
        if isinstance(relation, ast.TableRef):
            entry = self.catalog.get(relation.name)
            plan = logical.Scan(entry)
            qualifier = relation.alias or relation.name
            return plan, Scope.from_schema(entry.schema, qualifier, declared=True)
        if isinstance(relation, ast.SubqueryRef):
            plan = self.analyze_select(relation.query)
            return plan, Scope.from_schema(plan.schema, relation.alias)
        if isinstance(relation, ast.JoinRef):
            return self._analyze_join(relation)
        raise AnalysisError(f"unsupported relation {relation!r}")

    def _analyze_join(
        self, relation: ast.JoinRef
    ) -> tuple[logical.LogicalPlan, Scope]:
        left_plan, left_scope = self.analyze_relation(relation.left)
        right_plan, right_scope = self.analyze_relation(relation.right)
        combined = left_scope.concat(right_scope)

        left_keys: list[BoundExpr] = []
        right_keys: list[BoundExpr] = []
        residual: Optional[BoundExpr] = None

        if relation.condition is not None:
            conjuncts = _split_conjuncts(relation.condition)
            residual_asts: list[ast.Expr] = []
            for conjunct in conjuncts:
                pair = self._try_equi_key(
                    conjunct, left_scope, right_scope
                )
                if pair is not None:
                    left_keys.append(pair[0])
                    right_keys.append(pair[1])
                else:
                    residual_asts.append(conjunct)
            if residual_asts:
                residual = self.bind(_join_conjuncts(residual_asts), combined)

        join_type = relation.join_type
        if not left_keys and relation.condition is None:
            join_type = "cross"

        schema = Schema(_dedupe_fields(combined))
        plan = logical.Join(
            left=left_plan,
            right=right_plan,
            join_type=join_type,
            left_keys=left_keys,
            right_keys=right_keys,
            residual=residual,
            schema=schema,
        )
        return plan, combined

    def _try_equi_key(
        self,
        conjunct: ast.Expr,
        left_scope: Scope,
        right_scope: Scope,
    ) -> Optional[tuple[BoundExpr, BoundExpr]]:
        """If the conjunct is ``expr(left) = expr(right)``, bind each side
        against its own scope and return the key pair."""
        if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
            return None
        for first, second in (
            (conjunct.left, conjunct.right),
            (conjunct.right, conjunct.left),
        ):
            try:
                left_key = self.bind(first, left_scope)
                right_key = self.bind(second, right_scope)
                return left_key, right_key
            except AnalysisError:
                continue
        return None

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------
    def analyze_select(self, select: ast.SelectStatement) -> logical.LogicalPlan:
        plan = self._analyze_single_select(select)
        if select.union_all:
            branches = [plan]
            for branch_ast in select.union_all:
                branch = self.analyze_select(branch_ast)
                if len(branch.schema) != len(plan.schema):
                    raise AnalysisError(
                        "UNION ALL branches must have the same column count"
                    )
                branches.append(branch)
            plan = logical.UnionAll(branches)
        return plan

    def _analyze_single_select(
        self, select: ast.SelectStatement
    ) -> logical.LogicalPlan:
        if select.relation is None:
            # SELECT without FROM: single-row constant query.
            plan, scope = self._constant_relation()
        else:
            plan, scope = self.analyze_relation(select.relation)

        if select.where is not None:
            conjuncts = _split_conjuncts(select.where)
            subquery_conjuncts = [
                c for c in conjuncts if isinstance(c, ast.InSubquery)
            ]
            plain = [
                c for c in conjuncts if not isinstance(c, ast.InSubquery)
            ]
            if plain:
                condition = _join_conjuncts(plain)
                if _contains_aggregate(condition):
                    raise AnalysisError(
                        "aggregates are not allowed in WHERE"
                    )
                plan = logical.Filter(plan, self.bind(condition, scope))
            for conjunct in subquery_conjuncts:
                if _contains_aggregate(conjunct.operand):
                    raise AnalysisError(
                        "aggregates are not allowed in WHERE"
                    )
                key = self.bind(conjunct.operand, scope)
                subplan = self.analyze_select(conjunct.query)
                if len(subplan.schema) != 1:
                    raise AnalysisError(
                        "an IN subquery must select exactly one column, "
                        f"got {len(subplan.schema)}"
                    )
                plan = logical.SemiJoinFilter(
                    plan, key, subplan, negated=conjunct.negated
                )

        # Expand stars and default aliases.
        items = self._expand_items(select.items, scope)

        group_asts = self._resolve_group_refs(select.group_by, items)
        has_aggregates = bool(group_asts) or any(
            _contains_aggregate(item.expr) for item in items
        ) or (select.having is not None)

        if has_aggregates:
            plan, scope = self._plan_aggregate(
                plan, scope, items, group_asts, select
            )
        elif select.having is not None:
            raise AnalysisError("HAVING requires GROUP BY or aggregates")
        output_exprs = [self.bind(item.expr, scope) for item in items]
        output_schema = Schema(
            Field(name, expr.data_type)
            for name, expr in zip(self._output_names(items), output_exprs)
        )

        # ORDER BY: resolve against output aliases/positions, else bind the
        # expression and append it as a hidden projection column.
        sort_keys: list[tuple[BoundExpr, bool]] = []
        hidden: list[BoundExpr] = []
        if select.order_by:
            for order in select.order_by:
                ordinal = self._match_output(order.expr, items, output_schema)
                if ordinal is not None:
                    key: BoundExpr = BoundColumn(
                        ordinal,
                        output_schema.fields[ordinal].data_type,
                        output_schema.names[ordinal],
                    )
                else:
                    bound = self.bind(order.expr, scope)
                    index = len(output_schema) + len(hidden)
                    hidden.append(bound)
                    key = BoundColumn(index, bound.data_type, f"_sort{index}")
                sort_keys.append((key, order.ascending))

        project_exprs = output_exprs + hidden
        project_schema = Schema(
            list(output_schema.fields)
            + [
                Field(f"_sort{len(output_schema) + i}", expr.data_type)
                for i, expr in enumerate(hidden)
            ]
        )
        plan = logical.Project(plan, project_exprs, project_schema)

        if select.distinct:
            if hidden:
                raise AnalysisError(
                    "ORDER BY expressions outside the select list cannot be "
                    "combined with DISTINCT"
                )
            plan = logical.Distinct(plan)

        if sort_keys:
            plan = logical.Sort(plan, sort_keys)
        if hidden:
            strip = [
                BoundColumn(i, field.data_type, field.name)
                for i, field in enumerate(output_schema.fields)
            ]
            plan = logical.Project(plan, strip, output_schema)
        if select.limit is not None:
            plan = logical.Limit(plan, select.limit)
        if select.distribute_by:
            out_scope = Scope.from_schema(plan.schema, None)
            keys = [self.bind(expr, out_scope) for expr in select.distribute_by]
            plan = logical.Repartition(plan, keys)
        return plan

    def _constant_relation(self) -> tuple[logical.LogicalPlan, Scope]:
        schema = Schema([Field("_dummy", STRING)])
        plan = logical.Values([("x",)], schema)
        return plan, Scope.from_schema(schema, None)

    def _expand_items(
        self, items: list[ast.SelectItem], scope: Scope
    ) -> list[ast.SelectItem]:
        expanded: list[ast.SelectItem] = []
        for item in items:
            if isinstance(item.expr, ast.Star):
                for index in scope.columns_for(item.expr.qualifier):
                    column = scope.columns[index]
                    expanded.append(
                        ast.SelectItem(
                            ast.ColumnRef(column.name, column.qualifier),
                            alias=column.name,
                        )
                    )
            else:
                expanded.append(item)
        return expanded

    def _output_names(self, items: list[ast.SelectItem]) -> list[str]:
        used: set[str] = set()
        return [
            _unique(_item_name(item) or f"_c{index}", used)
            for index, item in enumerate(items)
        ]

    def _resolve_group_refs(
        self, group_by: list[ast.Expr], items: list[ast.SelectItem]
    ) -> list[ast.Expr]:
        """Resolve positional (GROUP BY 1) and alias references."""
        resolved: list[ast.Expr] = []
        aliases = {
            (item.alias or "").lower(): item.expr
            for item in items
            if item.alias
        }
        for expr in group_by:
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                position = expr.value
                if not 1 <= position <= len(items):
                    raise AnalysisError(
                        f"GROUP BY position {position} out of range"
                    )
                resolved.append(items[position - 1].expr)
            elif (
                isinstance(expr, ast.ColumnRef)
                and expr.qualifier is None
                and expr.name.lower() in aliases
                and not isinstance(aliases[expr.name.lower()], ast.ColumnRef)
            ):
                resolved.append(aliases[expr.name.lower()])
            else:
                resolved.append(expr)
        return resolved

    def _match_output(
        self,
        expr: ast.Expr,
        items: list[ast.SelectItem],
        output_schema: Schema,
    ) -> Optional[int]:
        """ORDER BY resolution against the select list: positions, aliases,
        and structurally identical expressions."""
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            position = expr.value
            if 1 <= position <= len(items):
                return position - 1
            raise AnalysisError(f"ORDER BY position {position} out of range")
        if isinstance(expr, ast.ColumnRef) and expr.qualifier is None:
            for index, item in enumerate(items):
                alias = _item_name(item)
                if alias and alias.lower() == expr.name.lower():
                    return index
        for index, item in enumerate(items):
            if item.expr == expr:
                return index
        return None

    def _plan_aggregate(
        self,
        plan: logical.LogicalPlan,
        scope: Scope,
        items: list[ast.SelectItem],
        group_asts: list[ast.Expr],
        select: ast.SelectStatement,
    ) -> tuple[logical.LogicalPlan, AggregateScope]:
        """The Aggregate (and HAVING) over ``plan``, and the scope that
        the select list and ORDER BY bind against above it."""
        # Every aggregate call in the select list, HAVING and ORDER BY.
        agg_asts: list[ast.FunctionCall] = []
        for expr in (
            [item.expr for item in items]
            + ([select.having] if select.having is not None else [])
            + [order.expr for order in select.order_by]
        ):
            _collect_aggregates(expr, agg_asts)

        group_bound = [self.bind(expr, scope) for expr in group_asts]
        specs: list[logical.AggregateSpec] = []
        for offset, agg_ast in enumerate(agg_asts):
            count_star = len(agg_ast.args) == 1 and isinstance(
                agg_ast.args[0], ast.Star
            )
            if count_star and agg_ast.name.lower() != "count":
                raise AnalysisError(
                    f"'*' argument is only valid in COUNT(*), not "
                    f"{agg_ast.name.upper()}"
                )
            argument = (
                None
                if count_star or not agg_ast.args
                else self.bind(agg_ast.args[0], scope)
            )
            if len(agg_ast.args) > 1:
                raise AnalysisError(
                    f"{agg_ast.name.upper()} takes one argument"
                )
            function = make_aggregate(
                agg_ast.name, agg_ast.distinct, count_star
            )
            specs.append(
                logical.AggregateSpec(
                    function=function,
                    argument=argument,
                    output_name=f"_agg{offset}",
                )
            )

        # A group key that is a stored column keeps its declared type;
        # aggregate results are estimates.
        columns = [
            ScopeColumn(
                None, f"_g{i}", key.data_type,
                isinstance(key, BoundColumn) and key.declared,
            )
            for i, key in enumerate(group_bound)
        ] + [
            ScopeColumn(
                None,
                spec.output_name,
                spec.function.result_type(
                    spec.argument.data_type if spec.argument else None
                ),
            )
            for spec in specs
        ]
        agg_schema = Schema(Field(c.name, c.data_type) for c in columns)
        plan = logical.Aggregate(plan, group_bound, specs, agg_schema)
        agg_scope = AggregateScope(
            columns, group_asts, agg_asts, scope,
            [expr_signature(expr) for expr in group_bound],
        )
        if select.having is not None:
            plan = logical.Filter(plan, self.bind(select.having, agg_scope))
        return plan, agg_scope


def _split_conjuncts(expr: ast.Expr) -> list[ast.Expr]:
    if isinstance(expr, ast.BinaryOp) and expr.op == "and":
        return _split_conjuncts(expr.left) + _split_conjuncts(expr.right)
    return [expr]


def _join_conjuncts(conjuncts: list[ast.Expr]) -> ast.Expr:
    result = conjuncts[0]
    for conjunct in conjuncts[1:]:
        result = ast.BinaryOp("and", result, conjunct)
    return result


def _item_name(item: ast.SelectItem) -> Optional[str]:
    """A select item's own name: its alias, else a bare column's name."""
    if item.alias:
        return item.alias
    if isinstance(item.expr, ast.ColumnRef):
        return item.expr.name
    return None


def _unique(name: str, used: set[str]) -> str:
    """``name``, else the first of ``name_1``, ``name_2``, ... that is not
    in ``used`` (case-blind); the result joins ``used``."""
    base, suffix = name, 1
    while name.lower() in used:
        name = f"{base}_{suffix}"
        suffix += 1
    used.add(name.lower())
    return name


def _dedupe_fields(scope: Scope) -> list[Field]:
    """One field per column, a repeated name qualified, then suffixed."""
    used: set[str] = set()
    fields: list[Field] = []
    for column in scope.columns:
        name = column.name
        if name.lower() in used and column.qualifier:
            name = f"{column.qualifier}.{column.name}"
        fields.append(Field(_unique(name, used), column.data_type))
    return fields
