"""Recursive-descent parser for the HiveQL-subset dialect."""

from __future__ import annotations

from typing import Optional

from repro.errors import ParseError
from repro.sql.ast import (
    Between,
    BinaryOp,
    CacheTable,
    CaseWhen,
    Cast,
    ColumnDef,
    ColumnRef,
    CreateTable,
    DropTable,
    Explain,
    Expr,
    FunctionCall,
    InList,
    InSubquery,
    InsertInto,
    IsNull,
    JoinRef,
    Like,
    Literal,
    OrderItem,
    Relation,
    SelectItem,
    SelectStatement,
    Star,
    Statement,
    SubqueryRef,
    TableRef,
    UnaryOp,
)
from repro.sql.lexer import Token, tokenize

#: Keywords that may also appear as identifiers (column/table names).
_SOFT_KEYWORDS = {"date", "timestamp", "values", "cache", "if", "exists"}

_COMPARISONS = {"=", "<>", "!=", "<", ">", "<=", ">="}


class Parser:
    """One-pass recursive-descent parser over a token list."""

    def __init__(self, text: str):
        self._tokens = tokenize(text)
        self._index = 0

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------
    def _peek(self, offset: int = 0) -> Token:
        return self._tokens[min(self._index + offset, len(self._tokens) - 1)]

    def _advance(self) -> Token:
        token = self._tokens[self._index]
        if token.kind != "eof":
            self._index += 1
        return token

    def _check(self, kind: str, value: Optional[str] = None) -> bool:
        return self._peek().matches(kind, value)

    def _accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        if self._check(kind, value):
            return self._advance()
        return None

    def _expect(self, kind: str, value: Optional[str] = None) -> Token:
        token = self._peek()
        if not token.matches(kind, value):
            wanted = value or kind
            raise ParseError(
                f"expected {wanted!r}, found {token.value!r}",
                token.position,
                token.line,
            )
        return self._advance()

    def _keyword(self, *words: str) -> bool:
        """Accept a sequence of keywords if all present."""
        for offset, word in enumerate(words):
            if not self._peek(offset).matches("keyword", word):
                return False
        for __ in words:
            self._advance()
        return True

    def _identifier(self) -> str:
        token = self._peek()
        if token.kind == "ident":
            return self._advance().value
        if token.kind == "keyword" and token.value in _SOFT_KEYWORDS:
            return self._advance().value
        raise ParseError(
            f"expected identifier, found {token.value!r}",
            token.position,
            token.line,
        )

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def parse_statement(self) -> Statement:
        if self._keyword("explain"):
            analyze = False
            token = self._peek()
            if token.kind == "ident" and token.value.lower() == "analyze":
                self._advance()
                analyze = True
            return Explain(self.parse_statement(), analyze=analyze)
        if self._check("keyword", "select"):
            statement = self._parse_select()
        elif self._check("keyword", "create"):
            statement = self._parse_create()
        elif self._keyword("drop", "table"):
            if_exists = self._keyword("if", "exists")
            statement = DropTable(self._identifier(), if_exists=if_exists)
        elif self._keyword("insert", "into"):
            statement = self._parse_insert()
        elif self._keyword("cache", "table"):
            statement = CacheTable(self._identifier())
        elif self._keyword("uncache", "table"):
            statement = CacheTable(self._identifier(), uncache=True)
        else:
            token = self._peek()
            raise ParseError(
                f"unexpected statement start {token.value!r}",
                token.position,
                token.line,
            )
        self._accept("symbol", ";")
        self._expect("eof")
        return statement

    def _parse_select(self) -> SelectStatement:
        self._expect("keyword", "select")
        distinct = bool(self._accept("keyword", "distinct"))
        items = [self._parse_select_item()]
        while self._accept("symbol", ","):
            items.append(self._parse_select_item())

        relation = None
        if self._accept("keyword", "from"):
            relation = self._parse_relation()

        where = None
        if self._accept("keyword", "where"):
            where = self._parse_expr()

        group_by: list[Expr] = []
        if self._keyword("group", "by"):
            group_by.append(self._parse_expr())
            while self._accept("symbol", ","):
                group_by.append(self._parse_expr())

        having = None
        if self._accept("keyword", "having"):
            having = self._parse_expr()

        distribute_by: list[Expr] = []
        if self._keyword("distribute", "by"):
            distribute_by.append(self._parse_expr())
            while self._accept("symbol", ","):
                distribute_by.append(self._parse_expr())

        order_by: list[OrderItem] = []
        if self._keyword("order", "by"):
            order_by.append(self._parse_order_item())
            while self._accept("symbol", ","):
                order_by.append(self._parse_order_item())

        limit = None
        if self._accept("keyword", "limit"):
            token = self._expect("number")
            limit = int(token.value)

        union_all: list[SelectStatement] = []
        while self._keyword("union", "all"):
            union_all.append(self._parse_select())

        return SelectStatement(
            items=items,
            relation=relation,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            distinct=distinct,
            union_all=union_all,
            distribute_by=distribute_by,
        )

    def _parse_select_item(self) -> SelectItem:
        expr = self._parse_expr()
        alias = None
        if self._accept("keyword", "as"):
            alias = self._identifier()
        elif self._peek().kind == "ident":
            alias = self._advance().value
        return SelectItem(expr=expr, alias=alias)

    def _parse_order_item(self) -> OrderItem:
        expr = self._parse_expr()
        ascending = True
        if self._accept("keyword", "desc"):
            ascending = False
        else:
            self._accept("keyword", "asc")
        return OrderItem(expr=expr, ascending=ascending)

    # ------------------------------------------------------------------
    # Relations
    # ------------------------------------------------------------------
    def _parse_relation(self) -> Relation:
        relation = self._parse_join_chain()
        # Comma-separated relations are cross joins ("FROM r, uv WHERE ...",
        # as in the Pavlo join query); pushdown later recovers conditions.
        while self._accept("symbol", ","):
            right = self._parse_join_chain()
            relation = JoinRef(relation, right, "inner", None)
        return relation

    def _parse_join_chain(self) -> Relation:
        relation = self._parse_primary_relation()
        while True:
            join_type = None
            if self._accept("keyword", "join") or self._keyword("inner", "join"):
                join_type = "inner"
            elif self._check("keyword", "left"):
                self._advance()
                self._accept("keyword", "outer")
                self._expect("keyword", "join")
                join_type = "left"
            elif self._check("keyword", "right"):
                self._advance()
                self._accept("keyword", "outer")
                self._expect("keyword", "join")
                join_type = "right"
            elif self._check("keyword", "full"):
                self._advance()
                self._accept("keyword", "outer")
                self._expect("keyword", "join")
                join_type = "full"
            else:
                return relation
            right = self._parse_primary_relation()
            condition = None
            if self._accept("keyword", "on"):
                condition = self._parse_expr()
            relation = JoinRef(relation, right, join_type, condition)

    def _parse_primary_relation(self) -> Relation:
        if self._accept("symbol", "("):
            if self._check("keyword", "select"):
                query = self._parse_select()
                self._expect("symbol", ")")
                self._accept("keyword", "as")
                alias = self._identifier()
                return SubqueryRef(query, alias)
            relation = self._parse_relation()
            self._expect("symbol", ")")
            return relation
        name = self._identifier()
        alias = None
        if self._accept("keyword", "as"):
            alias = self._identifier()
        elif self._peek().kind == "ident":
            alias = self._advance().value
        return TableRef(name, alias)

    # ------------------------------------------------------------------
    # DDL / DML
    # ------------------------------------------------------------------
    def _parse_create(self) -> CreateTable:
        self._expect("keyword", "create")
        self._expect("keyword", "table")
        if_not_exists = self._keyword("if", "not", "exists")
        name = self._identifier()

        columns: list[ColumnDef] = []
        if self._check("symbol", "(") and not self._peek(1).matches(
            "string"
        ):
            self._expect("symbol", "(")
            columns.append(self._parse_column_def())
            while self._accept("symbol", ","):
                columns.append(self._parse_column_def())
            self._expect("symbol", ")")

        properties: dict[str, str] = {}
        if self._accept("keyword", "tblproperties"):
            self._expect("symbol", "(")
            key = self._expect("string").value
            self._expect("symbol", "=")
            properties[key] = self._parse_property_value()
            while self._accept("symbol", ","):
                key = self._expect("string").value
                self._expect("symbol", "=")
                properties[key] = self._parse_property_value()
            self._expect("symbol", ")")

        as_select = None
        if self._accept("keyword", "as"):
            as_select = self._parse_select()

        return CreateTable(
            name=name,
            columns=columns,
            properties=properties,
            as_select=as_select,
            if_not_exists=if_not_exists,
        )

    def _parse_property_value(self) -> str:
        token = self._peek()
        if token.kind == "string":
            return self._advance().value
        if token.kind == "number":
            return self._advance().value
        if token.kind == "keyword" and token.value in ("true", "false"):
            return self._advance().value
        raise ParseError(
            f"expected property value, found {token.value!r}",
            token.position,
            token.line,
        )

    def _parse_column_def(self) -> ColumnDef:
        name = self._identifier()
        token = self._peek()
        if token.kind in ("ident", "keyword"):
            type_name = self._advance().value
        else:
            raise ParseError(
                f"expected column type, found {token.value!r}",
                token.position,
                token.line,
            )
        return ColumnDef(name=name, type_name=type_name)

    def _parse_insert(self) -> InsertInto:
        table = self._identifier()
        if self._accept("keyword", "values"):
            rows: list[list[Expr]] = []
            while True:
                self._expect("symbol", "(")
                row = [self._parse_expr()]
                while self._accept("symbol", ","):
                    row.append(self._parse_expr())
                self._expect("symbol", ")")
                rows.append(row)
                if not self._accept("symbol", ","):
                    break
            return InsertInto(table=table, values=rows)
        select = self._parse_select()
        return InsertInto(table=table, select=select)

    # ------------------------------------------------------------------
    # Expressions (precedence climbing)
    # ------------------------------------------------------------------
    def _parse_expr(self) -> Expr:
        return self._parse_or()

    def _parse_or(self) -> Expr:
        left = self._parse_and()
        while self._accept("keyword", "or"):
            left = BinaryOp("or", left, self._parse_and())
        return left

    def _parse_and(self) -> Expr:
        left = self._parse_not()
        while self._accept("keyword", "and"):
            left = BinaryOp("and", left, self._parse_not())
        return left

    def _parse_not(self) -> Expr:
        if self._accept("keyword", "not"):
            return UnaryOp("not", self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> Expr:
        left = self._parse_additive()
        token = self._peek()
        if token.kind == "symbol" and token.value in _COMPARISONS:
            self._advance()
            op = "<>" if token.value == "!=" else token.value
            return BinaryOp(op, left, self._parse_additive())

        negated = False
        if self._check("keyword", "not") and self._peek(1).value in (
            "between", "in", "like",
        ):
            self._advance()
            negated = True

        if self._accept("keyword", "between"):
            low = self._parse_additive()
            self._expect("keyword", "and")
            high = self._parse_additive()
            return Between(left, low, high, negated=negated)
        if self._accept("keyword", "in"):
            self._expect("symbol", "(")
            if self._check("keyword", "select"):
                query = self._parse_select()
                self._expect("symbol", ")")
                return InSubquery(left, query, negated=negated)
            options = [self._parse_expr()]
            while self._accept("symbol", ","):
                options.append(self._parse_expr())
            self._expect("symbol", ")")
            return InList(left, tuple(options), negated=negated)
        if self._accept("keyword", "like"):
            return Like(left, self._parse_additive(), negated=negated)
        if self._accept("keyword", "is"):
            is_negated = bool(self._accept("keyword", "not"))
            self._expect("keyword", "null")
            return IsNull(left, negated=is_negated)
        return left

    def _parse_additive(self) -> Expr:
        left = self._parse_multiplicative()
        while True:
            token = self._peek()
            if token.kind == "symbol" and token.value in ("+", "-"):
                self._advance()
                left = BinaryOp(token.value, left, self._parse_multiplicative())
            else:
                return left

    def _parse_multiplicative(self) -> Expr:
        left = self._parse_unary()
        while True:
            token = self._peek()
            if token.kind == "symbol" and token.value in ("*", "/", "%"):
                self._advance()
                left = BinaryOp(token.value, left, self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> Expr:
        if self._accept("symbol", "-"):
            return UnaryOp("-", self._parse_unary())
        if self._accept("symbol", "+"):
            return self._parse_unary()
        return self._parse_primary_expr()

    def _parse_primary_expr(self) -> Expr:
        token = self._peek()

        if token.kind == "number":
            self._advance()
            # An integer beyond BIGINT is a DOUBLE, as in sqlite.
            if "." in token.value or int(token.value) >= 1 << 63:
                return Literal(float(token.value))
            return Literal(int(token.value))
        if token.kind == "string":
            self._advance()
            return Literal(token.value)
        if token.kind == "keyword":
            if token.value in ("true", "false"):
                self._advance()
                return Literal(token.value == "true")
            if token.value == "null":
                self._advance()
                return Literal(None)
            if token.value in ("date", "timestamp") and self._peek(1).kind in (
                "string", "symbol",
            ):
                # DATE '2000-01-15' literal or Date('2000-01-15') call.
                if self._peek(1).kind == "string":
                    self._advance()
                    text = self._expect("string").value
                    return FunctionCall(token.value, (Literal(text),))
                if self._peek(1).matches("symbol", "("):
                    self._advance()
                    self._expect("symbol", "(")
                    inner = self._parse_expr()
                    self._expect("symbol", ")")
                    return FunctionCall(token.value, (inner,))
            if token.value == "case":
                return self._parse_case()
            if token.value == "cast":
                self._advance()
                self._expect("symbol", "(")
                operand = self._parse_expr()
                self._expect("keyword", "as")
                type_token = self._advance()
                self._expect("symbol", ")")
                return Cast(operand, type_token.value.lower())
            if token.value in _SOFT_KEYWORDS:
                return self._parse_name_or_call()
            if token.value == "if" or token.value == "distinct":
                pass  # fall through to error below
            raise ParseError(
                f"unexpected keyword {token.value!r} in expression",
                token.position,
                token.line,
            )
        if token.kind == "ident":
            return self._parse_name_or_call()
        if token.matches("symbol", "("):
            self._advance()
            expr = self._parse_expr()
            self._expect("symbol", ")")
            return expr
        if token.matches("symbol", "*"):
            self._advance()
            return Star()
        raise ParseError(
            f"unexpected token {token.value!r} in expression",
            token.position,
            token.line,
        )

    def _parse_case(self) -> Expr:
        self._expect("keyword", "case")
        operand = None
        if not self._check("keyword", "when"):
            operand = self._parse_expr()
        branches: list[tuple[Expr, Expr]] = []
        while self._accept("keyword", "when"):
            condition = self._parse_expr()
            self._expect("keyword", "then")
            value = self._parse_expr()
            branches.append((condition, value))
        otherwise = None
        if self._accept("keyword", "else"):
            otherwise = self._parse_expr()
        self._expect("keyword", "end")
        return CaseWhen(operand, tuple(branches), otherwise)

    def _parse_name_or_call(self) -> Expr:
        name = self._identifier()
        # Function call?
        if self._check("symbol", "("):
            self._advance()
            distinct = bool(self._accept("keyword", "distinct"))
            args: list[Expr] = []
            if not self._check("symbol", ")"):
                args.append(self._parse_expr())
                while self._accept("symbol", ","):
                    args.append(self._parse_expr())
            self._expect("symbol", ")")
            return FunctionCall(name.lower(), tuple(args), distinct=distinct)
        # Qualified reference: t.col or t.*
        if self._check("symbol", "."):
            self._advance()
            if self._accept("symbol", "*"):
                return Star(qualifier=name)
            column = self._identifier()
            return ColumnRef(column, qualifier=name)
        return ColumnRef(name)


def parse(text: str) -> Statement:
    """Parse one SQL statement."""
    return Parser(text).parse_statement()


def parse_expression(text: str) -> Expr:
    """Parse a standalone expression (used by tests and the UDF helpers)."""
    parser = Parser(text)
    expr = parser._parse_expr()
    parser._expect("eof")
    return expr
