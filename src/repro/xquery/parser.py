"""Recursive-descent parser for the XQuery subset of Appendix A.

Entry points: :func:`parse_query` (function declarations + main expression)
and :func:`parse_expression` (a single expression).  The grammar follows the
paper's Appendix A with pragmatic extensions that the paper's own examples
use or that cost nothing: ``<=``, ``>=``, ``!=`` comparisons, ``and``/``or``
in predicates, ``()`` empty sequences, and ``ftcontains`` for the top-level
keyword query (Figure 2).
"""

from __future__ import annotations

from repro.errors import UnsupportedQueryError, XQuerySyntaxError
from repro.xquery.ast import (
    BooleanExpr,
    Comparison,
    ContextItem,
    DocCall,
    ElementConstructor,
    EmptySequence,
    Expr,
    FLWOR,
    ForClause,
    FTContains,
    FunctionCall,
    FunctionDecl,
    IfExpr,
    LetClause,
    Literal,
    PathExpr,
    Program,
    SequenceExpr,
    Step,
    VarRef,
)
from repro.xquery.lexer import (
    EOF,
    NAME,
    NUMBER,
    STRING,
    SYMBOL,
    VARIABLE,
    Token,
    tokenize_query,
)

_KEYWORDS = {
    "for",
    "let",
    "in",
    "where",
    "return",
    "if",
    "then",
    "else",
    "declare",
    "function",
    "ftcontains",
    "and",
    "or",
}

_COMPARE_OPS = {"=", "!=", "<", "<=", ">", ">="}

#: Deepest nesting of expressions (parentheses, clauses, predicates,
#: enclosed blocks) and of element constructors the parser descends
#: into.  A level costs up to seven Python frames, so this keeps a
#: hostile query a typed error well inside the interpreter's
#: recursion limit; real views nest a handful of levels.
MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0
        self._depth = 0

    # -- token plumbing ------------------------------------------------------

    @property
    def current(self) -> Token:
        return self._tokens[self._pos]

    def peek(self, offset: int = 1) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type != EOF:
            self._pos += 1
        return token

    def error(self, message: str) -> XQuerySyntaxError:
        token = self.current
        return XQuerySyntaxError(f"{message}, found {token}", token.position)

    def expect_symbol(self, symbol: str) -> Token:
        token = self.current
        if token.type != SYMBOL or token.value != symbol:
            raise self.error(f"expected {symbol!r}")
        return self.advance()

    def expect_name(self, name: str | None = None) -> Token:
        token = self.current
        if token.type != NAME or (name is not None and token.value != name):
            raise self.error(f"expected {'name' if name is None else name!r}")
        return self.advance()

    def at_symbol(self, symbol: str) -> bool:
        return self.current.type == SYMBOL and self.current.value == symbol

    def at_name(self, name: str) -> bool:
        return self.current.type == NAME and self.current.value == name

    def accept_symbol(self, symbol: str) -> bool:
        if self.at_symbol(symbol):
            self.advance()
            return True
        return False

    def descend(self) -> None:
        """Enter one nesting level (leave with ``self._depth -= 1``)."""
        self._depth += 1
        if self._depth > MAX_NESTING:
            raise self.error(f"nesting deeper than {MAX_NESTING} levels")

    # -- program -----------------------------------------------------------

    def parse_program(self) -> Program:
        functions: list[FunctionDecl] = []
        while self.at_name("declare"):
            functions.append(self._function_decl())
            self.accept_symbol(";")
        body = self.parse_expr()
        if self.current.type != EOF:
            raise self.error("unexpected input after the query")
        return Program(tuple(functions), body)

    def _function_decl(self) -> FunctionDecl:
        self.expect_name("declare")
        self.expect_name("function")
        name = self.expect_name().value
        self.expect_symbol("(")
        params: list[str] = []
        if not self.at_symbol(")"):
            while True:
                token = self.current
                if token.type != VARIABLE:
                    raise self.error("expected parameter variable")
                params.append(self.advance().value)
                if not self.accept_symbol(","):
                    break
        self.expect_symbol(")")
        self.expect_symbol("{")
        body = self.parse_sequence_expr()
        self.expect_symbol("}")
        return FunctionDecl(name, tuple(params), body)

    # -- expressions (precedence: sequence > or > and > ftcontains/compare) --

    def parse_sequence_expr(self) -> Expr:
        """Comma-separated sequence (used inside ``()``, ``{}``, bodies)."""
        first = self.parse_expr()
        if not self.at_symbol(","):
            return first
        items = [first]
        while self.accept_symbol(","):
            items.append(self.parse_expr())
        return SequenceExpr(tuple(items))

    def parse_expr(self) -> Expr:
        self.descend()
        expr = self._or_expr()
        self._depth -= 1
        return expr

    def _or_expr(self) -> Expr:
        left = self._and_expr()
        if not self.at_name("or"):
            return left
        operands = [left]
        while self.at_name("or"):
            self.advance()
            operands.append(self._and_expr())
        return BooleanExpr("or", tuple(operands))

    def _and_expr(self) -> Expr:
        left = self._comparison_expr()
        if not self.at_name("and"):
            return left
        operands = [left]
        while self.at_name("and"):
            self.advance()
            operands.append(self._comparison_expr())
        return BooleanExpr("and", tuple(operands))

    def _comparison_expr(self) -> Expr:
        left = self._postfix_expr()
        if self.at_name("ftcontains"):
            self.advance()
            return self._ftcontains_tail(left)
        token = self.current
        if token.type == SYMBOL and token.value in _COMPARE_OPS:
            op = self.advance().value
            right = self._postfix_expr()
            return Comparison(left, op, right)
        return left

    def _ftcontains_tail(self, operand: Expr) -> FTContains:
        self.expect_symbol("(")
        keywords = [self._keyword_literal()]
        conjunctive = True
        if self.at_symbol("&") or self.at_symbol("|"):
            conjunctive = self.current.value == "&"
            joiner = self.current.value
            while self.accept_symbol(joiner):
                keywords.append(self._keyword_literal())
            if self.at_symbol("&") or self.at_symbol("|"):
                raise self.error("cannot mix '&' and '|' inside ftcontains")
        self.expect_symbol(")")
        return FTContains(operand, tuple(keywords), conjunctive)

    def _keyword_literal(self) -> str:
        token = self.current
        if token.type != STRING:
            raise self.error("expected a quoted keyword")
        return self.advance().value

    # -- paths ----------------------------------------------------------------

    def _postfix_expr(self) -> Expr:
        expr = self._primary_expr()
        while True:
            if self.at_symbol("/") or self.at_symbol("//"):
                steps = self._steps()
                expr = PathExpr(expr, steps)
            elif self.at_symbol("["):
                self.advance()
                predicate = self.parse_expr()
                self.expect_symbol("]")
                if isinstance(expr, PathExpr):
                    expr = PathExpr(
                        expr.source, expr.steps, expr.predicates + (predicate,)
                    )
                else:
                    expr = PathExpr(expr, (), (predicate,))
            else:
                return expr

    def _steps(self) -> tuple[Step, ...]:
        steps: list[Step] = []
        while self.at_symbol("/") or self.at_symbol("//"):
            axis = self.advance().value
            tag = self.expect_name().value
            steps.append(Step(axis, tag))
        return tuple(steps)

    # -- primaries -----------------------------------------------------------

    def _primary_expr(self) -> Expr:
        token = self.current
        if token.type == VARIABLE:
            self.advance()
            return VarRef(token.value)
        if token.type == STRING:
            self.advance()
            return Literal(token.value, is_number=False)
        if token.type == NUMBER:
            self.advance()
            return Literal(token.value, is_number=True)
        if token.type == SYMBOL:
            if token.value == ".":
                self.advance()
                return ContextItem()
            if token.value == "(":
                self.advance()
                if self.accept_symbol(")"):
                    return EmptySequence()
                inner = self.parse_sequence_expr()
                self.expect_symbol(")")
                return inner
            if token.value == "<":
                return self._element_constructor()
        if token.type == NAME:
            if token.value in ("for", "let"):
                return self._flwor()
            if token.value == "if":
                return self._if_expr()
            if token.value in ("fn:doc", "doc", "fn:collection"):
                return self._doc_call()
            if token.value not in _KEYWORDS and self.peek().type == SYMBOL and (
                self.peek().value == "("
            ):
                return self._function_call()
            if token.value not in _KEYWORDS:
                # A bare tag name is a relative path from the context item
                # ('[year > 1995]' abbreviates '[./year > 1995]').
                self.advance()
                return PathExpr(ContextItem(), (Step("/", token.value),))
        raise self.error("expected an expression")

    def _doc_call(self) -> DocCall:
        name_token = self.advance()
        if name_token.value == "fn:collection":
            raise UnsupportedQueryError(
                "fn:collection is not supported; use fn:doc", name_token.position
            )
        self.expect_symbol("(")
        token = self.current
        if token.type not in (STRING, NAME):
            raise self.error("expected a document name")
        self.advance()
        self.expect_symbol(")")
        return DocCall(token.value)

    def _function_call(self) -> FunctionCall:
        name = self.expect_name().value
        self.expect_symbol("(")
        args: list[Expr] = []
        if not self.at_symbol(")"):
            while True:
                args.append(self.parse_expr())
                if not self.accept_symbol(","):
                    break
        self.expect_symbol(")")
        return FunctionCall(name, tuple(args))

    def _flwor(self) -> FLWOR:
        clauses: list[ForClause | LetClause] = []
        while self.at_name("for") or self.at_name("let"):
            kind = self.advance().value
            while True:
                token = self.current
                if token.type != VARIABLE:
                    raise self.error("expected a variable binding")
                var = self.advance().value
                if kind == "for":
                    self.expect_name("in")
                    clauses.append(ForClause(var, self.parse_expr()))
                else:
                    self.expect_symbol(":=")
                    clauses.append(LetClause(var, self.parse_expr()))
                if not self.accept_symbol(","):
                    break
        if not clauses:
            raise self.error("expected 'for' or 'let'")
        where = None
        if self.at_name("where"):
            self.advance()
            where = self.parse_expr()
        self.expect_name("return")
        ret = self.parse_expr()
        return FLWOR(tuple(clauses), where, ret)

    def _if_expr(self) -> IfExpr:
        self.expect_name("if")
        self.expect_symbol("(")
        condition = self.parse_sequence_expr()
        self.expect_symbol(")")
        self.expect_name("then")
        then_branch = self.parse_expr()
        self.expect_name("else")
        else_branch = self.parse_expr()
        return IfExpr(condition, then_branch, else_branch)

    def _element_constructor(self) -> ElementConstructor:
        self.expect_symbol("<")
        tag = self.expect_name().value
        if self.accept_symbol("/>"):
            return ElementConstructor(tag, ())
        self.expect_symbol(">")
        self.descend()
        content: list[Expr] = []
        while True:
            if self.at_symbol("{"):
                self.advance()
                content.append(self.parse_sequence_expr())
                self.expect_symbol("}")
            elif self.at_symbol("<") and self.peek().type == NAME:
                content.append(self._element_constructor())
            elif self.at_symbol("</"):
                self.advance()
                closing = self.expect_name().value
                if closing != tag:
                    raise self.error(
                        f"mismatched constructor close </{closing}> for <{tag}>"
                    )
                self.expect_symbol(">")
                self._depth -= 1
                return ElementConstructor(tag, tuple(content))
            elif self.accept_symbol(","):
                # Tolerate commas between enclosed blocks, as in the paper's
                # Figure 2 ("<book>…</book>, {for …}").
                continue
            else:
                raise self.error("expected '{', a nested element, or a closing tag")


def parse_query(text: str) -> Program:
    """Parse a complete query (declarations + body)."""
    return _Parser(tokenize_query(text)).parse_program()


def parse_expression(text: str) -> Expr:
    """Parse a single expression (no function declarations)."""
    parser = _Parser(tokenize_query(text))
    expr = parser.parse_sequence_expr()
    if parser.current.type != EOF:
        raise parser.error("unexpected input after the expression")
    return expr
