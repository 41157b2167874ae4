"""Abstract syntax tree for the supported XQuery subset (Appendix A).

Every node is an immutable dataclass.  ``children()`` exposes sub-expressions
generically so analyses (QPT generation, variable collection, function
inlining) can walk the tree without per-node code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Union


class Expr:
    """Base class for expressions."""

    def children(self) -> Iterator["Expr"]:
        return iter(())

    def walk(self) -> Iterator["Expr"]:
        """Pre-order traversal of this expression tree."""
        yield self
        for child in self.children():
            yield from child.walk()


@dataclass(frozen=True)
class Literal(Expr):
    """A string or numeric literal; ``value`` keeps the source lexeme."""

    value: str
    is_number: bool = False

    def __str__(self) -> str:
        return self.value if self.is_number else f"'{self.value}'"


@dataclass(frozen=True)
class VarRef(Expr):
    """A variable reference ``$name``."""

    name: str

    def __str__(self) -> str:
        return f"${self.name}"


@dataclass(frozen=True)
class ContextItem(Expr):
    """The context item ``.``."""

    def __str__(self) -> str:
        return "."


@dataclass(frozen=True)
class DocCall(Expr):
    """``fn:doc(name)`` — the root of a stored document."""

    name: str

    def __str__(self) -> str:
        return f"fn:doc({self.name})"


@dataclass(frozen=True)
class Step:
    """One path step: axis ``/`` or ``//`` plus a tag name."""

    axis: str
    tag: str

    def __post_init__(self):
        if self.axis not in ("/", "//"):
            raise ValueError(f"invalid axis: {self.axis!r}")

    def __str__(self) -> str:
        return f"{self.axis}{self.tag}"


@dataclass(frozen=True)
class PathExpr(Expr):
    """``source step… [predicate]…``.

    ``source`` is a doc call, variable, context item, or a nested path;
    ``predicates`` apply to the result of the steps (XPath filter
    semantics: keep nodes for which the predicate holds).
    """

    source: Expr
    steps: tuple[Step, ...] = ()
    predicates: tuple[Expr, ...] = ()

    def children(self) -> Iterator[Expr]:
        yield self.source
        yield from self.predicates

    def __str__(self) -> str:
        preds = "".join(f"[{p}]" for p in self.predicates)
        return f"{self.source}{''.join(map(str, self.steps))}{preds}"


@dataclass(frozen=True)
class Comparison(Expr):
    """``left op right`` with general-comparison (existential) semantics."""

    left: Expr
    op: str
    right: Expr

    def children(self) -> Iterator[Expr]:
        yield self.left
        yield self.right

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class BooleanExpr(Expr):
    """``and`` / ``or`` of predicate expressions (extension)."""

    op: str  # 'and' | 'or'
    operands: tuple[Expr, ...]

    def children(self) -> Iterator[Expr]:
        yield from self.operands

    def __str__(self) -> str:
        return f" {self.op} ".join(f"({operand})" for operand in self.operands)


@dataclass(frozen=True)
class ForClause:
    var: str
    expr: Expr

    def __str__(self) -> str:
        return f"for ${self.var} in {self.expr}"


@dataclass(frozen=True)
class LetClause:
    var: str
    expr: Expr

    def __str__(self) -> str:
        return f"let ${self.var} := {self.expr}"


@dataclass(frozen=True)
class FLWOR(Expr):
    """``(for|let)+ where? return`` (no order-by in the subset)."""

    clauses: tuple[Union[ForClause, LetClause], ...]
    where: Optional[Expr]
    ret: Expr

    def children(self) -> Iterator[Expr]:
        for clause in self.clauses:
            yield clause.expr
        if self.where is not None:
            yield self.where
        yield self.ret

    def __str__(self) -> str:
        clauses = " ".join(str(clause) for clause in self.clauses)
        where = f" where {self.where}" if self.where is not None else ""
        return f"{clauses}{where} return {self.ret}"


@dataclass(frozen=True)
class IfExpr(Expr):
    condition: Expr
    then_branch: Expr
    else_branch: Expr

    def children(self) -> Iterator[Expr]:
        yield self.condition
        yield self.then_branch
        yield self.else_branch

    def __str__(self) -> str:
        return f"if ({self.condition}) then {self.then_branch} else {self.else_branch}"


@dataclass(frozen=True)
class ElementConstructor(Expr):
    """``<tag>{expr}…</tag>`` — constructs a new element.

    ``content`` items are expressions (enclosed ``{…}`` blocks, nested
    constructors, or text literals).
    """

    tag: str
    content: tuple[Expr, ...] = ()

    def children(self) -> Iterator[Expr]:
        yield from self.content

    def __str__(self) -> str:
        inner = "".join(
            str(c) if isinstance(c, (ElementConstructor, TextLiteral)) else f"{{{c}}}"
            for c in self.content
        )
        return f"<{self.tag}>{inner}</{self.tag}>"


@dataclass(frozen=True)
class TextLiteral(Expr):
    """Literal text inside an element constructor."""

    text: str

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True)
class SequenceExpr(Expr):
    """``expr, expr`` — sequence concatenation."""

    items: tuple[Expr, ...]

    def children(self) -> Iterator[Expr]:
        yield from self.items

    def __str__(self) -> str:
        return ", ".join(str(item) for item in self.items)


@dataclass(frozen=True)
class EmptySequence(Expr):
    """``()``."""

    def __str__(self) -> str:
        return "()"


@dataclass(frozen=True)
class FunctionCall(Expr):
    name: str
    args: tuple[Expr, ...] = ()

    def children(self) -> Iterator[Expr]:
        yield from self.args

    def __str__(self) -> str:
        return f"{self.name}({', '.join(map(str, self.args))})"


@dataclass(frozen=True)
class FTContains(Expr):
    """``expr ftcontains('kw' & 'kw' …)`` (``&`` conjunctive, ``|`` disjunctive)."""

    expr: Expr
    keywords: tuple[str, ...]
    conjunctive: bool = True

    def children(self) -> Iterator[Expr]:
        yield self.expr

    def __str__(self) -> str:
        joiner = " & " if self.conjunctive else " | "
        inner = joiner.join(f"'{kw}'" for kw in self.keywords)
        return f"{self.expr} ftcontains({inner})"


@dataclass(frozen=True)
class FunctionDecl:
    """``declare function name($p, …) { body }`` (non-recursive)."""

    name: str
    params: tuple[str, ...]
    body: Expr

    def __str__(self) -> str:
        params = ", ".join(f"${p}" for p in self.params)
        return f"declare function {self.name}({params}) {{ {self.body} }}"


@dataclass(frozen=True)
class Program:
    """A parsed query: function declarations plus the main expression."""

    functions: tuple[FunctionDecl, ...]
    body: Expr

    def function_map(self) -> dict[str, FunctionDecl]:
        return {decl.name: decl for decl in self.functions}

    def __str__(self) -> str:
        decls = "".join(f"{decl};\n" for decl in self.functions)
        return f"{decls}{self.body}"


def sequence_items(expr: Expr) -> tuple[Expr, ...]:
    """The top-level items of a sequence; any other expression is its
    own one item."""
    return expr.items if isinstance(expr, SequenceExpr) else (expr,)


def referenced_documents(expr: Expr) -> list[str]:
    """Names of all documents referenced via ``fn:doc`` (in first-use order)."""
    seen: list[str] = []
    for node in expr.walk():
        if isinstance(node, DocCall) and node.name not in seen:
            seen.append(node.name)
    return seen


def free_variables(expr: Expr) -> set[str]:
    """Variables used but not bound within ``expr``."""
    free: set[str] = set()
    _collect_free(expr, frozenset(), free)
    return free


def _collect_free(expr: Expr, bound: frozenset, free: set[str]) -> None:
    if isinstance(expr, VarRef):
        if expr.name not in bound:
            free.add(expr.name)
        return
    if isinstance(expr, FLWOR):
        inner = bound
        for clause in expr.clauses:
            _collect_free(clause.expr, inner, free)
            inner = inner | {clause.var}
        if expr.where is not None:
            _collect_free(expr.where, inner, free)
        _collect_free(expr.ret, inner, free)
        return
    for child in expr.children():
        _collect_free(child, bound, free)
