"""Environment-based evaluator for the XQuery subset.

One evaluator serves both execution paths of the paper's architecture
(Figure 3): the Baseline evaluates views over base documents, and the
Efficient pipeline evaluates the *same* query over PDTs — the paper's
"requires no changes to the XML query evaluator" property.  The only
difference between the two runs is the document resolver, which maps
``fn:doc`` names to root elements (this realizes the QPT module's query
rewrite: the rewritten query "goes over PDTs instead of the base data").

The one plan the evaluator makes is internal to it: a ``for`` clause whose
``where`` holds an ``=`` join conjunct is driven from a hash table over the
clause's sequence instead of looping over all of it (see
:meth:`Evaluator._plan_join` for the rule and when it is refused).  The
loop body, the full ``where`` included, is unchanged — only items whose
conjunct is false are left out — so results are those of the nested loop,
and nothing about it shows at the interface: no flag, no second evaluator,
the resolver rewrite untouched.

Element constructors attach existing nodes *by reference* (no deep copy):
view results keep the identity of the base/PDT elements they contain, which
is what lets the scoring module aggregate per-element tf values and byte
lengths, and the materialization module expand pruned elements later.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

from repro.errors import ReproError, XQueryEvalError
from repro.values import compare_atoms, join_key
from repro.xmlmodel.node import XMLNode
from repro.xmlmodel.tokenizer import normalize_keyword, token_frequencies
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
    TextLiteral,
    VarRef,
    free_variables,
)

# A query item is an element node or an atomic string value.
Item = Union[XMLNode, str]
ItemSequence = list


@dataclass
class EvalContext:
    """Everything an evaluation needs besides the expression itself."""

    resolver: Callable[[str], XMLNode]
    functions: dict[str, FunctionDecl] = field(default_factory=dict)
    variables: dict[str, ItemSequence] = field(default_factory=dict)


class Evaluator:
    """Evaluates expressions of the supported subset."""

    def __init__(self, context: EvalContext):
        self._context = context
        self._call_stack: list[str] = []
        # (id(FLWOR), clause index) -> (the FLWOR, pinning its id; its
        # join plan or None).  Lives for one ``evaluate`` call.
        self._join_plans: dict[tuple[int, int], tuple] = {}

    @classmethod
    def for_program(
        cls, program: Program, resolver: Callable[[str], XMLNode]
    ) -> "Evaluator":
        return cls(EvalContext(resolver=resolver, functions=program.function_map()))

    def evaluate(self, expr: Expr, env: Optional[dict] = None) -> ItemSequence:
        """Evaluate ``expr`` under ``env`` and return the item sequence."""
        scope = dict(self._context.variables)
        if env:
            scope.update(env)
        self._join_plans.clear()
        return self._eval(expr, scope)

    # -- dispatch ------------------------------------------------------------

    def _eval(self, expr: Expr, env: dict) -> ItemSequence:
        method = self._DISPATCH.get(type(expr))
        if method is None:
            raise XQueryEvalError(f"cannot evaluate {type(expr).__name__}")
        return method(self, expr, env)

    def _eval_literal(self, expr: Literal, env: dict) -> ItemSequence:
        return [expr.value]

    def _eval_text_literal(self, expr: TextLiteral, env: dict) -> ItemSequence:
        return [expr.text]

    def _eval_var(self, expr: VarRef, env: dict) -> ItemSequence:
        try:
            return env[expr.name]
        except KeyError:
            raise XQueryEvalError(f"unbound variable ${expr.name}") from None

    def _eval_context_item(self, expr: ContextItem, env: dict) -> ItemSequence:
        try:
            return env["."]
        except KeyError:
            raise XQueryEvalError("no context item is bound") from None

    def _eval_doc(self, expr: DocCall, env: dict) -> ItemSequence:
        # fn:doc returns the *document node*, whose single child is the root
        # element, so that '/books' addresses the root element itself.  The
        # wrapper shares the root by reference (children.append bypasses the
        # parent pointer on purpose — the root stays owned by its document).
        root = self._context.resolver(expr.name)
        wrapper = XMLNode("#document")
        wrapper.children.append(root)
        return [wrapper]

    def _eval_empty(self, expr: EmptySequence, env: dict) -> ItemSequence:
        return []

    def _eval_sequence(self, expr: SequenceExpr, env: dict) -> ItemSequence:
        result: ItemSequence = []
        for item in expr.items:
            result.extend(self._eval(item, env))
        return result

    # -- paths ----------------------------------------------------------------

    def _eval_path(self, expr: PathExpr, env: dict) -> ItemSequence:
        current = self._eval(expr.source, env)
        for step in expr.steps:
            next_nodes: list[XMLNode] = []
            seen: set[int] = set()
            for item in current:
                if not isinstance(item, XMLNode):
                    raise XQueryEvalError(
                        f"path step {step} applied to an atomic value"
                    )
                if step.axis == "/":
                    candidates = (
                        child for child in item.children if child.tag == step.tag
                    )
                else:
                    candidates = (
                        node for node in item.descendants() if node.tag == step.tag
                    )
                for node in candidates:
                    marker = id(node)
                    if marker not in seen:
                        seen.add(marker)
                        next_nodes.append(node)
            current = next_nodes
        for predicate in expr.predicates:
            current = [
                item
                for item in current
                if self._effective_boolean(
                    self._eval(predicate, {**env, ".": [item]})
                )
            ]
        return current

    # -- predicates -------------------------------------------------------------

    def _eval_comparison(self, expr: Comparison, env: dict) -> ItemSequence:
        left = self._atomize(self._eval(expr.left, env))
        right = self._atomize(self._eval(expr.right, env))
        result = any(
            compare_atoms(expr.op, lhs, rhs) for lhs in left for rhs in right
        )
        return [result]

    def _eval_boolean(self, expr: BooleanExpr, env: dict) -> ItemSequence:
        if expr.op == "and":
            return [
                all(
                    self._effective_boolean(self._eval(op, env))
                    for op in expr.operands
                )
            ]
        return [
            any(self._effective_boolean(self._eval(op, env)) for op in expr.operands)
        ]

    def _eval_ftcontains(self, expr: FTContains, env: dict) -> ItemSequence:
        items = self._eval(expr.expr, env)
        keywords = [normalize_keyword(kw) for kw in expr.keywords]
        found = {kw: False for kw in keywords}
        for item in items:
            text = item.subtree_text() if isinstance(item, XMLNode) else str(item)
            frequencies = token_frequencies(text)
            for kw in keywords:
                if frequencies.get(kw):
                    found[kw] = True
        if expr.conjunctive:
            return [all(found.values())]
        return [any(found.values())]

    # -- control --------------------------------------------------------------

    def _eval_if(self, expr: IfExpr, env: dict) -> ItemSequence:
        if self._effective_boolean(self._eval(expr.condition, env)):
            return self._eval(expr.then_branch, env)
        return self._eval(expr.else_branch, env)

    def _eval_flwor(self, expr: FLWOR, env: dict) -> ItemSequence:
        return self._eval_clauses(expr, 0, env)

    def _eval_clauses(self, expr: FLWOR, index: int, env: dict) -> ItemSequence:
        if index == len(expr.clauses):
            if expr.where is not None and not self._effective_boolean(
                self._eval(expr.where, env)
            ):
                return []
            return self._eval(expr.ret, env)
        clause = expr.clauses[index]
        if isinstance(clause, LetClause):
            bound = dict(env)
            bound[clause.var] = self._eval(clause.expr, env)
            return self._eval_clauses(expr, index + 1, bound)
        assert isinstance(clause, ForClause)
        items = self._join_candidates(expr, index, env)
        if items is None:
            items = self._eval(clause.expr, env)
        result: ItemSequence = []
        for item in items:
            bound = dict(env)
            bound[clause.var] = [item]
            result.extend(self._eval_clauses(expr, index + 1, bound))
        return result

    # -- the join plan -----------------------------------------------------------

    def _join_candidates(
        self, expr: FLWOR, index: int, env: dict
    ) -> Optional[ItemSequence]:
        """The items of ``for`` clause ``index`` that can pass the
        ``where``'s join conjunct under ``env``, in sequence order —
        or ``None`` when the clause has no plan and must loop over its
        whole sequence.  The caller runs its unchanged loop body, full
        ``where`` included, over what is returned: an item left out is
        exactly one whose conjunct is false, so order, duplicates and
        general-comparison semantics are those of the nested loop."""
        entry = self._join_plans.get((id(expr), index))
        if entry is None:
            entry = self._join_plans[(id(expr), index)] = (
                expr, self._plan_join(expr, index)
            )
        plan = entry[1]
        if plan is None:
            return None
        probe, items, table = plan
        if not items:
            return items  # and the loop would never have reached its ``where``
        try:
            atoms = self._atomize(self._eval(probe, env))
        except ReproError:
            return None  # the loop's own ``where`` raises it in place
        positions: set[int] = set()
        for atom in atoms:
            positions.update(table.get(join_key(atom), ()))
        return [items[position] for position in sorted(positions)]

    def _plan_join(self, expr: FLWOR, index: int) -> Optional[tuple]:
        """``(probe side, the clause's items, join_key -> positions)``
        when ``for $v in E`` can be driven by a hash table, else ``None``.

        The rule: the ``where`` is — or is an ``and`` with a direct
        operand that is — an ``=`` whose one side (the build side) has
        exactly ``{$v}`` free and whose other side (the probe side) is
        free of ``$v`` and of every later clause's variable; ``E`` has no
        free variable; and neither ``E`` nor the build side holds a
        context item or a function call — so both depend on the resolver
        alone and the table is good for the whole ``evaluate`` call.
        ``join_key`` equality is ``compare_atoms("=")`` (NaN, equal to
        nothing, is left out).  A table that fails to build is no plan:
        the plain loop then raises whatever it raised, where it did.
        """
        clause, where = expr.clauses[index], expr.where
        later = {other.var for other in expr.clauses[index + 1 :]}
        if (
            where is None
            or clause.var in later
            or free_variables(clause.expr)
            or not _resolver_only(clause.expr)
        ):
            return None
        if isinstance(where, BooleanExpr) and where.op == "and":
            conjuncts = where.operands
        else:
            conjuncts = (where,)
        for conjunct in conjuncts:
            if not isinstance(conjunct, Comparison) or conjunct.op != "=":
                continue
            for build, probe in (
                (conjunct.left, conjunct.right),
                (conjunct.right, conjunct.left),
            ):
                if (
                    free_variables(build) != {clause.var}
                    or not _resolver_only(build)
                    or free_variables(probe) & (later | {clause.var})
                ):
                    continue
                try:
                    items = self._eval(clause.expr, {})
                    table: dict = {}
                    for position, item in enumerate(items):
                        bound = {clause.var: [item]}
                        for atom in self._atomize(self._eval(build, bound)):
                            key = join_key(atom)
                            if key[1] == key[1]:  # false for NaN only
                                table.setdefault(key, []).append(position)
                except ReproError:
                    return None
                return probe, items, table
        return None

    # -- construction ------------------------------------------------------------

    def _eval_constructor(self, expr: ElementConstructor, env: dict) -> ItemSequence:
        element = XMLNode(expr.tag)
        text_parts: list[str] = []
        for content in expr.content:
            for item in self._eval(content, env):
                if isinstance(item, XMLNode):
                    # Reference, not copy: deferred materialization relies on
                    # result trees pointing at the base/PDT elements.
                    element.children.append(item)
                elif isinstance(item, bool):
                    text_parts.append("true" if item else "false")
                else:
                    text_parts.append(str(item))
        if text_parts:
            element.text = " ".join(text_parts)
        return [element]

    # -- functions ---------------------------------------------------------------

    def _eval_call(self, expr: FunctionCall, env: dict) -> ItemSequence:
        decl = self._context.functions.get(expr.name)
        if decl is None:
            raise XQueryEvalError(f"undeclared function: {expr.name}")
        if expr.name in self._call_stack:
            raise XQueryEvalError(
                f"recursive call to {expr.name} (only non-recursive functions "
                "are supported)"
            )
        if len(expr.args) != len(decl.params):
            raise XQueryEvalError(
                f"{expr.name} expects {len(decl.params)} arguments, "
                f"got {len(expr.args)}"
            )
        bound = dict(env)
        for param, arg in zip(decl.params, expr.args):
            bound[param] = self._eval(arg, env)
        self._call_stack.append(expr.name)
        try:
            return self._eval(decl.body, bound)
        finally:
            self._call_stack.pop()

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def _atomize(items: ItemSequence) -> list[Optional[str]]:
        atoms: list[Optional[str]] = []
        for item in items:
            if isinstance(item, XMLNode):
                atoms.append(item.value)
            elif isinstance(item, bool):
                atoms.append("true" if item else "false")
            else:
                atoms.append(str(item))
        return [atom for atom in atoms if atom is not None]

    @staticmethod
    def _effective_boolean(items: ItemSequence) -> bool:
        if not items:
            return False
        first = items[0]
        if len(items) == 1:
            if isinstance(first, bool):
                return first
            if isinstance(first, str):
                return bool(first)
        return True

    _DISPATCH = {
        Literal: _eval_literal,
        TextLiteral: _eval_text_literal,
        VarRef: _eval_var,
        ContextItem: _eval_context_item,
        DocCall: _eval_doc,
        EmptySequence: _eval_empty,
        SequenceExpr: _eval_sequence,
        PathExpr: _eval_path,
        Comparison: _eval_comparison,
        BooleanExpr: _eval_boolean,
        FTContains: _eval_ftcontains,
        IfExpr: _eval_if,
        FLWOR: _eval_flwor,
        ElementConstructor: _eval_constructor,
        FunctionCall: _eval_call,
    }


def _resolver_only(expr: Expr) -> bool:
    """No context item and no function call anywhere inside ``expr``:
    with its free variables bound, its value depends on the resolver
    alone."""
    return not any(
        isinstance(node, (ContextItem, FunctionCall)) for node in expr.walk()
    )


def evaluate_program(
    program: Program,
    resolver: Callable[[str], XMLNode],
    variables: Optional[dict[str, Sequence[Item]]] = None,
) -> ItemSequence:
    """Convenience wrapper: evaluate a parsed program against documents."""
    context = EvalContext(resolver=resolver, functions=program.function_map())
    if variables:
        context.variables = {name: list(seq) for name, seq in variables.items()}
    return Evaluator(context).evaluate(program.body)
