"""Query Pattern Trees and their generation from view definitions.

The QPT (paper Section 3.3) generalizes the GTP with two node annotations —
``v`` (value required during evaluation: join keys, predicate operands) and
``c`` (content propagated to the view output) — plus optional/mandatory
edges and ``/`` vs ``//`` axes.  :func:`generate_qpts` implements the
Appendix B algorithm: a recursive walk of the (function-free) view AST that
builds QPT *fragments* rooted at documents or variables and grafts
variable-rooted fragments onto the binding path's leaf when the binding
for/let clause is processed, converting edges that originate in return
clauses to optional and keeping where-clause edges mandatory.

The edge-annotation rules matter for correctness, not just pruning power:

* a path used in a FLWOR's own where clause is *mandatory* — an element
  failing it contributes nothing to the view, so pruning is safe;
* a path referenced inside a *constructor or sequence* in the return clause
  is *optional* — the element still appears in the view (with empty
  content) when the path is missing, so pruning would change the view;
* a bare FLWOR as a return expression stays mandatory: an element whose
  join fails contributes an empty sequence, i.e. nothing.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Optional

from repro.errors import UnsupportedQueryError, ViewDefinitionError
from repro.values import Predicate
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
    IfExpr,
    LetClause,
    Literal,
    PathExpr,
    SequenceExpr,
    TextLiteral,
    VarRef,
)

DOC_ROOT_TAG = "#doc"


class QPTNode:
    """One node of a QPT: tag, predicates and the v/c annotations."""

    __slots__ = ("tag", "predicates", "v_ann", "c_ann", "edges", "parent_edge", "index")

    def __init__(
        self,
        tag: str,
        predicates: Iterable[Predicate] = (),
        v_ann: bool = False,
        c_ann: bool = False,
    ):
        self.tag = tag
        self.predicates: list[Predicate] = list(predicates)
        self.v_ann = v_ann
        self.c_ann = c_ann
        self.edges: list[QPTEdge] = []
        self.parent_edge: Optional[QPTEdge] = None
        self.index = -1

    def add_child(self, child: "QPTNode", axis: str, mandatory: bool) -> "QPTEdge":
        edge = QPTEdge(self, child, axis, mandatory)
        self.edges.append(edge)
        child.parent_edge = edge
        return edge

    @property
    def children(self) -> list["QPTNode"]:
        return [edge.child for edge in self.edges]

    @property
    def parent(self) -> Optional["QPTNode"]:
        return self.parent_edge.parent if self.parent_edge is not None else None

    def mandatory_child_edges(self) -> list["QPTEdge"]:
        return [edge for edge in self.edges if edge.mandatory]

    def is_root_only(self) -> bool:
        return not self.edges

    def __repr__(self) -> str:
        anns = ("v" if self.v_ann else "") + ("c" if self.c_ann else "")
        preds = f" preds={self.predicates}" if self.predicates else ""
        return f"<QPTNode {self.tag}{' ' + anns if anns else ''}{preds}>"


class QPTEdge:
    """An edge: ``/`` or ``//`` axis, optional ('o') or mandatory ('m')."""

    __slots__ = ("parent", "child", "axis", "mandatory")

    def __init__(self, parent: QPTNode, child: QPTNode, axis: str, mandatory: bool):
        if axis not in ("/", "//"):
            raise ValueError(f"invalid axis {axis!r}")
        self.parent = parent
        self.child = child
        self.axis = axis
        self.mandatory = mandatory

    @property
    def annotation(self) -> str:
        return "m" if self.mandatory else "o"

    def __repr__(self) -> str:
        return (
            f"<QPTEdge {self.parent.tag} {self.axis}{self.child.tag}"
            f" {self.annotation}>"
        )


class QPT:
    """A finalized Query Pattern Tree for one document.

    ``root`` is the synthetic document node (``#doc``); its children are the
    first real pattern steps.  ``nodes`` lists the real nodes in pre-order;
    each node's ``index`` is its position in that list.
    """

    def __init__(self, doc_name: str, root: QPTNode):
        self.doc_name = doc_name
        self.root = root
        self.nodes: list[QPTNode] = []
        self._collect(root)
        self._patterns: dict[int, tuple[tuple[str, str], ...]] = {}
        self._match_cache: dict[tuple[str, ...], list[list[QPTNode]]] = {}
        # Per data path, the PDT sweep's (depth, indexes of nodes outside
        # the probe plan); every build probes that same plan.
        self._prefix_plans: dict[tuple[str, ...], list] = {}
        self._content_hash: Optional[str] = None

    def _collect(self, root: QPTNode) -> None:
        stack = list(reversed(root.children))
        while stack:
            node = stack.pop()
            node.index = len(self.nodes)
            self.nodes.append(node)
            stack.extend(reversed(node.children))

    def pattern(self, node: QPTNode) -> tuple[tuple[str, str], ...]:
        """Root-to-node path pattern: ((axis, tag), …) — PathFromRoot(n)."""
        cached = self._patterns.get(node.index)
        if cached is not None:
            return cached
        steps: list[tuple[str, str]] = []
        current: Optional[QPTNode] = node
        while current is not None and current.parent_edge is not None:
            steps.append((current.parent_edge.axis, current.tag))
            current = current.parent_edge.parent
        steps.reverse()
        pattern = tuple(steps)
        self._patterns[node.index] = pattern
        return pattern

    @property
    def content_hash(self) -> str:
        """A process-independent digest of the QPT's *content*.

        Covers everything PDT construction depends on: the document
        name, every node's tag, predicates (operator + literal) and
        v/c annotations, and every edge's axis and optional/mandatory
        flag, all in the deterministic pre-order the tree was built in.
        Two QPTs generated from the same view text — in the same process
        or different ones — hash equal; any structural or annotation
        change alters the digest.

        This is what cross-process cache keys use in place of QPT object
        identity: the sharded tiers key on ``(generation, content_hash)``
        and the persistent skeleton store on
        ``(document fingerprint, content_hash)``.  SHA-256, hex —
        independent of ``PYTHONHASHSEED``.
        """
        digest = self._content_hash
        if digest is None:
            hasher = hashlib.sha256()
            update = hasher.update
            update(self.doc_name.encode("utf-8"))

            def _walk(node: QPTNode) -> None:
                for edge in node.edges:
                    child = edge.child
                    parts = [
                        "\x1e",
                        edge.axis,
                        "m" if edge.mandatory else "o",
                        child.tag,
                        "v" if child.v_ann else "",
                        "c" if child.c_ann else "",
                    ]
                    for predicate in child.predicates:
                        parts.append(
                            f"[{predicate.op}\x1f{predicate.literal!r}]"
                        )
                    parts.append("(")
                    update("\x1f".join(parts).encode("utf-8"))
                    _walk(child)
                    update(b")")

            _walk(self.root)
            digest = hasher.hexdigest()
            self._content_hash = digest
        return digest

    def probed_nodes(self) -> list[QPTNode]:
        """Nodes that PrepareLists issues path-index probes for.

        Fig. 7 probes nodes without mandatory child edges (this includes all
        leaves) plus 'v' nodes; we also probe 'c' nodes and predicate nodes
        because the PDT must carry their byte lengths / filtered values
        (see DESIGN.md, faithfulness notes).
        """
        return [
            node
            for node in self.nodes
            if not node.mandatory_child_edges()
            or node.v_ann
            or node.c_ann
            or node.predicates
        ]

    def match_table(self, data_path: tuple[str, ...]) -> list[list[QPTNode]]:
        """For each depth d (1-based), the QPT nodes the prefix of length
        d of ``data_path`` matches.

        A node matches depth d when its tag equals the element tag at d and
        its parent matches at d-1 (axis ``/``) or at any shallower depth
        (axis ``//``); first-level nodes anchor at the document node.  One
        prefix can match several nodes (repeating tags, shared prefixes) —
        exactly the CTQNodeSet situation of Appendix E.
        """
        cached = self._match_cache.get(data_path)
        if cached is not None:
            return cached
        depth_count = len(data_path)
        # matched[node.index] = list of booleans per depth (1-based offset 0)
        matched: dict[int, list[bool]] = {}
        table: list[list[QPTNode]] = [[] for _ in range(depth_count)]
        for node in self.nodes:  # pre-order: parents before children
            edge = node.parent_edge
            assert edge is not None
            flags = [False] * depth_count
            if edge.parent is self.root:
                if edge.axis == "/":
                    flags[0] = data_path[0] == node.tag
                else:
                    for d in range(depth_count):
                        flags[d] = data_path[d] == node.tag
            else:
                parent_flags = matched[edge.parent.index]
                if edge.axis == "/":
                    for d in range(1, depth_count):
                        flags[d] = data_path[d] == node.tag and parent_flags[d - 1]
                else:
                    seen_parent = False
                    for d in range(1, depth_count):
                        seen_parent = seen_parent or parent_flags[d - 1]
                        flags[d] = data_path[d] == node.tag and seen_parent
            matched[node.index] = flags
            for d in range(depth_count):
                if flags[d]:
                    table[d].append(node)
        self._match_cache[data_path] = table
        return table

    def __repr__(self) -> str:
        return f"<QPT doc={self.doc_name!r} nodes={len(self.nodes)}>"

    def describe(self) -> str:
        """Multi-line human-readable rendering (used in docs and tests)."""
        lines = [f"QPT over {self.doc_name}"]

        def _walk(node: QPTNode, depth: int) -> None:
            for edge in node.edges:
                child = edge.child
                anns = ("v" if child.v_ann else "") + ("c" if child.c_ann else "")
                preds = (
                    " [" + ", ".join(str(p) for p in child.predicates) + "]"
                    if child.predicates
                    else ""
                )
                lines.append(
                    "  " * (depth + 1)
                    + f"{edge.axis}{child.tag} ({edge.annotation})"
                    + (f" {{{anns}}}" if anns else "")
                    + preds
                )
                _walk(child, depth + 1)

        _walk(self.root, 0)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Fragments: intermediate QPTs rooted at documents, variables or '.'
# ---------------------------------------------------------------------------


class _Fragment:
    """A QPT under construction, rooted at a doc, a variable, or '.'.

    ``root`` is a synthetic node standing for the root source itself;
    ``leaf`` is the node the fragment's *value* corresponds to (the single
    leaf of a path expression — Lemma D.2).
    """

    __slots__ = ("kind", "name", "root", "leaf")

    def __init__(self, kind: str, name: Optional[str]):
        self.kind = kind  # 'doc' | 'var' | 'dot'
        self.name = name
        self.root = QPTNode(DOC_ROOT_TAG if kind == "doc" else f"${name or '.'}")
        self.leaf = self.root

    def is_root_only(self) -> bool:
        return self.root.is_root_only()

    def all_nodes(self) -> list[QPTNode]:
        nodes: list[QPTNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            nodes.append(node)
            stack.extend(node.children)
        return nodes

    def optionalize_root_edges(self) -> None:
        """Make every edge out of the root optional (return-clause graft)."""
        for edge in self.root.edges:
            edge.mandatory = False

    def __repr__(self) -> str:
        return f"<_Fragment {self.kind}:{self.name}>"


def _merge_into(target: QPTNode, source_root: QPTNode, inherit_c: bool) -> None:
    """Graft a fragment root's structure onto a binding leaf.

    Edges, predicates and the 'v' annotation transfer directly; the 'c'
    annotation transfers only when ``inherit_c`` (the root-only
    return-the-variable case of Appendix B, Fig. 24 lines 21-27).
    """
    for edge in source_root.edges:
        target.edges.append(edge)
        edge.parent = target
    source_root.edges = []
    target.predicates.extend(source_root.predicates)
    target.v_ann = target.v_ann or source_root.v_ann
    if inherit_c and source_root.c_ann:
        target.c_ann = True


class _QPTBuilder:
    """Recursive fragment builder over the function-free AST."""

    def generate(self, expr: Expr) -> list[_Fragment]:
        fragments = self._gen_return(expr)
        return fragments

    # -- general expression dispatch ---------------------------------------

    def _gen(self, expr: Expr) -> tuple[Optional[_Fragment], list[_Fragment]]:
        """Returns (value fragment or None, side fragments)."""
        if isinstance(expr, DocCall):
            frag = _Fragment("doc", expr.name)
            frag.root.c_ann = True  # line 6 of Fig. 21: whole doc is content
            return frag, []
        if isinstance(expr, VarRef):
            frag = _Fragment("var", expr.name)
            frag.root.c_ann = True
            return frag, []
        if isinstance(expr, ContextItem):
            frag = _Fragment("dot", None)
            frag.root.c_ann = True
            return frag, []
        if isinstance(expr, PathExpr):
            return self._gen_path(expr)
        if isinstance(expr, (Literal, TextLiteral, EmptySequence)):
            return None, []
        if isinstance(expr, Comparison):
            return None, self._gen_comparison(expr)
        if isinstance(expr, BooleanExpr):
            side: list[_Fragment] = []
            for operand in expr.operands:
                side.extend(self._gen_condition(operand))
            return None, side
        if isinstance(expr, FTContains):
            frag, sides = self._gen(expr.expr)
            return None, ([frag] if frag else []) + sides
        if isinstance(expr, IfExpr):
            condition = self._gen_condition(expr.condition)
            for frag in condition:
                for node in frag.all_nodes():
                    node.c_ann = False
            then_frags = self._gen_return(expr.then_branch)
            else_frags = self._gen_return(expr.else_branch)
            return None, condition + then_frags + else_frags
        if isinstance(expr, FLWOR):
            return None, self._gen_flwor(expr)
        if isinstance(expr, (ElementConstructor, SequenceExpr)):
            return None, self._gen_return(expr)
        if isinstance(expr, FunctionCall):
            raise ViewDefinitionError(
                "function calls must be inlined before QPT generation"
            )
        raise UnsupportedQueryError(
            f"unsupported expression in view definition: {type(expr).__name__}"
        )

    # -- paths ----------------------------------------------------------------

    def _gen_path(self, expr: PathExpr) -> tuple[_Fragment, list[_Fragment]]:
        frag, sides = self._gen(expr.source)
        if frag is None:
            raise UnsupportedQueryError(
                "path steps over constructed content are not supported "
                f"(source {expr.source})"
            )
        for step in expr.steps:
            new_leaf = QPTNode(step.tag, c_ann=True)
            frag.leaf.c_ann = False
            frag.leaf.add_child(new_leaf, step.axis, mandatory=True)
            frag.leaf = new_leaf
        for predicate in expr.predicates:
            sides.extend(self._graft_predicate(frag.leaf, predicate))
        return frag, sides

    def _graft_predicate(self, leaf: QPTNode, predicate: Expr) -> list[_Fragment]:
        """Attach a ``[...]`` predicate's structure under ``leaf``.

        Fragments rooted at '.' are grafted (mandatory edges kept); others
        (outer-variable references) are returned as side fragments.
        """
        side: list[_Fragment] = []
        for frag in self._gen_condition(predicate):
            if frag.kind == "dot":
                _merge_into(leaf, frag.root, inherit_c=False)
                if frag.root.predicates:
                    leaf.predicates.extend(frag.root.predicates)
                leaf.v_ann = leaf.v_ann or frag.root.v_ann
            else:
                side.append(frag)
        return side

    # -- conditions (where clauses, predicates, if conditions) -----------------

    def _gen_condition(self, expr: Expr) -> list[_Fragment]:
        """Fragments for a boolean context; all nodes are non-content."""
        if isinstance(expr, Comparison):
            fragments = self._gen_comparison(expr)
        elif isinstance(expr, BooleanExpr):
            fragments = []
            for operand in expr.operands:
                operand_fragments = self._gen_condition(operand)
                if expr.op == "or":
                    # Disjuncts must not prune each other: an element may
                    # satisfy only one of them, so no disjunct's path can be
                    # mandatory.  The rewritten query re-checks the 'or'
                    # over the PDT (operand values are materialized).
                    for fragment in operand_fragments:
                        fragment.optionalize_root_edges()
                fragments.extend(operand_fragments)
        elif isinstance(expr, FTContains):
            frag, sides = self._gen(expr.expr)
            fragments = ([frag] if frag else []) + sides
        else:
            frag, sides = self._gen(expr)
            fragments = ([frag] if frag else []) + sides
        for frag in fragments:
            for node in frag.all_nodes():
                node.c_ann = False
        return fragments

    def _gen_comparison(self, expr: Comparison) -> list[_Fragment]:
        left, right = expr.left, expr.right
        op = expr.op
        if isinstance(left, Literal) and not isinstance(right, Literal):
            left, right = right, left
            op = _flip_operator(op)
        if isinstance(right, Literal):
            frag, sides = self._gen(left)
            if frag is None:
                raise UnsupportedQueryError(
                    "comparison left-hand side must be a path expression"
                )
            frag.leaf.predicates.append(Predicate(op, right.value))
            # The value is needed so the rewritten query can re-check the
            # predicate over the PDT (DESIGN.md faithfulness note).
            frag.leaf.v_ann = True
            frag.leaf.c_ann = False
            return [frag] + sides
        # Path-to-path comparison: a value join — both leaves are 'v'.
        fragments: list[_Fragment] = []
        for operand in (left, right):
            frag, sides = self._gen(operand)
            if frag is None:
                raise UnsupportedQueryError(
                    "value joins must compare path expressions"
                )
            frag.leaf.v_ann = True
            frag.leaf.c_ann = False
            fragments.append(frag)
            fragments.extend(sides)
        return fragments

    # -- return clauses ------------------------------------------------------

    def _gen_return(self, expr: Expr) -> list[_Fragment]:
        """Fragments for a return-clause expression.

        Constructors and sequences optionalize the root edges of fragments
        rooted at variables/'.' (Fig. 24 lines 42-60): the constructed
        element exists in the view even when the embedded path is empty.
        """
        if isinstance(expr, (ElementConstructor, SequenceExpr)):
            contents = (
                expr.content if isinstance(expr, ElementConstructor) else expr.items
            )
            fragments: list[_Fragment] = []
            for content in contents:
                for frag in self._gen_return(content):
                    if frag.kind in ("var", "dot"):
                        frag.optionalize_root_edges()
                    fragments.append(frag)
            return fragments
        if isinstance(expr, IfExpr):
            condition = self._gen_condition(expr.condition)
            return (
                condition
                + self._gen_return(expr.then_branch)
                + self._gen_return(expr.else_branch)
            )
        frag, sides = self._gen(expr)
        return ([frag] if frag else []) + sides

    # -- FLWOR -------------------------------------------------------------------

    def _gen_flwor(self, expr: FLWOR) -> list[_Fragment]:
        fragments: list[_Fragment] = []
        if expr.where is not None:
            fragments.extend(self._gen_condition(expr.where))
        fragments.extend(self._gen_return(expr.ret))
        for clause in reversed(expr.clauses):
            fragments = self._bind_clause(clause, fragments)
        return fragments

    def _bind_clause(
        self, clause: ForClause | LetClause, fragments: list[_Fragment]
    ) -> list[_Fragment]:
        matching = [
            f for f in fragments if f.kind == "var" and f.name == clause.var
        ]
        rest = [f for f in fragments if f not in matching]
        value_frag, sides = self._gen(clause.expr)
        if value_frag is None:
            # Variable bound to constructed content (e.g. a let-bound view
            # FLWOR).  Whole-value uses are fine; navigation into the
            # constructed elements is outside the supported subset.
            for frag in matching:
                if not frag.is_root_only():
                    raise UnsupportedQueryError(
                        f"cannot navigate into constructed content bound to "
                        f"${clause.var}"
                    )
            return sides + rest
        leaf = value_frag.leaf
        leaf.c_ann = False  # content status comes only from the uses below
        for frag in matching:
            inherit_c = frag.is_root_only()
            _merge_into(leaf, frag.root, inherit_c=inherit_c)
        return [value_frag] + sides + rest


def _flip_operator(op: str) -> str:
    flips = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "=": "=", "!=": "!="}
    return flips[op]


def generate_qpts(view_expr: Expr) -> dict[str, QPT]:
    """Generate one QPT per document referenced by ``view_expr``.

    ``view_expr`` must be function-free (see
    :func:`repro.xquery.functions.inline_functions`) and closed (no free
    variables).  Fragments rooted at the same document are merged into one
    QPT whose synthetic root carries each fragment's first steps as
    separate branches.
    """
    fragments = _QPTBuilder().generate(view_expr)
    qpts: dict[str, QPTNode] = {}
    for frag in fragments:
        if frag.kind == "var":
            raise ViewDefinitionError(
                f"view has a free variable ${frag.name}; bind it or inline it"
            )
        if frag.kind == "dot":
            raise ViewDefinitionError("view references '.' outside any binding")
        if frag.root.c_ann and frag.is_root_only():
            raise UnsupportedQueryError(
                f"view returns the entire document {frag.name}; keyword search "
                "over unrestricted documents does not need view machinery"
            )
        root = qpts.get(frag.name)
        if root is None:
            qpts[frag.name] = frag.root
        else:
            for edge in frag.root.edges:
                root.edges.append(edge)
                edge.parent = root
    return {name: QPT(name, root) for name, root in qpts.items()}
