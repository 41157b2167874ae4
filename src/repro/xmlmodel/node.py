"""In-memory XML tree model.

The model follows the paper's conventions (Section 2.1):

* attributes are treated as though they were subelements — the parser turns
  ``<book isbn="x">`` into a ``book`` element with an ``isbn`` child whose
  value is ``x``;
* each element may carry *direct text* (the concatenation of its own text
  chunks) and any number of child elements;
* the *atomic value* of an element is its direct text, used by path-index
  rows and leaf-value predicates.

PDT nodes reuse the same class with an attached :class:`NodeAnnotations`
record carrying the selectively-materialized information (Dewey id,
record position, content slot) that the scoring and materialization
phases consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro.dewey import DeweyID, dewey_from_parts, pack_component


@dataclass(slots=True)
class NodeAnnotations:
    """Extra information attached to pruned (PDT) nodes.

    ``dewey`` identifies the base element this pruned node stands for;
    ``position`` is its record's position in the skeleton's columns,
    where :attr:`repro.core.pdt.PDTResult.byte_lengths` holds the
    serialized length of the base element's subtree.  ``pruned`` marks
    nodes whose content was *not* materialized ('c' nodes before top-k
    expansion), and each such node carries a ``slot``: its index into
    the per-query tf arrays of :class:`repro.core.pdt.PDTResult`, which
    hold the keyword's tf aggregated over the base element's subtree.
    The tree itself is keyword-independent, reused across queries and
    never written once built, so neither per-query data nor anything an
    edit patches lives on the node.
    """

    dewey: Optional[DeweyID] = None
    position: int = 0
    pruned: bool = False
    doc: Optional[str] = None
    slot: Optional[int] = None


class XMLNode:
    """A mutable XML element node.

    ``text`` is the element's direct text (``None`` when absent).  ``dewey``
    is assigned by :func:`assign_dewey_ids` / the database loader and is
    ``None`` for freshly constructed (query-output) nodes.
    """

    # ``__weakref__`` lets skeletons memoize the shared tree they build
    # from their columns *weakly*: the tree stays alive exactly as
    # long as some cached PDT or evaluated result references it, and is
    # reclaimable the moment nothing does.
    __slots__ = ("tag", "text", "children", "parent", "dewey", "anno",
                 "__weakref__")

    def __init__(
        self,
        tag: str,
        text: Optional[str] = None,
        children: Optional[list["XMLNode"]] = None,
        dewey: Optional[DeweyID] = None,
    ):
        self.tag = tag
        self.text = text
        self.children: list[XMLNode] = []
        self.parent: Optional[XMLNode] = None
        self.dewey = dewey
        self.anno: Optional[NodeAnnotations] = None
        if children:
            for child in children:
                self.append(child)

    # -- construction ------------------------------------------------------

    def append(self, child: "XMLNode") -> "XMLNode":
        """Attach ``child`` as the last child and return it."""
        child.parent = self
        self.children.append(child)
        return child

    def make_child(self, tag: str, text: Optional[str] = None) -> "XMLNode":
        """Create, attach and return a new child element."""
        return self.append(XMLNode(tag, text))

    def detach_copy(self) -> "XMLNode":
        """Deep-copy this subtree (annotations shared, parents rebuilt)."""
        copy = XMLNode(self.tag, self.text, dewey=self.dewey)
        copy.anno = self.anno
        for child in self.children:
            copy.append(child.detach_copy())
        return copy

    # -- values ------------------------------------------------------------

    @property
    def value(self) -> Optional[str]:
        """The atomic value: stripped direct text, or ``None`` if empty."""
        if self.text is None:
            return None
        stripped = self.text.strip()
        return stripped if stripped else None

    def subtree_text(self) -> str:
        """Concatenated text of this element and all descendants."""
        parts: list[str] = []
        for node in self.iter():
            if node.text:
                parts.append(node.text)
        return " ".join(part.strip() for part in parts if part.strip())

    @property
    def is_leaf(self) -> bool:
        return not self.children

    # -- navigation --------------------------------------------------------

    def iter(self) -> Iterator["XMLNode"]:
        """Pre-order (document order) traversal of this subtree."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def descendants(self) -> Iterator["XMLNode"]:
        """Pre-order traversal excluding self."""
        iterator = self.iter()
        next(iterator)
        return iterator

    def children_by_tag(self, tag: str) -> list["XMLNode"]:
        return [child for child in self.children if child.tag == tag]

    def descendants_by_tag(self, tag: str) -> list["XMLNode"]:
        return [node for node in self.descendants() if node.tag == tag]

    def find(self, predicate: Callable[["XMLNode"], bool]) -> Optional["XMLNode"]:
        """First node in document order satisfying ``predicate``."""
        for node in self.iter():
            if predicate(node):
                return node
        return None

    def ancestors(self) -> Iterator["XMLNode"]:
        """Proper ancestors, nearest first."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def path_from_root(self) -> list[str]:
        """Tag names from the root down to (and including) this node."""
        tags = [self.tag]
        tags.extend(a.tag for a in self.ancestors())
        tags.reverse()
        return tags

    # -- counting ----------------------------------------------------------

    def size(self) -> int:
        """Number of nodes in this subtree (including self)."""
        return sum(1 for _ in self.iter())

    def __repr__(self) -> str:
        ident = f" id={self.dewey}" if self.dewey is not None else ""
        value = f" value={self.value!r}" if self.value is not None else ""
        return f"<XMLNode {self.tag}{ident}{value} children={len(self.children)}>"


def label_children(node: XMLNode) -> None:
    """Give the i-th child of ``node`` the id ``node.dewey`` + ``(i,)``.

    Built from the parent's parts — its component tuple plus one
    ordinal, its packed key plus one packed component — so no id is
    validated or packed twice and every child's ``packed`` is already
    cached.
    """
    base = node.dewey
    components, packed = base.components, base.packed
    for ordinal, child in enumerate(node.children, start=1):
        child.dewey = dewey_from_parts(
            components + (ordinal,), packed + pack_component(ordinal)
        )


def assign_dewey_ids(root: XMLNode, root_id: Optional[DeweyID] = None) -> None:
    """Assign Dewey IDs to ``root`` and every descendant.

    ``root`` receives ``root_id`` (default ``1``); the i-th child of a node
    with id ``d`` receives ``d.i``.
    """
    root.dewey = root_id if root_id is not None else DeweyID.root()
    for node in root.iter():
        if node.children:
            label_children(node)


class Document:
    """A named XML document with Dewey IDs assigned.

    This is the unit the database stores and the unit a QPT is generated
    against (each QPT is "associated with an XML document", Section 3.3).
    """

    def __init__(self, name: str, root: XMLNode, assign_ids: bool = True):
        self.name = name
        self.root = root
        if assign_ids:
            assign_dewey_ids(root)

    def node_by_dewey(self, dewey: DeweyID) -> Optional[XMLNode]:
        """Look up an element by its Dewey ID: a root-to-node descent.

        O(depth) and stateless, so sub-document edits have nothing to
        invalidate.  Siblings keep increasing ordinals (a delete leaves a
        hole, an insert appends one past the last), so the child with
        ordinal ``n`` sits at index ``n - 1`` while the ordinals before
        it are dense and is found by a scan once a hole shifted it left.
        """
        node = self.root
        if node.dewey is None:
            return None
        components = dewey.components
        depth = len(node.dewey.components)
        if components[:depth] != node.dewey.components:
            return None
        for ordinal in components[depth:]:
            children = node.children
            node = children[ordinal - 1] if ordinal <= len(children) else None
            if node is None or node.dewey.components[-1] != ordinal:
                for node in children:
                    if node.dewey.components[-1] == ordinal:
                        break
                else:
                    return None
        return node

    def size(self) -> int:
        return self.root.size()

    def __repr__(self) -> str:
        return f"<Document {self.name!r} nodes={self.size()}>"
