"""PrepareLists: the fixed set of index probes (paper Fig. 7 and Fig. 8).

The number of probes is proportional to the *query* size, never the data
size: one path-index probe per QPT node that needs one (no mandatory child
edges — which includes every leaf — or carrying 'v'/'c'/predicate
annotations), and one inverted-list probe per query keyword.  Probes for
'v' nodes retrieve values together with Dewey IDs (LookUpIDValue);
predicates are pushed into the probe so the returned lists are pre-filtered.
"""

from __future__ import annotations

from repro.core.qpt import QPT
from repro.storage.inverted_index import InvertedIndex, PostingList
from repro.storage.path_index import PathIndex, PathList, PathProbe


def build_probe_plan(qpt: QPT) -> list[PathProbe]:
    """The QPT's fixed probe set as explicit :class:`PathProbe` specs.

    One spec per probed node, in QPT pre-order — the unit the batched
    path-index sweep consumes and ``probe_plan`` renders.  Memoized on
    the QPT (immutable once built), so repeated cold builds re-plan for
    free.
    """
    plan = getattr(qpt, "_probe_plan", None)
    if plan is None:
        plan = [
            PathProbe(
                pattern=qpt.pattern(node),
                predicates=tuple(node.predicates),
                with_values=node.v_ann,
                node_index=node.index,
                tag=node.tag,
            )
            for node in qpt.probed_nodes()
        ]
        qpt._probe_plan = plan
    return plan


def prepare_path_lists(
    qpt: QPT, path_index: PathIndex
) -> dict[int, PathList]:
    """The path-index half of PrepareLists, issued as one batch.

    The whole probe plan goes to :meth:`PathIndex.lookup_ids_batched` in
    a single call, which answers each probe from the columns of the
    concrete paths its pattern expands to (memoized expansions; a
    one-path unpredicated probe is a column handoff, a predicated one a
    filter).  This half is *keyword-independent* — it depends only on the
    view's QPT and the document — which is what makes the PDT skeleton
    reusable across queries (see :mod:`repro.core.pdt`).
    """
    plan = build_probe_plan(qpt)
    lists = path_index.lookup_ids_batched(plan)
    return {probe.node_index: lst for probe, lst in zip(plan, lists)}


def prepare_inv_lists(
    inverted_index: InvertedIndex, keywords: tuple[str, ...]
) -> dict[str, PostingList]:
    """The inverted-list half of PrepareLists: one probe per keyword.

    Every queried keyword gets an entry — an empty posting list when the
    keyword occurs nowhere — matching the annotation pass's contract
    that tf data is keyed by the *query's* keywords, not by whichever
    lists happen to be non-empty.
    """
    return {keyword: inverted_index.lookup(keyword) for keyword in keywords}


def probe_plan(qpt: QPT) -> list[tuple[str, tuple[tuple[str, str], ...], bool]]:
    """Human-readable probe plan: (tag, pattern, with_values) per probe.

    Used by documentation/examples to show the fixed probe set the
    algorithm issues for a view (paper Fig. 8's left column).  The same
    plan, in its :class:`PathProbe` form (``build_probe_plan``), is what
    ``prepare_path_lists`` hands to the batched sweep.
    """
    return [
        (probe.tag, probe.pattern, probe.with_values)
        for probe in build_probe_plan(qpt)
    ]
