"""The (Path, Value) path index of paper Section 3.2 (Figure 5).

The paper keeps a Path-Values table — one row per unique (root-to-element
path, atomic value) pair, holding the sorted Dewey IDs of the elements on
that path with that value — in an on-disk B+-tree.  In memory the table is
stored by path instead: per concrete path, the document-ordered columns of
its elements' packed keys, atomic values and subtree byte lengths.  A row
is the elements of one path grouped by their own value, so every probe
the table answers reads the columns:

* path probes — the path's columns are the probe result;
* value-predicate probes — ``/book/author/fn[. = 'Jane']`` filters the
  path's columns with :meth:`Predicate.matches` on each element's own
  value, which is the query evaluator's comparison (``01 = 1`` holds);
* descendant-axis queries — a *path dictionary* (DataGuide: the set of all
  distinct root-to-element tag paths in the document) expands patterns with
  ``//`` into concrete data paths, each probed as above.

Each entry also carries the element's subtree byte length, the
index-resident statistic the PDT needs for score normalization (paper
Definition 3 attaches byte lengths to PDT nodes).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Optional, Sequence

from repro.dewey import DeweyID, unpack
from repro.storage.columns import DocumentColumns, document_columns
from repro.values import Predicate
from repro.xmlmodel.node import XMLNode

# One step of a path pattern: (axis, tag); axis is '/' or '//'.
PathPattern = tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class PathListEntry:
    """One element surfaced by a path-index probe.

    ``key`` is the element's *packed* Dewey byte key (see
    :mod:`repro.dewey`): bytes comparison is document order, so path lists
    sort and k-way-merge on the key directly.  ``value`` is populated only
    by value-retrieving probes ('v' nodes); ``path_id`` identifies the
    concrete data path of the element, which the PDT generator uses to
    match Dewey prefixes to QPT nodes.
    """

    key: bytes
    path_id: int
    value: Optional[str]
    byte_length: int

    @property
    def dewey(self) -> tuple[int, ...]:
        """The decoded component tuple (diagnostics/tests; not hot-path)."""
        return unpack(self.key)

    @property
    def dewey_id(self) -> DeweyID:
        return DeweyID.from_packed(self.key)


class PathList:
    """A Dewey-ordered list of entries for one QPT node (paper Fig. 8).

    Storage is four parallel arrays — packed keys, path ids, values and
    byte lengths — mirroring :class:`repro.storage.inverted_index.PostingList`:
    the PDT merge pass sweeps the arrays directly (no per-element object
    is ever allocated on the cold path), while ``entries``/iteration
    synthesize :class:`PathListEntry` views on demand for diagnostics,
    tests and the baselines.
    """

    __slots__ = ("keys", "path_ids", "values", "byte_lengths", "single_path",
                 "has_values")

    def __init__(
        self,
        keys: list[bytes],
        path_ids: list[int],
        values: list[Optional[str]],
        byte_lengths: list[int],
        single_path: Optional[int] = None,
        has_values: bool = True,
    ):
        self.keys = keys
        self.path_ids = path_ids
        self.values = values
        self.byte_lengths = byte_lengths
        #: The one concrete path id all entries share, when the probe can
        #: certify it (whole-path handoffs) — lets consumers skip a scan.
        self.single_path = single_path
        #: Whether the probe fetched values: False means every value is
        #: ``None`` (a with_values=False probe), whatever the element's.
        self.has_values = has_values

    def __len__(self) -> int:
        return len(self.keys)

    def _entry_at(self, index: int) -> PathListEntry:
        return PathListEntry(
            self.keys[index],
            self.path_ids[index],
            self.values[index],
            self.byte_lengths[index],
        )

    @property
    def entries(self) -> list[PathListEntry]:
        """Decoded entry views (synthesized; not the storage form)."""
        return [self._entry_at(i) for i in range(len(self.keys))]

    def __iter__(self):
        return (self._entry_at(i) for i in range(len(self.keys)))


@dataclass(frozen=True)
class PathProbe:
    """One planned path-index probe (a QPT node's pattern + push-downs).

    ``prepare_path_lists`` builds one probe per probed QPT node and hands
    the whole plan to :meth:`PathIndex.lookup_ids_batched`.
    ``node_index``/``tag`` identify the owning QPT node for plan
    rendering; the index itself only reads the probe fields.
    """

    pattern: PathPattern
    predicates: tuple[Predicate, ...] = ()
    with_values: bool = False
    node_index: int = -1
    tag: str = ""


class PathIndex:
    """Path index for one document."""

    def __init__(self):
        self._paths: list[tuple[str, ...]] = []
        self._path_ids: dict[tuple[str, ...], int] = {}
        self._expansion_cache: dict[PathPattern, list[int]] = {}
        # (path id, own depth) -> the path's key column; (path id,
        # shallower depth) -> (key column derived from, ancestor array).
        self._ancestors: dict[tuple[int, int], list[bytes]] = {}
        self._derived_ancestors: dict[
            tuple[int, int], tuple[list[bytes], list[bytes]]
        ] = {}
        self._path_arrays: dict[
            int, tuple[list[bytes], list[Optional[str]], list[int]]
        ] = {}
        self.probe_count = 0

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_columns(cls, columns: DocumentColumns) -> "PathIndex":
        """Build the index from a walked document: ``_path_arrays`` —
        per path, the document-ordered (keys, values, lengths) columns,
        laid out at load time, so an unpredicated path probe is an array
        handoff and a predicated one a filter over the same arrays."""
        index = cls()
        for path_id, (keys, values, lengths) in index._by_path(columns).items():
            index._set_path_columns(path_id, keys, values, lengths)
        return index

    @classmethod
    def from_tree(cls, root: XMLNode) -> "PathIndex":
        return cls.from_columns(document_columns(root, label=False))

    def _intern_path(self, path: tuple[str, ...]) -> int:
        path_id = self._path_ids.get(path)
        if path_id is None:
            path_id = len(self._paths)
            self._paths.append(path)
            self._path_ids[path] = path_id
        return path_id

    def _by_path(self, columns: DocumentColumns) -> dict[
        int, tuple[list[bytes], list[Optional[str]], list[int]]
    ]:
        """A walked subtree laid out by interned path id: the (keys,
        values, lengths) of the path's elements in document order, the
        keys the walk's own objects (shared with the store)."""
        ids = [self._intern_path(path) for path in columns.paths]
        return {
            path_id: (
                list(map(columns.keys.__getitem__, rows)),
                list(map(columns.values.__getitem__, rows)),
                list(map(columns.lengths.__getitem__, rows)),
            )
            for path_id, rows in zip(ids, columns.path_rows)
        }

    def _set_path_columns(self, path_id, keys, values, lengths) -> None:
        self._path_arrays[path_id] = (
            keys,
            values,
            lengths,
            # Constant columns, shared by every whole-path handoff.
            [path_id] * len(keys),
            [None] * len(keys),
        )
        self._ancestors[(path_id, len(self._paths[path_id]))] = keys

    # -- delta maintenance -------------------------------------------------------

    def apply_subtree_edit(
        self,
        key: bytes,
        bound: bytes,
        removed: DocumentColumns,
        added: DocumentColumns,
        ancestors: list[tuple[tuple[str, ...], bytes]],
        length_delta: int,
    ) -> None:
        """Patch the path columns for one subtree edit.

        ``[key, bound)`` is the edited packed-key range;
        ``removed``/``added`` are the walked removed subtree and payload
        (empty when there is none); ``ancestors`` are the ``(path,
        packed key)`` of the edit point's proper ancestors (root first),
        whose stored byte lengths shift by ``length_delta`` (skipped
        entirely when the delta is zero).  The column arrays are
        spliced, never rebuilt: the edited range is one contiguous slice
        of every touched path's document-ordered columns, so each new
        column is ``old[:i] + added + old[j:]`` — always a *new* list,
        because the old ones may be shared read-only with live path
        lists and skeletons (and because a new key column is what
        retires the ancestor arrays derived from the old one, see
        :meth:`ancestors_on_path`).
        """
        paths_before = len(self._paths)
        new = self._by_path(added)
        gone = {self._path_ids[path] for path in removed.paths}

        for path_id in gone | new.keys():
            self._splice_path_columns(
                path_id, key, bound, *new.get(path_id, ([], [], []))
            )

        if length_delta:
            for path, packed in ancestors:
                path_id = self._path_ids[path]
                # Same keys, one length moved: copy-patch that one cell.
                keys, values, lengths, id_column, none_column = (
                    self._path_arrays[path_id]
                )
                lengths = list(lengths)
                lengths[bisect_left(keys, packed)] += length_delta
                self._path_arrays[path_id] = (
                    keys, values, lengths, id_column, none_column
                )

        if len(self._paths) > paths_before:
            # The DataGuide grew: memoized pattern expansions may now be
            # incomplete.  Shrinking never happens (paths stay interned).
            self._expansion_cache.clear()

    def _splice_path_columns(
        self,
        path_id: int,
        key: bytes,
        bound: bytes,
        added_keys: list[bytes],
        added_values: list[Optional[str]],
        added_lengths: list[int],
    ) -> None:
        """Replace the ``[key, bound)`` slice of one path's columns with
        the added columns (document order; possibly empty) — what
        :meth:`from_columns` would build over the edited document, at the
        cost of the slices.  A path left without elements keeps its
        interned id and nothing else."""
        keys, values, lengths = self._path_arrays.get(path_id, ([], [], []))[:3]
        low, high = bisect_left(keys, key), bisect_left(keys, bound)
        keys = keys[:low] + added_keys + keys[high:]
        if keys:
            self._set_path_columns(
                path_id,
                keys,
                values[:low] + added_values + values[high:],
                lengths[:low] + added_lengths + lengths[high:],
            )
        else:
            self._path_arrays.pop(path_id, None)
            self._ancestors.pop((path_id, len(self._paths[path_id])), None)

    # -- path dictionary (DataGuide) --------------------------------------------

    @property
    def data_paths(self) -> Sequence[tuple[str, ...]]:
        """All distinct root-to-element paths, indexed by ``path_id``."""
        return self._paths

    def path_by_id(self, path_id: int) -> tuple[str, ...]:
        return self._paths[path_id]

    def ancestors_on_path(self, path_id: int, depth: int) -> list[bytes]:
        """Sorted distinct packed keys of the depth-``depth`` ancestors of
        the elements on ``path_id`` (the elements themselves at the path's
        own depth) — the index-resident answer to the PDT sweep's "which
        elements can an interior QPT node stand on".  Read-only.

        They are the elements of the path's depth-``depth`` prefix path
        with a descendant on ``path_id``: derived from the two key
        columns on first use (one bisect per prefix-path element) and
        kept while the path's key column is the object they were derived
        from — an edit gives every path it touches a new one, which is
        all the invalidation there is.  Nothing is laid out per (path,
        depth) at load time, where a deep chain would need quadratically
        many arrays and cubically many key bytes.
        """
        arrays = self._path_arrays.get(path_id)
        path = self._paths[path_id]
        if arrays is None or not 1 <= depth <= len(path):
            return []
        keys = arrays[0]
        if depth == len(path):
            return keys
        derived = self._derived_ancestors.get((path_id, depth))
        if derived is None or derived[0] is not keys:
            prefix_arrays = self._path_arrays.get(self._path_ids[path[:depth]])
            size = len(keys)
            column = [
                candidate
                for candidate in (prefix_arrays[0] if prefix_arrays else ())
                if (at := bisect_left(keys, candidate)) < size
                and keys[at].startswith(candidate)
            ]
            derived = self._derived_ancestors[(path_id, depth)] = (keys, column)
        return derived[1]

    def expand_pattern(self, pattern: PathPattern) -> list[int]:
        """Concrete path ids matching a ``/``/``//`` path pattern.

        This is the "the index is probed for each full data path" expansion
        of Section 3.2; the DataGuide is tiny compared to the data, so the
        match is cheap and independent of document size.  Expansions are
        memoized per pattern — the path dictionary is immutable after
        ``from_tree``, and the fixed probe plan of a view re-expands the
        same patterns on every cold build.
        """
        cached = self._expansion_cache.get(pattern)
        if cached is None:
            cached = [
                path_id
                for path_id, path in enumerate(self._paths)
                if pattern_matches_path(pattern, path)
            ]
            self._expansion_cache[pattern] = cached
        return cached

    # -- probes -------------------------------------------------------------------

    def lookup_ids(
        self,
        pattern: PathPattern,
        predicates: Iterable[Predicate] = (),
        with_values: bool = False,
    ) -> PathList:
        """Probe the index for a QPT path (LookUpID / LookUpIDValue, Fig. 7).

        Returns a single Dewey-ordered :class:`PathList` of the elements
        on every concrete path the pattern expands to.  ``predicates``
        are pushed into the probe: an element is kept when every
        predicate matches its own value.  ``with_values`` attaches
        atomic values to the entries (the 'v'-annotation case).

        A one-probe batch: multi-pattern callers (PrepareLists) use
        :meth:`lookup_ids_batched`.
        """
        probe = PathProbe(
            pattern=pattern,
            predicates=tuple(predicates),
            with_values=with_values,
        )
        return self.lookup_ids_batched([probe])[0]

    def lookup_ids_batched(self, probes: Sequence[PathProbe]) -> list[PathList]:
        """Answer a whole probe plan (batched Fig. 7), as array-backed
        :class:`PathList`\\ s in probe order.

        Each pattern is expanded against the DataGuide (memoized) and
        answered from the columns of its concrete paths: an unpredicated
        probe of one path hands the columns over as they are; a
        predicated one keeps the elements whose own value every
        predicate matches — the evaluator's comparison
        (:func:`~repro.values.compare_atoms`), judged once per distinct
        value per probe.

        ``probe_count`` counts one logical probe per (probe, concrete
        path), so probe-complexity invariants (query size, never data
        size) keep meaning the same thing they always did.
        """
        path_arrays = self._path_arrays
        results: list[PathList] = []
        for probe in probes:
            predicates = tuple(probe.predicates)
            with_values = probe.with_values
            path_ids = self.expand_pattern(probe.pattern)
            self.probe_count += len(path_ids)
            if (
                not predicates
                and len(path_ids) == 1
                and path_ids[0] in path_arrays
            ):
                # Whole-path handoff: the precomputed columns are the
                # probe result.  Shared read-only with the index — the
                # PDT machinery never mutates path lists.
                path_id = path_ids[0]
                all_keys, all_values, all_lengths, id_column, none_column = (
                    path_arrays[path_id]
                )
                results.append(
                    PathList(
                        all_keys,
                        id_column,
                        all_values if with_values else none_column,
                        all_lengths,
                        single_path=path_id,
                        has_values=with_values,
                    )
                )
                continue
            # A path whose every element was deleted has no columns.
            columns = [path_arrays[p] for p in path_ids if p in path_arrays]
            if predicates:
                admits = {
                    value: all(p.matches(value) for p in predicates)
                    for value in set().union(*(arrays[1] for arrays in columns))
                }
            keys: list[bytes] = []
            entry_paths: list[int] = []
            values: list[Optional[str]] = []
            lengths: list[int] = []
            for path_keys, path_values, path_lengths, id_column, none_column in (
                columns
            ):
                kept_values = path_values if with_values else none_column
                if predicates:
                    mask = list(map(admits.__getitem__, path_values))
                    path_keys = compress(path_keys, mask)
                    path_lengths = compress(path_lengths, mask)
                    id_column = compress(id_column, mask)
                    kept_values = compress(kept_values, mask)
                keys += path_keys
                lengths += path_lengths
                entry_paths += id_column
                values += kept_values
            if any(keys[i] > keys[i + 1] for i in range(len(keys) - 1)):
                # Elements of different paths interleave in document
                # order; one argsort restores it (timsort over the
                # concatenated pre-sorted runs).  The linear check skips
                # the sort for single-path probes.
                order = sorted(range(len(keys)), key=keys.__getitem__)
                keys = [keys[i] for i in order]
                entry_paths = [entry_paths[i] for i in order]
                values = [values[i] for i in order]
                lengths = [lengths[i] for i in order]
            results.append(
                PathList(
                    keys, entry_paths, values, lengths, has_values=with_values
                )
            )
        return results


def pattern_matches_path(pattern: PathPattern, path: tuple[str, ...]) -> bool:
    """Does a ``/``/``//`` pattern match a concrete root-to-element path?

    The first step's axis describes the relation to the document root:
    ``/`` anchors at the root element, ``//`` matches at any depth.  The
    match must consume the entire concrete path (patterns address the
    element at the path's end).
    """
    return _match_from(pattern, 0, path, 0)


def _match_from(
    pattern: PathPattern, step: int, path: tuple[str, ...], position: int
) -> bool:
    if step == len(pattern):
        return position == len(path)
    axis, tag = pattern[step]
    if axis == "/":
        if position < len(path) and path[position] == tag:
            return _match_from(pattern, step + 1, path, position + 1)
        return False
    # '//': the tag may appear at this depth or any deeper depth.
    for candidate in range(position, len(path)):
        if path[candidate] == tag and _match_from(
            pattern, step + 1, path, candidate + 1
        ):
            return True
    return False


def match_depths(pattern: PathPattern, path: tuple[str, ...]) -> list[set[int]]:
    """For each depth d of ``path``, the pattern steps its prefix can end at.

    ``result[d]`` (0-based depth => path prefix of length d+1) is the set of
    pattern step indices s such that steps ``0..s`` match the prefix exactly.
    The PDT generator uses this to decide which QPT nodes a Dewey prefix
    corresponds to, including the repeating-tag case (``//a//a``) where one
    prefix matches several steps.
    """
    depth_count = len(path)
    step_count = len(pattern)
    # matches[s][d] = steps 0..s-1 match prefix of length d.
    matches = [[False] * (depth_count + 1) for _ in range(step_count + 1)]
    matches[0][0] = True
    for s in range(1, step_count + 1):
        axis, tag = pattern[s - 1]
        for d in range(1, depth_count + 1):
            if path[d - 1] != tag:
                continue
            if axis == "/":
                matches[s][d] = matches[s - 1][d - 1]
            else:
                matches[s][d] = any(matches[s - 1][k] for k in range(d))
    result: list[set[int]] = []
    for d in range(1, depth_count + 1):
        result.append({s - 1 for s in range(1, step_count + 1) if matches[s][d]})
    return result
