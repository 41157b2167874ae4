"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while still
being able to distinguish parse errors from evaluation errors, etc.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class XMLParseError(ReproError):
    """Raised when an XML document cannot be parsed.

    Carries the byte/character ``position`` (offset into the input) and the
    1-based ``line`` where the problem was detected.
    """

    def __init__(self, message: str, position: int = -1, line: int = -1):
        suffix = ""
        if line >= 0:
            suffix = f" (line {line})"
        elif position >= 0:
            suffix = f" (offset {position})"
        super().__init__(message + suffix)
        self.position = position
        self.line = line


class XQuerySyntaxError(ReproError):
    """Raised when a view/query does not conform to the supported grammar."""

    def __init__(self, message: str, position: int = -1):
        suffix = f" (at token offset {position})" if position >= 0 else ""
        super().__init__(message + suffix)
        self.position = position


class XQueryEvalError(ReproError):
    """Raised when a well-formed query fails during evaluation."""


class UnsupportedQueryError(XQuerySyntaxError):
    """Raised for constructs outside the supported XQuery subset.

    The paper's system redirects only queries that satisfy the supported
    grammar (Appendix A); anything else is rejected explicitly rather than
    silently mis-evaluated.
    """


class InvalidKeywordError(ReproError, ValueError):
    """Raised for a query keyword that is not exactly one token.

    Also a ``ValueError`` — what ``normalize_keyword`` raised before the
    error was typed — so callers that caught that keep working.
    """


class StorageError(ReproError):
    """Raised on index/document-store misuse (unknown document, bad range)."""


class DocumentNotFoundError(StorageError):
    """Raised when a query references a document not loaded in the database."""

    def __init__(self, name: str):
        super().__init__(f"document not loaded in database: {name!r}")
        self.name = name


class ShardingError(ReproError):
    """Raised on corpus-sharding misuse.

    Covers plan construction (a document assigned outside the shard
    range, colocation constraints over unknown documents) and view
    placement (a view fragment whose documents span shards — fragments
    are the evaluation unit, so each must live wholly on one shard).
    """


class InjectedFaultError(ReproError):
    """Raised by :class:`repro.core.faults.FaultInjector` at an armed site.

    Deliberately *infrastructure-shaped*: the coordinator and the
    snapshot tier treat it like a transport/storage failure (a shard
    failure, a fetch error, a lost snapshot) — never like a semantic
    query error — so chaos runs exercise exactly the degraded paths a
    real outage would.
    """

    def __init__(self, site: str, call: int, kind: str = "error"):
        super().__init__(
            f"injected {kind} fault at {site!r} (call #{call})"
        )
        self.site = site
        self.call = call
        self.kind = kind


class ShardUnavailableError(ShardingError):
    """Raised when shard failures abort a scatter under fail-closed policy.

    Carries the per-shard :class:`repro.core.sharding.ShardFailure`
    records (duck-typed here to avoid the import cycle) so callers — and
    the HTTP error table — can report exactly which shards failed, in
    which phase, and why.  Under ``partial_results=True`` the same
    records travel on the degraded outcome instead.
    """

    def __init__(self, view_name: str, failures=()):
        self.view_name = view_name
        self.failures = tuple(failures)
        detail = ", ".join(
            f"shard {f.shard_id} ({f.reason} in {f.phase})"
            for f in self.failures
        )
        super().__init__(
            f"view {view_name!r}: {len(self.failures)} shard(s) "
            f"unavailable{': ' + detail if detail else ''}"
        )


class CoordinatorClosedError(ReproError):
    """Raised when a query races :meth:`CorpusCoordinator.close`.

    Previously this surfaced as the thread pool's raw ``RuntimeError:
    cannot schedule new futures after shutdown``; the typed error keeps
    the shutdown race distinguishable from an engine bug.
    """

    def __init__(self, message: str = "coordinator is closed"):
        super().__init__(message)


class SnapshotFetchError(ReproError):
    """Raised when a networked snapshot fetch fails after its retries.

    Carries the snapshot ``key`` (the ``<qpt_hash>-<doc_fingerprint>``
    entry name) and the last transport error.  The networked store
    catches this internally and falls back to the local cold build; it
    escapes only when a caller drives a peer client directly.
    """

    def __init__(self, key: str, cause: str):
        super().__init__(f"snapshot fetch failed for {key!r}: {cause}")
        self.key = key
        self.cause = cause


class ViewDefinitionError(ReproError):
    """Raised when a view definition cannot be analyzed into QPTs."""


class StaleViewError(ViewDefinitionError):
    """Raised when a search targets a view whose documents were dropped.

    Rejecting stale views at search entry keeps the failure out of the
    middle of the pipeline (where it used to surface as a
    ``DocumentNotFoundError`` with partial timings already recorded).
    """

    def __init__(self, view_name: str, missing: list[str]):
        super().__init__(
            f"view {view_name!r} is stale: document(s) "
            f"{', '.join(repr(m) for m in sorted(missing))} no longer loaded"
        )
        self.view_name = view_name
        self.missing = sorted(missing)
