"""``python -m repro.ingest`` — stand up a warm sharded corpus.

Thin CLI over :func:`repro.core.ingest.ingest_paths`: parse + index the
given documents, hash-partition them across shard executors
(colocating every multi-document view fragment), register the views,
pre-build skeletons/evaluated tiers, and print the ingest manifest as
JSON.

Example::

    python -m repro.ingest --shards 4 \\
        --view catalog=views/catalog.xq \\
        --snapshot-dir /var/cache/repro-skeletons \\
        --manifest manifest.json \\
        data/*.xml
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.core.ingest import ingest_paths
from repro.errors import ReproError


def _parse_view(spec: str) -> tuple[str, str]:
    name, sep, path = spec.partition("=")
    if not sep or not name or not path:
        raise argparse.ArgumentTypeError(
            f"expected NAME=FILE.xq, got {spec!r}"
        )
    return name, path


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.ingest",
        description="Bulk-ingest XML documents into a sharded, warm corpus.",
    )
    parser.add_argument(
        "documents",
        nargs="+",
        metavar="DOC.xml",
        help="XML document files; the file stem becomes the document name",
    )
    parser.add_argument(
        "--view",
        action="append",
        default=[],
        type=_parse_view,
        metavar="NAME=FILE.xq",
        help="register a view from a definition file (repeatable)",
    )
    parser.add_argument(
        "--shards", type=int, default=4, help="shard count (default: 4)"
    )
    parser.add_argument(
        "--snapshot-dir",
        default=None,
        help="persist per-shard skeleton snapshots under this directory",
    )
    parser.add_argument(
        "--manifest",
        default=None,
        metavar="OUT.json",
        help="also write the manifest to this file",
    )
    args = parser.parse_args(argv)

    try:
        coordinator, report = ingest_paths(
            args.documents,
            dict(args.view),
            shard_count=args.shards,
            snapshot_dir=args.snapshot_dir,
        )
    except (ReproError, OSError) as exc:
        print(f"ingest failed: {exc}", file=sys.stderr)
        return 1
    coordinator.close()
    payload = json.dumps(report.as_dict(), indent=2, sort_keys=True)
    if args.manifest:
        with open(args.manifest, "w") as handle:
            handle.write(payload + "\n")
    print(payload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
