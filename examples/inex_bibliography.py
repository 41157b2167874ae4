"""The paper's evaluation scenario: articles nested under their authors.

Generates the synthetic INEX-like collection (Section 5.1's DTD), defines
the default evaluation view (articles joined to authors and nested under
them), and runs the same keyword query through all three engines —
Efficient, Baseline (materialize-then-search) and GTP+TermJoin — verifying
that they agree on every score while differing in cost.

Run:  python examples/inex_bibliography.py
"""

import time

from repro import KeywordSearchEngine
from repro.baselines.gtp import GTPEngine
from repro.baselines.naive import BaselineEngine
from repro.core import build_skeleton
from repro.workloads.inex import INEXConfig, generate_inex_database
from repro.workloads.views import authors_articles_view


def main() -> None:
    print("generating + indexing the synthetic INEX collection …")
    start = time.perf_counter()
    db = generate_inex_database(INEXConfig(scale=2))
    print(f"  done in {time.perf_counter() - start:.2f}s")
    for name, stats in db.statistics().items():
        print(f"  {name:15s} elements={stats['elements']:6d} "
              f"vocabulary={stats['vocabulary']:5d}")

    view_text = authors_articles_view(num_joins=1)
    keywords = ["thomas", "control"]

    efficient = KeywordSearchEngine(db)
    baseline = BaselineEngine(db)
    gtp = GTPEngine(db)
    eview = efficient.define_view("pubs", view_text)
    bview = baseline.define_view("pubs", view_text)
    gview = gtp.define_view("pubs", view_text)

    print(f"\nkeyword query: {keywords} (conjunctive), top-10\n")

    start = time.perf_counter()
    eout = efficient.search_detailed(eview, keywords, top_k=10)
    efficient_time = time.perf_counter() - start

    start = time.perf_counter()
    bout = baseline.search_detailed(bview, keywords, top_k=10)
    baseline_time = time.perf_counter() - start

    start = time.perf_counter()
    gout = gtp.search_detailed(gview, keywords, top_k=10)
    gtp_time = time.perf_counter() - start

    print(f"{'strategy':12s} {'seconds':>9s} {'view size':>10s} {'hits':>6s}")
    print(f"{'efficient':12s} {efficient_time:9.4f} {eout.view_size:10d} "
          f"{len(eout.results):6d}")
    print(f"{'baseline':12s} {baseline_time:9.4f} {bout.view_size:10d} "
          f"{len(bout.results):6d}")
    print(f"{'gtp':12s} {gtp_time:9.4f} {gout.view_size:10d} "
          f"{len(gout.results):6d}")

    escores = [(r.rank, round(r.score, 10)) for r in eout.results]
    bscores = [(r.rank, round(r.score, 10)) for r in bout.results]
    gscores = [(r.rank, round(r.score, 10)) for r in gout.results]
    assert escores == bscores == gscores, "engines disagree!"
    print("\nall three strategies produced identical rankings "
          "(Theorem 4.1 in action);")
    print(f"baseline/efficient = {baseline_time / efficient_time:.1f}x, "
          f"gtp/efficient = {gtp_time / efficient_time:.1f}x")

    pdt_total = sum(
        build_skeleton(qpt, db.get(doc).path_index).node_count
        for doc, qpt in eview.qpts.items()
    )
    data_total = sum(
        len(db.get(doc).store) for doc in eview.qpts
    )
    print(f"PDT kept {pdt_total} of {data_total} elements "
          f"({100 * pdt_total / data_total:.1f}%)")

    print("\ntop results:")
    for hit in eout.results[:3]:
        name = next(
            n
            for n in hit.materialize().iter()
            if n.tag == "name" and n.value is not None
        )
        print(f"  #{hit.rank} score={hit.score:.6f} author={name.value!r}")


if __name__ == "__main__":
    main()
