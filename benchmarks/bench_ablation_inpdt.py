"""Ablation: the InPdt fast path (paper Section 4.2.2.1, optimization 1).

Both arms run the paper's stack automaton
(:mod:`repro.baselines.stack_pdt`) — one algorithm, one flag.  With the
fast path off, every candidate element funnels through the pdt-cache
(pending) machinery and resolves only when its ancestors close.  Output
is identical, and identical to the pipeline's array sweep (asserted in
``tests/test_extensions.py``); this benchmark quantifies the
optimization's effect on PDT generation cost.
"""

import pytest

from repro.baselines.stack_pdt import build_skeleton_stack
from repro.core.pdt import generate_pdt

KEYWORDS = ("thomas", "control")


@pytest.mark.parametrize("fast_path", [True, False], ids=["fast", "no-fast"])
def test_pdt_generation_inpdt(benchmark, efficient, fast_path):
    view = efficient.get_view("bench")

    def build():
        pdts = []
        for doc_name, qpt in view.qpts.items():
            indexed = efficient.database.get(doc_name)
            skeleton = build_skeleton_stack(
                qpt, indexed.path_index, inpdt_fast_path=fast_path
            )
            pdts.append(
                generate_pdt(
                    qpt,
                    indexed.path_index,
                    indexed.inverted_index,
                    KEYWORDS,
                    skeleton=skeleton,
                )
            )
        return pdts

    benchmark(build)
