"""Figure 6 — breakdown of all dynamic loads.

Paper: with the self-repairing prefetcher, partial prefetch hits are rare
(the distance search converged) and misses *caused* by prefetching are
rarer still.
"""

from conftest import shapes_asserted


def test_fig6_breakdown(bench_figure):
    result = bench_figure("fig6_breakdown")
    if not shapes_asserted():
        return
    # Prefetch-caused misses are rare.
    assert result.mean("miss_due_to_prefetch") < 0.05
