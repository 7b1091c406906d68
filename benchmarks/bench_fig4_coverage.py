"""Figure 4 — load-miss coverage by hot traces and the prefetcher.

Paper: >85% of load misses fall inside hot traces and ~55% of all misses
are targeted by the software prefetcher; dot and parser have low trace
coverage, gap has low coverage but nearly-complete prefetchability of its
in-trace misses.
"""

from conftest import shapes_asserted


def test_fig4_coverage(bench_figure):
    result = bench_figure("fig4_coverage")
    if not shapes_asserted():
        return
    traced = result.mean("trace_coverage")
    assert 0.0 < result.mean("prefetch_coverage") <= traced
    assert traced > 0.5
