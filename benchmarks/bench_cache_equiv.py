"""Section 5.4's closing note — monitoring hardware vs more L1.

Paper: spending the DLT and watch-table storage on extra L1 capacity buys
merely +0.8%, far below what the prefetcher earns with the same bits.
"""

from conftest import shapes_asserted


def test_cache_equivalent_area(bench_figure):
    result = bench_figure("cache_equiv")
    if not shapes_asserted():
        return
    # A ~37% bigger L1 moves these working sets very little.
    assert abs(result.mean("speedup") - 1.0) < 0.10
