"""Figure 2 — baseline speedup of the hardware stream buffers.

Paper: 4x4 stream buffers give +35% over no prefetching on average, 8x8
gives +40%; the 8x8 configuration is the baseline for everything else.
"""

from conftest import shapes_asserted


def test_fig2_hw_baseline(bench_figure):
    result = bench_figure("fig2_hw_baseline")
    # Shape: both configurations help on average.  8x8 wins wherever the
    # paper's mechanism (stream count / depth) binds; a couple of
    # segment-broken pointer chases prefer the shallower 4x4 (less
    # overshoot), so the averages are only required to be comparable.
    if not shapes_asserted():
        return
    assert result.mean("speedup_4x4") > 1.0
    assert result.mean("speedup_8x8") > 1.0
    assert result.mean("speedup_8x8") >= result.mean("speedup_4x4") * 0.90
    # The stream-count-limited workloads must prefer the bigger buffers.
    by_name = {r["workload"]: r for r in result.rows}
    for name in ("galgel", "mgrid", "wupwise"):
        if name in by_name:
            row = by_name[name]
            assert row["speedup_8x8"] >= row["speedup_4x4"] * 0.95
