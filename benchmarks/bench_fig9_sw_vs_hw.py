"""Figure 9 — software vs hardware prefetching, both over no prefetching.

Paper: self-repairing software prefetching alone beats the 8x8 hardware
stream buffers on most benchmarks (+11% more speedup on average), but
dot, equake and swim favour hardware (simple stride patterns with short
distances, or too little trace coverage); the combination wins overall.
"""

from conftest import shapes_asserted


def test_fig9_sw_vs_hw(bench_figure):
    result = bench_figure("fig9_sw_vs_hw")
    if not shapes_asserted():
        return
    hw = result.mean("hw_only")
    combined = result.mean("combined")
    assert hw > 1.0
    assert combined >= hw  # SW on top of HW never loses on average
