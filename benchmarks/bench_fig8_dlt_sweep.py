"""Figure 8 — sensitivity to the DLT size.

Paper: performance is mostly flat with DLT size, but benchmarks with many
concurrently-hot load sites (dot, parser) want the bigger tables; 1024
entries suffices.
"""

from conftest import shapes_asserted

from repro.harness.experiments import SIZES


def test_fig8_dlt_sweep(bench_figure):
    result = bench_figure("fig8_dlt_sweep")
    if not shapes_asserted():
        return
    biggest = result.mean(max(SIZES))
    smallest = result.mean(min(SIZES))
    # Bigger tables never hurt meaningfully.
    assert biggest >= smallest * 0.95
