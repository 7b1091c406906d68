"""Figure 3 / section 5.1 — optimizer overhead and helper activity.

Paper: the helper thread is active ~2.2% of cycles on average; running the
optimizer without ever linking its traces costs only ~0.6%.  Our runs are
~500x shorter than the paper's, so the (front-loaded) optimization
activity is proportionally larger; the claim reproduced is that the
overhead-only slowdown stays small even so.
"""

from conftest import shapes_asserted


def test_fig3_overhead(bench_figure):
    result = bench_figure("fig3_overhead")
    # The optimize-but-don't-link configuration must be nearly free.
    if not shapes_asserted():
        return
    assert result.mean("overhead") < 0.05
