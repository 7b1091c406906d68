"""Figure 5 — the headline result.

Paper: over the 8x8 hardware baseline, basic (ADORE-style, one-shot
estimated distance) software prefetching gains +11% on average, whole-
object grouping slightly more, and the self-repairing prefetcher +23% —
with applu/facerec/fma3d gaining nothing *extra* from repair because a
small distance is already optimal for their long loop bodies.
"""

from conftest import shapes_asserted


def test_fig5_policies(bench_figure):
    result = bench_figure("fig5_policies")
    if not shapes_asserted():
        return
    basic = result.mean("basic")
    whole = result.mean("whole_object")
    repaired = result.mean("self_repairing")
    # The paper's ordering: basic <= whole-object <= self-repairing,
    # with self-repairing clearly ahead of basic.
    assert repaired > basic
    assert whole >= basic * 0.98
    assert repaired > 1.05
