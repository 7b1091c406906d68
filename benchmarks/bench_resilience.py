"""Resilience — chaos-testing the self-repair loop.

Halfway through the measured budget every run takes a permanent
+250-cycle DRAM latency hit (a memory-system phase shift injected through
the fault layer).  The claim under test is the motivation for section
3.5.2's repair budget: the basic prefetcher tunes once and is stuck with
a stale distance, while the self-repairing prefetcher re-opens mature
records (phase detection) and climbs back — repairs resume after the
fault and IPC recovers from the post-fault dip.
"""

from conftest import shapes_asserted


def test_resilience(bench_figure):
    result = bench_figure("resilience")
    assert not result.errors, result.errors
    if not shapes_asserted():
        return
    repairs = {
        policy: sum(
            r["repairs_after"] for r in result.rows if r["policy"] == policy
        )
        for policy in ("basic", "self-repairing")
    }
    # The basic policy froze its distances before the fault; only the
    # self-repairing policy fixes them afterwards and recovers more IPC.
    assert repairs["basic"] == 0
    assert repairs["self-repairing"] > 0
    assert (
        result.mean("recovery", policy="self-repairing")
        > result.mean("recovery", policy="basic")
    )
