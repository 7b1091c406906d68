"""Differential test: the GHB prefetcher's delta-pair index prune against
a copy of the prune it replaced.

``GHBPrefetcher._train_and_prefetch`` keeps stale delta pairs (pairs
whose last position scrolled out of the history buffer) until the index
holds twice the buffer, then drops them all in one rebuild.
``_ReferenceGHB`` rebuilds as soon as the index outgrows the buffer, as
the code did before.  A stale pair and a missing pair both return before
anything is counted or issued, so Hypothesis drives both with the same
random miss stream and requires the same prefetch requests in the same
order, the same counters and degree, and the same live pairs, while the
index never exceeds twice the buffer.

The example budget scales with ``REPRO_FUZZ_EXAMPLES`` like the scenario
fuzz (CI runs 200; the local default keeps the suite fast).
"""

from __future__ import annotations

import os
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.hwprefetch.ghb import GHBPrefetcher

MAX_EXAMPLES = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "25"))

LINE = 64


class _ReferenceGHB(GHBPrefetcher):
    """``_train_and_prefetch`` as it was before: the index is rebuilt
    whenever it holds more pairs than the buffer has entries."""

    def _train_and_prefetch(self, block: int, cycle: int) -> None:
        last = self._last_block
        self._last_block = block
        if last is None or last == block:
            return
        delta = (block - last) // self.line_size
        pos = self._pos
        self._deltas[pos % self.ghb_size] = delta
        self._pos = pos + 1
        if pos < 1:
            return
        prev_delta = self._deltas[(pos - 1) % self.ghb_size]
        key = (prev_delta, delta)
        match = self._index.get(key)
        self._index[key] = pos
        if len(self._index) > self.ghb_size:
            self._index = {
                k: p
                for k, p in self._index.items()
                if self._pos - p < self.ghb_size
            }
        degree = self.degree
        if match is None or degree <= 0:
            return
        if self._pos - match >= self.ghb_size:
            return
        self.correlations_matched += 1
        base = block
        for step in range(1, degree + 1):
            follow = match + step
            if follow >= pos:
                break
            base += self._deltas[follow % self.ghb_size] * self.line_size
            if base < 0:
                break
            if self.hierarchy.hardware_prefetch(base, cycle):
                self.prefetches_issued += 1
                self._tag(self._block(base))


class _Hierarchy:
    """Records every hardware_prefetch request and refuses every
    ``refuse``-th block, so issued and refused requests both occur."""

    def __init__(self, refuse: int) -> None:
        self.l1 = SimpleNamespace(line_size=LINE)
        self.requests = []
        self.refuse = refuse

    def hardware_prefetch(self, addr: int, cycle: int) -> bool:
        self.requests.append((addr, cycle))
        return (addr // LINE) % self.refuse != 0


def _live(ghb):
    return {
        key: pos
        for key, pos in ghb._index.items()
        if ghb._pos - pos < ghb.ghb_size
    }


#: Line deltas: a few small repeating ones (pairs recur and match) and
#: a wide range (fresh pairs fill the index past the buffer).
_DELTAS = st.one_of(
    st.sampled_from((1, 2, -1, 3)),
    st.integers(min_value=-400, max_value=400),
)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    ghb_size=st.sampled_from((4, 16, 64)),
    refuse=st.integers(min_value=2, max_value=5),
    stream=st.lists(
        st.tuples(_DELTAS, st.booleans(), st.integers(0, LINE - 1)),
        min_size=1,
        max_size=600,
    ),
)
def test_deferred_prune_matches_eager_prune(ghb_size, refuse, stream):
    pair = []
    for cls in (GHBPrefetcher, _ReferenceGHB):
        hierarchy = _Hierarchy(refuse)
        pair.append(
            (cls(hierarchy, ghb_size=ghb_size, calibration_interval=32),
             hierarchy)
        )
    (ghb, hierarchy), (ref, ref_hierarchy) = pair
    block = 1 << 24
    for cycle, (delta, hit, offset) in enumerate(stream):
        block += delta * LINE
        for prefetcher in (ghb, ref):
            prefetcher.on_demand_load(7, block + offset, hit, cycle)
        assert len(ghb._index) <= 2 * ghb_size
        assert _live(ghb) == _live(ref)
    assert hierarchy.requests == ref_hierarchy.requests
    for name in ("correlations_matched", "prefetches_issued", "degree",
                 "calibrations", "_tagged"):
        assert getattr(ghb, name) == getattr(ref, name), name


def test_index_stays_within_twice_the_buffer_on_a_long_random_walk():
    """At the default buffer size the index grows past the buffer, is
    pruned, and never holds more than twice the buffer's pairs."""
    ghb = GHBPrefetcher(_Hierarchy(refuse=3))
    block, seed, peak, prunes = 1 << 30, 12345, 0, 0
    for cycle in range(20_000):
        seed = (seed * 1103515245 + 12345) % (1 << 31)
        block += ((seed >> 8) % 801 - 400) * LINE
        before = len(ghb._index)
        ghb.on_demand_load(3, block, False, cycle)
        prunes += len(ghb._index) < before
        peak = max(peak, len(ghb._index))
    assert ghb.ghb_size < peak <= 2 * ghb.ghb_size
    assert prunes >= 1
