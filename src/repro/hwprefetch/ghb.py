"""GHB/delta-correlation prefetcher with countdown degree calibration.

The classic two-level design from the "Arsenal of Hardware Prefetchers"
family: a Global History Buffer records the block-delta stream of demand
misses, and a delta-pair index finds the last time the current two-delta
pattern occurred.  On a match, the deltas that *followed* the previous
occurrence are replayed forward from the current block — correlation
prefetching that captures repeating irregular walks a stride predictor
cannot.

The prefetch degree is not fixed: a countdown calibrator (the
TDT4260-style CALIBRATION_INTERVAL scheme) measures, per interval, how
many issued prefetches were actually consumed by later demand loads and
walks the degree up on good accuracy (short countdown — react fast to a
prefetchable phase) or down on bad accuracy (long countdown — don't
thrash on noise).

Deterministic and snapshot-safe: plain-attribute state only, no clocks,
no randomness — the differential suites hold every zoo policy to
byte-identical fast-vs-slow and resume-vs-cold runs.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

#: Entries in the global (miss) history buffer.
GHB_SIZE = 1024
#: Demand loads per calibration interval.
CALIBRATION_INTERVAL = 2048
#: Degree bounds and start (the calibrator moves within these).
DEGREE_MIN = 0
DEGREE_DEFAULT = 2
DEGREE_MAX = 16
#: Calibration intervals before a degree step is allowed: short on the
#: way up (grab a prefetchable phase quickly), long on the way down.
COUNTDOWN_SHORT = 4
COUNTDOWN_LONG = 16
#: Issued-prefetch accuracy bands steering the degree.
ACCURACY_RAISE = 0.5
ACCURACY_LOWER = 0.2
#: Issued prefetches an interval needs before accuracy is trusted.
MIN_ISSUED_SAMPLE = 8
#: Outstanding prefetched-block tags kept for accuracy accounting.
TAG_LIMIT = 2048


class GHBPrefetcher:
    """Delta-correlation prefetching over a global miss-history buffer."""

    def __init__(
        self,
        hierarchy,
        ghb_size: int = GHB_SIZE,
        degree: int = DEGREE_DEFAULT,
        calibration_interval: int = CALIBRATION_INTERVAL,
    ) -> None:
        self.hierarchy = hierarchy
        self.line_size = hierarchy.l1.line_size
        self.ghb_size = ghb_size
        self.degree = degree
        self.calibration_interval = calibration_interval

        #: Circular delta history: slot i holds the block delta (in
        #: lines) between consecutive distinct miss blocks.
        self._deltas = [0] * ghb_size
        #: Monotonic append counter; slot = position % ghb_size.
        self._pos = 0
        #: Delta-pair -> absolute position of its last occurrence.
        self._index: Dict[Tuple[int, int], int] = {}
        self._last_block: Optional[int] = None

        # Countdown calibrator state (interval-local counters reset at
        # each calibration point).
        self._countdown = COUNTDOWN_SHORT
        self._interval_loads = 0
        self._interval_issued_hits = 0
        self._interval_issued = 0
        #: Blocks with an outstanding "was this prefetch consumed?" tag.
        self._tagged: "OrderedDict[int, bool]" = OrderedDict()

        # Lifetime counters (unit-test observability).
        self.prefetches_issued = 0
        self.correlations_matched = 0
        self.calibrations = 0

    # ------------------------------------------------------------------
    def _block(self, addr: int) -> int:
        return addr - (addr % self.line_size)

    def on_demand_load(
        self, pc: int, addr: int, l1_hit: bool, cycle: int
    ) -> None:
        block = self._block(addr)
        tagged = self._tagged
        if block in tagged:
            del tagged[block]
            if l1_hit:
                self._interval_issued_hits += 1
        self._interval_loads += 1
        if not l1_hit:
            self._train_and_prefetch(block, cycle)
        if self._interval_loads >= self.calibration_interval:
            self._calibrate()

    # ------------------------------------------------------------------
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
        if len(self._index) > 2 * self.ghb_size:
            # A stale pair (one whose position scrolled out of the
            # buffer) returns below exactly as a missing one does, so
            # stale pairs are dropped wholesale only once the index is
            # twice the buffer: at most ``ghb_size`` pairs are live, so
            # each rebuild drops at least ``ghb_size`` stale ones.
            self._index = {
                k: p
                for k, p in self._index.items()
                if self._pos - p < self.ghb_size
            }
        degree = self.degree
        if match is None or degree <= 0:
            return
        # Replay the deltas that followed the previous occurrence of
        # this delta pair, as far as history reaches and degree allows.
        if self._pos - match >= self.ghb_size:
            return  # the match scrolled out of the buffer
        self.correlations_matched += 1
        base = block
        for step in range(1, degree + 1):
            follow = match + step
            if follow >= pos:
                break  # would read deltas that don't exist yet
            base += self._deltas[follow % self.ghb_size] * self.line_size
            if base < 0:
                break
            if self.hierarchy.hardware_prefetch(base, cycle):
                self.prefetches_issued += 1
                self._tag(self._block(base))

    def _tag(self, block: int) -> None:
        tagged = self._tagged
        tagged[block] = True
        self._interval_issued += 1
        if len(tagged) > TAG_LIMIT:
            tagged.popitem(last=False)

    # ------------------------------------------------------------------
    def _calibrate(self) -> None:
        """One calibration point: steer the degree by issued accuracy."""
        issued = self._interval_issued
        hits = self._interval_issued_hits
        self._interval_loads = 0
        self._interval_issued = 0
        self._interval_issued_hits = 0
        self.calibrations += 1
        self._countdown -= 1
        if self._countdown > 0:
            return
        if issued < MIN_ISSUED_SAMPLE:
            # Too few prefetches to judge: at degree 0 (or in a phase
            # with no correlations) probe upward so the prefetcher can
            # re-engage when the pattern returns.
            if self.degree < DEGREE_MAX:
                self.degree += 1
            self._countdown = COUNTDOWN_SHORT
            return
        accuracy = hits / issued
        if accuracy >= ACCURACY_RAISE and self.degree < DEGREE_MAX:
            self.degree += 1
            self._countdown = COUNTDOWN_SHORT
        elif accuracy < ACCURACY_LOWER and self.degree > DEGREE_MIN:
            self.degree -= 1
            self._countdown = COUNTDOWN_LONG
        else:
            self._countdown = COUNTDOWN_SHORT
