"""POWER7-style runtime prefetcher reconfiguration.

POWER7 exposes its hardware prefetcher's aggressiveness as a software-
visible setting (the DSCR depth field) that runtimes tune per program
phase.  This policy models the *tuned engine*: a stride-directed
sequential prefetcher whose depth is not fixed but selected by a phase
controller.

Every epoch of demand loads the controller measures the miss rate,
maps it onto a depth ladder (hot miss phases earn deep prefetching,
cache-resident phases switch the engine nearly off), and — when the
miss rate shifts sharply between epochs — declares a phase change and
retrains the stride tables from scratch, because stride history
learned in the old phase misdirects the new one.

The inner engine reuses the repo's :class:`StridePredictor` (the same
Farkas-style table the stream buffers allocate from), so its corner
cases — negative-stride learning, direct-mapped aliasing — are shared,
tested substrate, not new code.
"""

from __future__ import annotations

from .stride_predictor import StridePredictor

#: Demand loads per phase-evaluation epoch.
EPOCH_LOADS = 1024
#: The depth ladder (POWER7's DSCR depth field, abstracted): the phase
#: controller picks one rung per epoch from the measured miss rate.
DEPTHS = (0, 1, 2, 4, 6)
#: Miss-rate band edges separating the ladder's rungs.
MISS_RATE_BANDS = (0.01, 0.05, 0.15, 0.30)
#: Relative miss-rate shift between epochs that declares a phase change.
PHASE_SHIFT = 0.5
#: Stride-predictor table size for the inner engine.
STRIDE_ENTRIES = 256


class PhaseReconfigPrefetcher:
    """Stride-directed prefetching under per-phase depth reconfiguration."""

    def __init__(
        self,
        hierarchy,
        epoch_loads: int = EPOCH_LOADS,
        depths: tuple = DEPTHS,
        stride_entries: int = STRIDE_ENTRIES,
    ) -> None:
        self.hierarchy = hierarchy
        self.line_size = hierarchy.l1.line_size
        self.epoch_loads = epoch_loads
        self.depths = tuple(depths)

        self.strides = StridePredictor(entries=stride_entries)
        #: Start mid-ladder: the first epoch has no measurement yet.
        self.depth = self.depths[len(self.depths) // 2]

        self._epoch_loads_seen = 0
        self._epoch_misses = 0
        self._last_miss_rate = None

        self.prefetches_issued = 0
        self.reconfigurations = 0
        self.phase_switches = 0

    # ------------------------------------------------------------------
    def on_demand_load(
        self, pc: int, addr: int, l1_hit: bool, cycle: int
    ) -> None:
        self._epoch_loads_seen += 1
        if not l1_hit:
            self._epoch_misses += 1
            self.strides.update(pc, addr)
            depth = self.depth
            if depth > 0:
                stride = self.strides.predict(pc)
                if stride is not None:
                    target = addr
                    for _step in range(depth):
                        target += stride
                        if target < 0:
                            break
                        if self.hierarchy.hardware_prefetch(target, cycle):
                            self.prefetches_issued += 1
        if self._epoch_loads_seen >= self.epoch_loads:
            self._reconfigure()

    # ------------------------------------------------------------------
    def _depth_for(self, miss_rate: float) -> int:
        for rung, edge in enumerate(MISS_RATE_BANDS):
            if miss_rate < edge:
                return self.depths[min(rung, len(self.depths) - 1)]
        return self.depths[-1]

    def _reconfigure(self) -> None:
        """Close the epoch: pick a depth, detect phase changes."""
        miss_rate = self._epoch_misses / self._epoch_loads_seen
        self._epoch_loads_seen = 0
        self._epoch_misses = 0
        new_depth = self._depth_for(miss_rate)
        if new_depth != self.depth:
            self.depth = new_depth
            self.reconfigurations += 1
        last = self._last_miss_rate
        self._last_miss_rate = miss_rate
        if last is None:
            return
        shift = abs(miss_rate - last)
        if shift > PHASE_SHIFT * max(last, 0.005):
            # Sharp shift: the working set changed, old stride history
            # misleads — retrain from empty, exactly what a runtime
            # rewriting the DSCR on a phase boundary achieves.
            self.phase_switches += 1
            self.strides = StridePredictor(entries=self.strides.entries)
