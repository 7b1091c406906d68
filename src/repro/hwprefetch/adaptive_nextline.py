"""Feedback-directed adaptive-degree next-line prefetcher.

Models ChampSim's ``next_line_linear`` / ``next_line_v2`` adaptive
prefetchers: a two-state controller (STATISTICS / BEST_DEGREE) that
sweeps every prefetch degree in turn, measures each one over a fixed
demand-load window, locks in the winner for a long exploitation window,
and then re-measures — so the degree tracks the workload's phases
instead of being a compile-time constant.

The ChampSim originals score each degree by core IPC; this hierarchy
hook has no core handle, so the score is the demand-load L1 hit rate
over the window — the component of IPC a prefetch degree actually
moves, and a deterministic function of the load stream (which the
differential suites require).

Prefetches are next-line runs of the current degree, stopped at the
page boundary exactly like the ChampSim code.
"""

from __future__ import annotations

from typing import Dict

PAGE_SIZE = 4096
#: Demand loads measured per candidate degree while in STATISTICS.
STATS_WINDOW = 256
#: Demand loads the winning degree runs before the next measurement.
BEST_WINDOW = 8192
DEGREE_MIN = 0
DEGREE_MAX = 4
INITIAL_DEGREE = 1

_STATE_STATISTICS = 0
_STATE_BEST = 1


class AdaptiveNextLinePrefetcher:
    """Next-line prefetching with a measured, phase-adaptive degree."""

    def __init__(
        self,
        hierarchy,
        stats_window: int = STATS_WINDOW,
        best_window: int = BEST_WINDOW,
        max_degree: int = DEGREE_MAX,
    ) -> None:
        self.hierarchy = hierarchy
        self.line_size = hierarchy.l1.line_size
        self.stats_window = stats_window
        self.best_window = best_window
        self.max_degree = max_degree

        self._state = _STATE_STATISTICS
        self.degree = min(INITIAL_DEGREE, max_degree)
        #: The degree currently being measured (STATISTICS only).
        self._probe_degree = self.degree
        self._window_loads = 0
        self._window_hits = 0
        #: degree -> hit rate measured in the current sweep.
        self._scores: Dict[int, float] = {}

        self.prefetches_issued = 0
        self.sweeps_completed = 0
        self.best_degree = self.degree

    # ------------------------------------------------------------------
    def on_demand_load(
        self, pc: int, addr: int, l1_hit: bool, cycle: int
    ) -> None:
        self._window_loads += 1
        if l1_hit:
            self._window_hits += 1
        degree = self.degree
        if degree > 0:
            block = addr - (addr % self.line_size)
            page = addr // PAGE_SIZE
            for step in range(1, degree + 1):
                target = block + step * self.line_size
                if target // PAGE_SIZE != page:
                    break  # never cross the page, as the original does
                if self.hierarchy.hardware_prefetch(target, cycle):
                    self.prefetches_issued += 1
        self._advance()

    # ------------------------------------------------------------------
    def _advance(self) -> None:
        """Run the STATISTICS / BEST_DEGREE state machine."""
        if self._state == _STATE_STATISTICS:
            if self._window_loads < self.stats_window:
                return
            self._scores[self._probe_degree] = (
                self._window_hits / self._window_loads
            )
            self._window_loads = 0
            self._window_hits = 0
            if self._probe_degree < self.max_degree:
                self._probe_degree += 1
                self.degree = self._probe_degree
                return
            # Sweep complete: lock in the winner (ties prefer the
            # smaller degree — less bus pressure for the same hit rate).
            self.best_degree = min(
                self._scores, key=lambda d: (-self._scores[d], d)
            )
            self.degree = self.best_degree
            self._state = _STATE_BEST
            self.sweeps_completed += 1
        else:
            if self._window_loads < self.best_window:
                return
            # Exploitation window over: measure again from degree 0.
            self._window_loads = 0
            self._window_hits = 0
            self._scores = {}
            self._probe_degree = DEGREE_MIN
            self.degree = DEGREE_MIN
            self._state = _STATE_STATISTICS
