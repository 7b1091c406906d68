"""Optimization events and the hardware event queue.

Trident's monitoring hardware communicates with the software optimizer
through *hot events*.  Two kinds matter for this paper:

* :class:`HotTraceEvent` — the branch profiler saw a trace head get hot and
  captured a branch-direction bitmap for it (section 3.2, Trace Formation);
* :class:`DelinquentLoadEvent` — the DLT classified a load inside a linked
  hot trace as delinquent (section 3.3).

The queue is bounded like a hardware structure: when it is full, new events
are dropped (and counted) rather than stalling anything.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Tuple, Union


@dataclass(frozen=True)
class HotTraceEvent:
    """A hot trace head plus its captured branch directions."""

    head_pc: int
    directions: Tuple[bool, ...]
    cycle: float


@dataclass(frozen=True)
class DelinquentLoadEvent:
    """A load in a hot trace crossed the delinquency thresholds."""

    load_pc: int
    trace_id: int
    cycle: float


Event = Union[HotTraceEvent, DelinquentLoadEvent]


@dataclass
class EventQueueStats:
    enqueued: int = 0
    dropped: int = 0
    hot_trace_events: int = 0
    delinquent_load_events: int = 0


class EventQueue:
    """Bounded FIFO of optimization events."""

    def __init__(self, capacity: int = 64) -> None:
        self.capacity = capacity
        self._queue: Deque[Event] = deque()
        self.stats = EventQueueStats()

    def push(self, event: Event) -> bool:
        """Enqueue; returns False (and counts a drop) when full."""
        if len(self._queue) >= self.capacity:
            self.stats.dropped += 1
            return False
        self._queue.append(event)
        self.stats.enqueued += 1
        if isinstance(event, HotTraceEvent):
            self.stats.hot_trace_events += 1
        else:
            self.stats.delinquent_load_events += 1
        return True

    def pop(self) -> Optional[Event]:
        if self._queue:
            return self._queue.popleft()
        return None

    def __len__(self) -> int:
        return len(self._queue)
