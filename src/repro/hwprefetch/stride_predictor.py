"""PC-indexed stride predictor (Farkas et al. style).

Used by the stream-buffer prefetcher to decide *whether* a missing load is
worth a stream buffer (confidence) and *which* stride the stream should
follow.  This is the "stride predictor" row of the paper's Table 1.

Note this is distinct from the DLT's per-load stride tracking (section
3.3): this one is a small direct-mapped hardware table with 2-bit
confidence, the DLT's uses a 4-bit counter with the paper's asymmetric
+1/−7 update.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional


@dataclass(slots=True)
class _StrideEntry:
    tag: int = -1
    last_addr: int = 0
    stride: int = 0
    confidence: int = 0
    valid: bool = False


class StridePredictor:
    """Direct-mapped stride table with 2-bit saturating confidence."""

    CONFIDENCE_MAX = 3

    def __init__(self, entries: int = 1024) -> None:
        if entries <= 0:
            raise ValueError("predictor needs at least one entry")
        self.entries = entries
        self._table: List[_StrideEntry] = [
            _StrideEntry() for _ in range(entries)
        ]
        self.updates = 0
        self.replacements = 0

    def __getstate__(self):
        """The table pickles as five columns, one per entry field, and
        is rebuilt entry by entry on load: a snapshot then carries a few
        packed lists instead of ``entries`` objects."""
        state = dict(self.__dict__)
        table = self._table
        state["_table"] = (
            [entry.tag for entry in table],
            [entry.last_addr for entry in table],
            [entry.stride for entry in table],
            bytes(entry.confidence for entry in table),
            bytes(entry.valid for entry in table),
        )
        return state

    def __setstate__(self, state) -> None:
        tags, last_addrs, strides, confidences, valids = state["_table"]
        state["_table"] = [
            _StrideEntry(tag, last_addr, stride, confidence, bool(valid))
            for tag, last_addr, stride, confidence, valid in zip(
                tags, last_addrs, strides, confidences, valids
            )
        ]
        self.__dict__.update(state)

    def _entry(self, pc: int) -> _StrideEntry:
        return self._table[pc % self.entries]

    def update(self, pc: int, addr: int) -> None:
        """Train the predictor with one (pc, effective address) pair."""
        self.updates += 1
        entry = self._entry(pc)
        if not entry.valid or entry.tag != pc:
            if entry.valid:
                self.replacements += 1
            entry.tag = pc
            entry.last_addr = addr
            entry.stride = 0
            entry.confidence = 0
            entry.valid = True
            return
        stride = addr - entry.last_addr
        if stride == entry.stride:
            if entry.confidence < self.CONFIDENCE_MAX:
                entry.confidence += 1
        else:
            if entry.confidence > 0:
                entry.confidence -= 1
            else:
                entry.stride = stride
        entry.last_addr = addr

    def predict(self, pc: int, min_confidence: int = 2) -> Optional[int]:
        """Return the predicted stride for ``pc`` when confident enough.

        A zero stride is never returned (nothing to stream)."""
        entry = self._entry(pc)
        if (
            entry.valid
            and entry.tag == pc
            and entry.confidence >= min_confidence
            and entry.stride != 0
        ):
            return entry.stride
        return None

    def confidence_of(self, pc: int) -> int:
        """Current confidence for ``pc`` (0 when untracked)."""
        entry = self._entry(pc)
        if entry.valid and entry.tag == pc:
            return entry.confidence
        return 0
