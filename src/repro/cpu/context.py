"""Architectural thread context: the register file and PC."""

from __future__ import annotations

from typing import List, Union

from ..isa.registers import NUM_REGISTERS, ZERO_REGISTER

Number = Union[int, float]


class ThreadContext:
    """One hardware context's architectural state.

    ``r31`` reads as zero and ignores writes (use :meth:`write_reg`).
    """

    __slots__ = ("regs", "pc", "halted")

    def __init__(self, entry: int = 0) -> None:
        self.regs: List[Number] = [0] * NUM_REGISTERS
        self.pc = entry
        self.halted = False

    def write_reg(self, index: int, value: Number) -> None:
        if index != ZERO_REGISTER:
            self.regs[index] = value

    def reset(self, entry: int = 0) -> None:
        for i in range(NUM_REGISTERS):
            self.regs[i] = 0
        self.pc = entry
        self.halted = False
