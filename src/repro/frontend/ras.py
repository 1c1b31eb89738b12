"""Return Address Stack: 32 entries (Table I), circular, checkpointable."""

from __future__ import annotations


class ReturnAddressStack:
    """Circular return-address stack.

    On a squash the top-of-stack pointer is restored from the checkpoint
    taken at prediction time (the usual low-cost recovery scheme; entry
    contents can still be clobbered by wrong-path pushes, which is a real
    and accepted source of RAS mispredictions).
    """

    def __init__(self, entries: int = 32) -> None:
        if entries <= 0:
            raise ValueError("RAS needs at least one entry")
        self._entries = entries
        self._stack = [0] * entries
        self._top = 0  # index of the next free slot

    def push(self, return_pc: int) -> None:
        self._stack[self._top % self._entries] = return_pc
        self._top += 1

    def pop(self) -> int:
        """Predict a return target (and pop)."""
        if self._top > 0:
            self._top -= 1
        return self._stack[self._top % self._entries]

    def checkpoint(self) -> int:
        """Capture the pointer for squash recovery."""
        return self._top

    def restore(self, checkpoint: int) -> None:
        self._top = checkpoint
