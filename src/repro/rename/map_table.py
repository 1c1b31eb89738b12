"""Rename map: architectural register → physical register.

The map supports both snapshot/restore (used by tests and by checkpoint
studies) and incremental undo (the pipeline walks the ROB tail-first on a
squash, reversing each instruction's rename effect — the recovery scheme
the ISRB of [11] is designed to coexist with).
"""

from __future__ import annotations

from repro.isa.registers import NUM_ARCH_REGS, XZR, reg_class
from repro.rename.free_list import FreeList


class RenameMap:
    """Current speculative mapping of every architectural register."""

    def __init__(self, free_list: FreeList) -> None:
        self.free_list = free_list
        self._map = [0] * NUM_ARCH_REGS
        for arch in range(NUM_ARCH_REGS):
            if arch == XZR:
                self._map[arch] = free_list.zero_preg
            else:
                preg = free_list.allocate(reg_class(arch))
                if preg is None:
                    raise RuntimeError("free list too small for arch state")
                self._map[arch] = preg

    # ------------------------------------------------------------------

    def lookup(self, arch: int) -> int:
        """Physical register currently holding *arch*."""
        return self._map[arch]

    def rename_dest(self, arch: int, new_preg: int) -> int:
        """Point *arch* at *new_preg*; returns the previous mapping."""
        if arch == XZR:
            raise ValueError("the zero register cannot be renamed")
        old = self._map[arch]
        self._map[arch] = new_preg
        return old

    def undo_rename(self, arch: int, old_preg: int) -> int:
        """Reverse a rename during squash walk-back; returns the preg that
        the squashed instruction had installed."""
        installed = self._map[arch]
        self._map[arch] = old_preg
        return installed

    # ------------------------------------------------------------------

    def snapshot(self) -> tuple[int, ...]:
        return tuple(self._map)

    def restore(self, snapshot: tuple[int, ...]) -> None:
        self._map = list(snapshot)

    def mapped_pregs(self) -> set[int]:
        """All pregs currently reachable through the map."""
        return set(self._map)
