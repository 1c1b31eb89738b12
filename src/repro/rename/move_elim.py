"""Move elimination (§IV.H.1).

64-bit register-register moves are executed *at rename* by mapping the
destination architectural register to the source's physical register.
This is non-speculative (the move semantics are visible at decode), needs
no validation, and the move never occupies an issue slot.  It relies on
the same sharing substrate (ISRB) as RSEP: the source preg gains an owner.
A move of the zero register (its source renamed to the zero preg by a
zero idiom or a zero prediction) maps to the zero preg without the ISRB,
as RSEP's sharing does: that preg is never allocated or freed, so an
entry for it would never be released.

The paper enables move elimination whenever RSEP is enabled and excludes
eliminated moves from distance prediction.
"""

from __future__ import annotations

from repro.isa.instruction import DynInst
from repro.rename.isrb import Isrb
from repro.rename.map_table import RenameMap


class MoveEliminator:
    """Rename-stage move elimination backed by ISRB reference counting."""

    def __init__(self, rename_map: RenameMap, isrb: Isrb) -> None:
        self._rename_map = rename_map
        self._isrb = isrb
        self._zero_preg = rename_map.free_list.zero_preg
        self.eliminated = 0
        self.rejected = 0

    def try_eliminate(self, op: DynInst) -> int | None:
        """Attempt to eliminate the move *op* at rename.

        On success returns the physical register now mapped to the move's
        destination (the caller records the old mapping for commit and
        squash handling): the source's preg, shared through the ISRB, or
        the zero preg, which needs no sharing.  Returns None when the ISRB
        cannot accept another sharer — the move then renames and executes
        normally.
        """
        if not op.move:
            return None
        source_preg = self._rename_map.lookup(op.src1)
        if source_preg != self._zero_preg and not self._isrb.share(
            source_preg
        ):
            self.rejected += 1
            return None
        self.eliminated += 1
        return source_preg
