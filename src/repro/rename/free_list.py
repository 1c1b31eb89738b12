"""Physical register identifiers and free-list management.

Table I provisions 235 INT and 235 FP physical registers.  A single
hardwired zero register (never allocated, never freed) sits outside both
pools: zero idioms and zero predictions rename their destination to it
(§III), which is what makes zero "sharing" trivial.

Unified preg numbering: INT pregs occupy ``[0, num_int)``, FP pregs
``[num_int, num_int + num_fp)``, and the zero register is the single id
``num_int + num_fp``.
"""

from __future__ import annotations

from repro.isa.registers import RegClass


class FreeListError(RuntimeError):
    """Raised on double-free or allocation bookkeeping bugs."""


class FreeList:
    """Two-pool physical register free list."""

    def __init__(self, num_int: int = 235, num_fp: int = 235) -> None:
        if num_int <= 32 or num_fp <= 32:
            raise ValueError("need more physical than architectural registers")
        self.num_int = num_int
        self.num_fp = num_fp
        self.zero_preg = num_int + num_fp
        self._free_int = list(range(num_int - 1, -1, -1))
        self._free_fp = list(range(num_int + num_fp - 1, num_int - 1, -1))
        # Allocation state as a flat flag array (preg-indexed): the
        # double-free tripwire without per-operation set hashing.  One
        # extra slot so probing the zero register is well-defined.
        self._allocated = [False] * (num_int + num_fp + 1)

    # ------------------------------------------------------------------

    @property
    def free_int(self) -> int:
        return len(self._free_int)

    @property
    def free_fp(self) -> int:
        return len(self._free_fp)

    def available(self, reg_class: RegClass) -> int:
        return self.free_int if reg_class == RegClass.INT else self.free_fp

    # ------------------------------------------------------------------

    def allocate(self, reg_class: RegClass) -> int | None:
        """Pop a free preg of *reg_class*; None when the pool is empty."""
        pool = self._free_int if reg_class == RegClass.INT else self._free_fp
        if not pool:
            return None
        preg = pool.pop()
        self._allocated[preg] = True
        return preg

    def release(self, preg: int) -> None:
        """Return *preg* to its pool."""
        if preg == self.zero_preg:
            raise FreeListError("the zero register is never freed")
        allocated = self._allocated
        if not allocated[preg]:
            raise FreeListError(f"double free of preg {preg}")
        allocated[preg] = False
        if preg < self.num_int:
            self._free_int.append(preg)
        else:
            self._free_fp.append(preg)
