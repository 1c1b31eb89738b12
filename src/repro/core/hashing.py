"""Result hashing and the Hash Register File (paper §IV.A, §IV.D.1).

Pairs of equal-result instructions are identified by comparing *hashes* of
results rather than full 64-bit values: mispredictions are allowed, so a
false positive merely trains a distance that validation will later reject.
The fold width is deliberately not a power of two (14 bits by default) so
that 0x0 and -1 do not collide.

The HRF mirrors the physical register file with one n-bit hash per
register: written at writeback (hash computed at the FU output, off the
critical path), read in-order at commit.  In this simulator the HRF's
*content* is derived on demand from trace ground truth; the class tracks
the structure's geometry, storage cost and port activity so the cost
argument of §IV.D.1 is reproducible.
"""

from __future__ import annotations

from repro.common.bitops import DEFAULT_HASH_BITS, fold_hash
from repro.common.storage import StorageReport, hrf_bits


class HashRegisterFile:
    """Geometry + accounting of the HRF; hashing itself is stateless."""

    def __init__(
        self,
        registers: int = 471,  # 235 INT + 235 FP + zero register
        hash_bits: int = DEFAULT_HASH_BITS,
    ) -> None:
        if registers <= 0:
            raise ValueError("HRF needs at least one register")
        self.registers = registers
        self.hash_bits = hash_bits
        self.writes = 0
        self.reads = 0

    def hash_value(self, value: int) -> int:
        """The hash written to the HRF for one result."""
        return fold_hash(value, self.hash_bits)

    def storage_report(self) -> StorageReport:
        report = StorageReport("Hash Register File")
        report.add(
            f"{self.registers} registers × {self.hash_bits}-bit hash",
            hrf_bits(self.registers, self.hash_bits),
        )
        return report


def hash_collision_rate(values: list[int], hash_bits: int) -> float:
    """Fraction of distinct-value pairs that collide under the fold hash.

    Used by the hash-width ablation bench: wider (and non-power-of-two)
    folds produce fewer false-positive pairings.
    """
    if len(values) < 2:
        return 0.0
    collisions = 0
    pairs = 0
    hashes = [fold_hash(v, hash_bits) for v in values]
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if values[i] == values[j]:
                continue
            pairs += 1
            if hashes[i] == hashes[j]:
                collisions += 1
    return collisions / pairs if pairs else 0.0
