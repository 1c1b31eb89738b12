"""Commit-side FIFO history: pairing instructions by result hash (§IV.B.2).

Each committed result-producing instruction pushes its result hash (plus
its commit sequence number among producers) into a FIFO of the last N
producers.  A committing instruction finds its IDist by comparing its hash
against the FIFO contents.  Matching can return *several* candidate
distances; following §VI.A.2, the search prefers the distance the
instruction was predicted with (propagated in a small dedicated FIFO in
hardware), which filters the noise of per-chance hash matches — the
advantage the FIFO holds over the DDT.

The hardware cost model of §IV.D.2 (comparators per commit group) is
tracked via the commit-group size histogram.
"""

from __future__ import annotations

from collections import deque

from repro.common.bitops import DEFAULT_HASH_BITS
from repro.common.storage import StorageReport, fifo_history_bits


class FifoHistory:
    """Bounded history of (hash, producer-index) with O(1) hash matching.

    Hardware performs N parallel comparisons over its last N producers.
    Software holds the same window: ``_window`` is the FIFO of the last
    ``entries`` hashes, and ``_positions`` indexes each hash in it to
    its producer indices, oldest first.  A push evicts the oldest
    producer from its bucket and deletes a bucket it empties, so at most
    ``entries`` positions are ever held.  Every search is limited to
    ``entries``, and an evicted producer is always older than that, so
    matching is behaviourally identical to the hardware's.
    """

    def __init__(
        self,
        entries: int = 128,
        hash_bits: int = DEFAULT_HASH_BITS,
        csn_bits: int = 10,
    ) -> None:
        if entries <= 0:
            raise ValueError("history needs at least one entry")
        self.entries = entries
        self.hash_bits = hash_bits
        self.csn_bits = csn_bits
        self._count = 0  # producers pushed so far (commit order)
        self._window: deque[int] = deque()  # the last `entries` hashes
        self._positions: dict[int, deque[int]] = {}
        self.searches = 0
        self.matches = 0
        self.preferred_matches = 0
        self.group_size_histogram: dict[int, int] = {}

    # ------------------------------------------------------------------

    @property
    def producer_count(self) -> int:
        return self._count

    def push(self, value_hash: int) -> int:
        """Record one committed producer; returns its producer index."""
        index = self._count
        self.push_group((value_hash,))
        return index

    def push_group(self, hashes) -> None:
        """Record one commit group's producers in a single pass.

        Equivalent to ``push`` per hash, with the counter, the window
        and the positions dict held in locals across the group — the
        batch path the commit loop uses (§IV.D.2 performs the group's N
        pushes in parallel in hardware).
        """
        index = self._count
        positions = self._positions
        window = self._window
        entries = self.entries
        for value_hash in hashes:
            if len(window) == entries:
                evicted = window.popleft()
                bucket = positions[evicted]
                bucket.popleft()
                if not bucket:
                    del positions[evicted]
            window.append(value_hash)
            bucket = positions.get(value_hash)
            if bucket is None:
                positions[value_hash] = deque((index,))
            else:
                bucket.append(index)
            index += 1
        self._count = index

    def find(
        self,
        value_hash: int,
        max_distance: int,
        preferred_distance: int | None = None,
    ) -> int | None:
        """IDist to an older producer with a matching hash, if any.

        *Distances are measured before pushing the searching instruction.*
        When the predicted distance is among the matches it is returned
        (§VI.A.2); otherwise the most recent match (smallest distance) is.
        """
        self.searches += 1
        bucket = self._positions.get(value_hash)
        if not bucket:
            return None
        limit = min(self.entries, max_distance)
        count = self._count
        best: int | None = None
        for index in reversed(bucket):
            distance = count - index
            if distance > limit:
                break
            if best is None:
                best = distance
            if preferred_distance is not None and distance == preferred_distance:
                self.matches += 1
                self.preferred_matches += 1
                return distance
        if best is not None:
            self.matches += 1
        return best

    def find_push_group(
        self, hashes, prefs, max_distance: int
    ) -> list:
        """One fused pass over a commit group: search, then push, per op.

        ``prefs[i]`` encodes the search request for ``hashes[i]``:
        ``-1`` — push only (no search); ``0`` — search without a
        preferred distance; ``> 0`` — search preferring that distance
        (§VI.A.2).  Returns one entry per op (``None`` where no search
        was requested or nothing matched).  Search-then-push order per
        op, and therefore every distance and every counter, is identical
        to interleaved :meth:`find`/:meth:`push` calls; the batch merely
        keeps the window state in locals across the group.
        """
        positions = self._positions
        window = self._window
        entries = self.entries
        count = self._count
        limit = min(entries, max_distance)
        searches = 0
        matches = 0
        preferred_matches = 0
        results = []
        append = results.append
        for value_hash, pref in zip(hashes, prefs):
            # ---- search (distances measured before this op's push) ----
            if pref < 0:
                append(None)
            else:
                searches += 1
                observed = None
                bucket = positions.get(value_hash)
                if bucket:
                    best = None
                    for index in reversed(bucket):
                        distance = count - index
                        if distance > limit:
                            break
                        if best is None:
                            best = distance
                        if distance == pref:
                            preferred_matches += 1
                            best = distance
                            break
                    if best is not None:
                        matches += 1
                        observed = best
                append(observed)
            # ---- push -------------------------------------------------
            if len(window) == entries:
                evicted = window.popleft()
                bucket = positions[evicted]
                bucket.popleft()
                if not bucket:
                    del positions[evicted]
            window.append(value_hash)
            bucket = positions.get(value_hash)
            if bucket is None:
                positions[value_hash] = deque((count,))
            else:
                bucket.append(count)
            count += 1
        self._count = count
        self.searches += searches
        self.matches += matches
        self.preferred_matches += preferred_matches
        return results

    def record_commit_group(self, eligible_in_group: int) -> None:
        """Track commit-group sizes for the comparator-count study."""
        self.group_size_histogram[eligible_in_group] = (
            self.group_size_histogram.get(eligible_in_group, 0) + 1
        )

    def comparator_sufficiency(self, comparators: int) -> float:
        """Fraction of commit groups fully served by *comparators* slots.

        Reproduces §IV.D.2: "6 (resp. 4) comparators are sufficient in more
        than 95% (resp. 70%) of the cases".
        """
        total = sum(self.group_size_histogram.values())
        if not total:
            return 1.0
        served = sum(
            count
            for size, count in self.group_size_histogram.items()
            if size <= comparators
        )
        return served / total

    # ------------------------------------------------------------------

    def storage_report(self) -> StorageReport:
        """Reproduces the 768B (256-entry) / 384B (128-entry) figures."""
        report = StorageReport("FIFO history")
        report.add(
            f"{self.entries} entries × ({self.hash_bits}b hash + "
            f"{self.csn_bits}b CSN)",
            fifo_history_bits(self.entries, self.hash_bits, self.csn_bits),
        )
        return report
