"""Load and store queues (Table I: 72-entry LQ, 48-entry SQ, STLF 4 cycles).

Ordering discipline:

* a load may not issue while an older store to the *same word* has not yet
  produced its data; once that store has executed, the load forwards from
  it with the 4-cycle store-to-load latency;
* older stores whose addresses are still unknown (not yet issued) do not
  block a load unless the Store Sets predictor says so — if the gamble is
  wrong, the store detects the ordering violation when it executes and the
  pipeline squashes from the offending load (training Store Sets).

Because the timing model is trace-driven, every queue entry's effective
address is known at dispatch, so conflict checks are indexed by word: each
queue keeps a side map from word address to its (age-ordered) entries and
a conflict scan only walks the same-word bucket instead of the whole
queue.  Bucket order mirrors queue order, so results are identical to the
full scans they replace.
"""

from __future__ import annotations

WORD_SHIFT = 3  # conflict detection at 8-byte granularity


class LoadStoreQueues:
    """Bounded LQ/SQ with forwarding and violation detection."""

    def __init__(
        self,
        lq_capacity: int = 72,
        sq_capacity: int = 48,
        stlf_latency: int = 4,
    ) -> None:
        self.lq_capacity = lq_capacity
        self.sq_capacity = sq_capacity
        self.stlf_latency = stlf_latency
        self._loads: list = []
        self._stores: list = []
        self._loads_by_word: dict[int, list] = {}
        self._stores_by_word: dict[int, list] = {}
        self.forwards = 0
        self.violations = 0

    # ------------------------------------------------------------------

    @property
    def lq_full(self) -> bool:
        return len(self._loads) >= self.lq_capacity

    @property
    def sq_full(self) -> bool:
        return len(self._stores) >= self.sq_capacity

    @property
    def lq_occupancy(self) -> int:
        return len(self._loads)

    def add_load(self, op) -> None:
        if self.lq_full:
            raise OverflowError("LQ overflow")
        self._loads.append(op)
        word = op.d.addr >> WORD_SHIFT
        bucket = self._loads_by_word.get(word)
        if bucket is None:
            self._loads_by_word[word] = [op]
        else:
            bucket.append(op)

    def add_store(self, op) -> None:
        if self.sq_full:
            raise OverflowError("SQ overflow")
        self._stores.append(op)
        word = op.d.addr >> WORD_SHIFT
        bucket = self._stores_by_word.get(word)
        if bucket is None:
            self._stores_by_word[word] = [op]
        else:
            bucket.append(op)

    def remove(self, op) -> None:
        """Drop *op* at commit."""
        word = op.d.addr >> WORD_SHIFT
        if op.d.is_load:
            self._loads.remove(op)
            bucket = self._loads_by_word[word]
            bucket.remove(op)
            if not bucket:
                del self._loads_by_word[word]
        else:
            self._stores.remove(op)
            bucket = self._stores_by_word[word]
            bucket.remove(op)
            if not bucket:
                del self._stores_by_word[word]

    def squash(self, min_seq: int) -> None:
        """Drop all entries with sequence number >= *min_seq*."""
        self._loads = [o for o in self._loads if o.d.seq < min_seq]
        self._stores = [o for o in self._stores if o.d.seq < min_seq]
        self._rebuild_buckets()

    def _rebuild_buckets(self) -> None:
        loads_by_word: dict[int, list] = {}
        for op in self._loads:
            loads_by_word.setdefault(op.d.addr >> WORD_SHIFT, []).append(op)
        stores_by_word: dict[int, list] = {}
        for op in self._stores:
            stores_by_word.setdefault(op.d.addr >> WORD_SHIFT, []).append(op)
        self._loads_by_word = loads_by_word
        self._stores_by_word = stores_by_word

    # ------------------------------------------------------------------

    def blocking_store(self, load_op):
        """The youngest older same-word store that has not executed yet.

        Such a store *will* forward; the load must wait for its data.
        """
        bucket = self._stores_by_word.get(load_op.d.addr >> WORD_SHIFT)
        if not bucket:
            return None
        load_seq = load_op.d.seq
        blocking = None
        for store in bucket:
            if store.d.seq >= load_seq:
                break
            if not store.executed:
                blocking = store
        return blocking

    def forwarding_store(self, load_op, cycle: int):
        """The youngest older executed same-word store, if its data is
        available by *cycle* (store-to-load forwarding)."""
        bucket = self._stores_by_word.get(load_op.d.addr >> WORD_SHIFT)
        if not bucket:
            return None
        load_seq = load_op.d.seq
        source = None
        for store in bucket:
            if store.d.seq >= load_seq:
                break
            if store.executed:
                source = store
        return source  # may still be completing; caller checks timing

    def find_violations(self, store_op) -> list:
        """Younger same-word loads that already issued: ordering violations.

        Called when *store_op* executes.  Returns the violating loads,
        oldest first (the squash restarts at the oldest one).
        """
        bucket = self._loads_by_word.get(store_op.d.addr >> WORD_SHIFT)
        if not bucket:
            return []
        store_seq = store_op.d.seq
        violators = [
            load
            for load in bucket
            if load.d.seq > store_seq and load.issued
        ]
        if violators:
            self.violations += len(violators)
            violators.sort(key=lambda o: o.d.seq)
        return violators
