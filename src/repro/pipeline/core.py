"""The cycle-level out-of-order pipeline (Fig. 3 with Table I resources).

Trace-driven timing model: the committed-path instruction stream from the
functional interpreter is replayed through real structural resources —
8-wide fetch/rename/commit, 192-entry ROB, 60-entry IQ, 72/48-entry LQ/SQ,
235+235 physical registers, the Table I port mix, TAGE front end and the
three-level cache hierarchy.  All speculation (branch direction/target,
zero, distance/equality, value) uses real predictors and is resolved
against trace ground truth; mispredictions squash exactly as the paper
prescribes (commit-time validation, full flush).

Stage order within a cycle is commit → issue → rename → fetch, which
enforces the usual one-cycle minimum between dispatch and issue and between
writeback and commit.

Scheduling is event-driven (see DESIGN.md §3): instead of re-evaluating
operand readiness for every IQ entry on every cycle, each dispatched
instruction is parked on the structure that will produce its wakeup —

* a per-preg waiter list while a source's completion cycle is unknown
  (its producer has not issued yet);
* a wakeup map keyed by completion cycle once every source's ready time
  is known;
* the ready list (kept oldest-first) once it can actually issue.

Loads additionally depend on LSQ state (store-set dependences, same-word
blocking stores, forwarding timing), which is not a pure function of
completion times, so a register-ready load stays in the ready list and has
those conditions re-checked each cycle — exactly the conditions the old
poll-everything scheduler evaluated, on a far smaller set of candidates.
Selection order, port arbitration and all readiness predicates are
unchanged, which is what keeps statistics bit-identical.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush

from repro.backend.fu import IssuePorts
from repro.backend.iq import IssueQueue
from repro.backend.lsq import WORD_SHIFT, LoadStoreQueues
from repro.backend.rob import ReorderBuffer
from repro.backend.store_sets import StoreSets
from repro.common.history import GlobalHistory, PathHistory
from repro.common.rng import XorShift64
from repro.core.rsep import RsepUnit
from repro.core.sharing import ProducerWindow
from repro.core.validation import ValidationMode, ValidationQueue
from repro.core.vp_engine import VpEngine
from repro.frontend.branch_unit import BranchUnit
from repro.isa.instruction import DynInst, NO_REG
from repro.isa.opcodes import FuClass
from repro.isa.registers import FP_BASE, RegClass, reg_class
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.config import CoreConfig, MechanismConfig
from repro.pipeline.genrename import install_fast_stages
from repro.pipeline.stats import Stats
from repro.predictors.zero import ZeroPredictor
from repro.rename.free_list import FreeList
from repro.rename.isrb import Isrb
from repro.rename.map_table import RenameMap
from repro.rename.move_elim import MoveEliminator
from repro.rename.zero_idiom import ZeroIdiomEliminator
from repro.workloads.columnar import KIND_BRANCH, ColumnarTrace
from repro.workloads.trace import Trace

_INF = 1 << 60


def _op_seq(op) -> int:
    """Sort key: age order == trace sequence order."""
    return op.d.seq


class PipelineError(RuntimeError):
    """Raised on internal inconsistencies (bugs) or deadlock."""


class InflightOp:
    """Timing and rename state of one in-flight dynamic instruction."""

    # Dispatch-creation cost was re-examined for PR 4 (DESIGN.md §9):
    # prototype-clone (__dict__ copy), class-default fallback and a
    # hybrid (hot slots + cold class defaults) were all measured slower
    # than flat __slots__ with an explicit __init__ on CPython 3.11 —
    # slot access specialisation outweighs the creation-time writes,
    # and dict-backed variants regress the rsep configs outright.  The
    # creation path is instead inlined into columnar fetch (no
    # call/frame overhead), which is what "slim dispatch" ended up
    # meaning; edit both together.
    __slots__ = (
        "d", "trace_index", "rename_ready_cycle",
        "src_preg1", "src_preg2", "dest_preg", "old_preg",
        "allocated", "shared", "eliminated",
        "zero_pred", "zero_pred_used",
        "dist_pred", "dist_used", "likely_candidate",
        "producer", "equality_ok",
        "vp_pred", "vp_used", "vp_ok",
        "fetch_outcome",
        "issued", "complete_cycle",
        "executed", "validation_done_cycle", "retained",
        "store_dep", "forward_from",
        "committed", "squashed",
        "waiters", "iq_index",
    )

    def __init__(self, d: DynInst, trace_index: int,
                 rename_ready_cycle: int) -> None:
        self.d = d
        self.trace_index = trace_index
        self.rename_ready_cycle = rename_ready_cycle
        # Renamed source pregs (NO_REG = fewer than 1/2 sources); two
        # scalar slots instead of a tuple keep dispatch allocation-free.
        self.src_preg1 = NO_REG
        self.src_preg2 = NO_REG
        self.dest_preg = NO_REG
        self.old_preg = NO_REG
        self.allocated = False
        self.shared = False
        self.eliminated = None
        self.zero_pred = None
        self.zero_pred_used = False
        self.dist_pred = None
        self.dist_used = False
        self.likely_candidate = False
        self.producer = None
        self.equality_ok = False
        self.vp_pred = None
        self.vp_used = False
        self.vp_ok = False
        self.fetch_outcome = None
        self.issued = False
        self.complete_cycle = None
        self.executed = False
        self.validation_done_cycle = None
        self.retained = False
        self.store_dep = None
        self.forward_from = None
        self.committed = False
        self.squashed = False
        # Scheduler subscribers: ops whose issue eligibility becomes
        # computable once this op's completion cycle is known.
        self.waiters = None
        self.iq_index = -1

    @property
    def validation_required(self) -> bool:
        return self.dist_used or (
            self.likely_candidate and self.producer is not None
        )


class Pipeline:
    """One simulated core running one trace."""

    def __init__(
        self,
        trace: Trace | ColumnarTrace,
        config: CoreConfig | None = None,
        mechanisms: MechanismConfig | None = None,
        seed: int = 1,
    ) -> None:
        self.trace = trace
        if isinstance(trace, ColumnarTrace):
            # Columnar trace plane (DESIGN.md §9): fetch reads the packed
            # columns directly; rows materialise lazily per fetched
            # index.  Bound as an instance attribute so the per-cycle
            # dispatch costs nothing.
            self._fetch = self._fetch_columnar
        self.config = config or CoreConfig()
        self.mechanisms = mechanisms or MechanismConfig.baseline()
        c = self.config
        m = self.mechanisms

        rng = XorShift64(0xFACE ^ (seed * 0x9E3779B97F4A7C15))
        self.history = GlobalHistory()
        self.path = PathHistory()
        self.branch_unit = BranchUnit(
            self.history, self.path, rng.fork(0xB4), c.tage
        )
        self.hierarchy = MemoryHierarchy(c.memory)
        self.free_list = FreeList(c.int_pregs, c.fp_pregs)
        self.zero_preg = self.free_list.zero_preg
        self.rename_map = RenameMap(self.free_list)
        isrb_entries = m.rsep.isrb_entries if m.rsep else 24
        isrb_counter_bits = m.rsep.isrb_counter_bits if m.rsep else 6
        self.isrb = Isrb(isrb_entries, isrb_counter_bits)
        self.zero_idiom_elim = ZeroIdiomEliminator(self.zero_preg)
        self.move_eliminator = MoveEliminator(self.rename_map, self.isrb)
        self.rsep = (
            RsepUnit(m.rsep, self.history, self.path, rng.fork(0x27),
                     m.confidence)
            if m.rsep
            else None
        )
        self.vp = (
            VpEngine(m.vp, self.history, self.path, rng.fork(0x99),
                     m.confidence)
            if m.vp
            else None
        )
        self.zero_predictor = (
            ZeroPredictor(rng=rng.fork(0x2E), scale=m.confidence)
            if m.zero_pred
            else None
        )
        validation_mode = m.rsep.validation if m.rsep else ValidationMode.IDEAL
        self.validation_queue = ValidationQueue(validation_mode)
        self.store_sets = StoreSets()
        self.rob = ReorderBuffer(c.rob_entries)
        self.iq = IssueQueue(c.iq_entries)
        self.lsq = LoadStoreQueues(c.lq_entries, c.sq_entries, c.stlf_latency)
        self.ports = IssuePorts(c.ports)
        self.producer_window = ProducerWindow(c.rob_entries)
        self.stats = Stats()

        # Known ready cycle per physical register, indexed by preg id
        # (INT pool, then FP pool, then the hardwired zero register).
        # _INF encodes "producer has not issued yet".
        self._reg_ready: list[int] = [0] * (c.int_pregs + c.fp_pregs + 1)
        # Event-driven scheduler state (see module docstring).
        self._ready: list[InflightOp] = []
        self._ready_dirty = False
        self._wakeup: dict[int, list[InflightOp]] = {}
        # Min-heap of wakeup cycles with lazy deletion (keys stay behind
        # after their bucket is drained); gives O(1)-ish "next wakeup"
        # queries to the idle fast-forward.
        self._wakeup_heap: list[int] = []
        self._preg_waiters: dict[int, list[InflightOp]] = {}

        self._fetch_buffer: deque[InflightOp] = deque()
        self._cursor = 0
        self._next_fetch_cycle = 0
        self._fetch_stalled_by: InflightOp | None = None
        self._last_fetch_line = -1
        self.cycle = 0
        self._total_committed = 0
        self._last_progress_cycle = 0

        # Generated rename/issue loops (DESIGN.md §12): per-mechanism
        # specialisations bound as instance attributes, exactly like the
        # columnar fetch binding above.  The generic _rename/_issue stay
        # as the reference the equivalence tests compare them against.
        install_fast_stages(self)

        # Telemetry plane (DESIGN.md §13): a metrics hub samples this
        # pipeline every N committed instructions — but only when an
        # observability runtime is installed (an enabled ObsSpec, or
        # REPRO_OBS=1 on a repro command).  None — the default — keeps
        # run_until on its unchunked fast path: zero per-step cost.
        from repro.obs.runtime import metrics_hub_for_pipeline

        self._metrics = metrics_hub_for_pipeline()

    # ==================================================================
    # Public driver
    # ==================================================================

    def run(self, instructions: int, warmup: int = 0) -> Stats:
        """Warm up, then measure a window of *instructions* commits.

        The cyclic garbage collector is paused for the duration of the
        run: the hot loop allocates millions of short-lived,
        reference-counted objects (in-flight ops, predictions) that
        refcounting alone reclaims, so generation-0 passes — which also
        rescan the long-lived trace — are pure overhead.  The previous
        GC state is restored on exit, enabled or not.
        """
        import gc

        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            self.run_until(warmup)
            self.stats.reset_window()
            self.run_until(self._total_committed + instructions)
        finally:
            if gc_was_enabled:
                gc.enable()
        return self.stats

    def run_until(self, target_committed: int) -> None:
        """Step until *target_committed* total commits (or the trace ends).

        No window reset, no GC management: chaining ``run_until`` calls
        with increasing targets executes exactly the step sequence of one
        call with the final target, which is what lets the sampled-
        simulation controller chunk a window into intervals while its
        100%-duty degenerate case stays bit-identical to :meth:`run`.
        The metrics hub rides the same invariant: with observability on,
        the target is chunked at sample boundaries and the unmodified
        step loop runs between them, so the step sequence — and every
        stat — is bit-identical to the unobserved run.
        """
        hub = self._metrics
        if hub is not None:
            self._run_until_metered(target_committed, hub)
            return
        while self._total_committed < target_committed and not self._finished():
            self._step()

    def _run_until_metered(self, target_committed: int, hub) -> None:
        """:meth:`run_until` chunked at the hub's sample boundaries.

        Commit is up-to-width per cycle, so a boundary may be overshot
        by at most ``commit_width - 1`` instructions — deterministically,
        which is all the series' x-axis (``total_committed``) needs.
        """
        step = self._step
        while (self._total_committed < target_committed
               and not self._finished()):
            bound = hub.next_due
            if bound > target_committed:
                bound = target_committed
            while self._total_committed < bound and not self._finished():
                step()
            if self._total_committed >= hub.next_due:
                hub.sample(self)

    @property
    def total_committed(self) -> int:
        """Instructions committed since construction (warm-up included)."""
        return self._total_committed

    # ------------------------------------------------------------------
    # Sampled-simulation hooks (see repro.sampling; DESIGN.md §8)
    # ------------------------------------------------------------------

    def drain_inflight(self) -> int:
        """Flush all speculation back to the committed frontier.

        Used at a sampling-interval boundary before handing the trace to
        the functional warmer: every in-flight instruction is squashed
        (restoring the rename map, free list, ISRB and branch history to
        the committed point) and the trace cursor rewinds to the oldest
        flushed instruction, which is where warming resumes.  The squash
        is *stats-neutral* — interval boundaries are a measurement
        artifact, not microarchitectural events.  Returns the resume
        trace index.
        """
        rob = self.rob
        fetch_buffer = self._fetch_buffer
        if rob.empty and not fetch_buffer:
            return self._cursor
        head = rob.head() if not rob.empty else fetch_buffer[0]
        squashed_before = self.stats.squashed_ops
        self._squash_from_seq(head.d.seq, head.trace_index, self.cycle)
        self.stats.squashed_ops = squashed_before
        # Every parked op is now squashed, so the scheduler's wakeup
        # state is dead weight; clearing it also keeps stale past-cycle
        # buckets from pinning the idle fast-forward after the warmer
        # advances the clock past them.
        self._ready.clear()
        self._wakeup.clear()
        self._wakeup_heap.clear()
        self._preg_waiters.clear()
        return self._cursor

    def skip_to(self, index: int, cycle: int) -> None:
        """Resume fetch at trace *index* after an externally warmed span.

        The warmer advances a pseudo-clock (one cycle per warmed
        instruction) so downstream cycle-stamped state — MSHR fills, DRAM
        bank timers — stays monotone; the pipeline adopts that clock here.
        ``Stats.cycles`` is untouched: measured cycles accumulate only
        while detailed intervals step.
        """
        if not (self.rob.empty and not self._fetch_buffer):
            raise PipelineError("skip_to requires a drained pipeline")
        self._cursor = index
        if cycle > self.cycle:
            self.cycle = cycle
        if self._next_fetch_cycle < self.cycle:
            self._next_fetch_cycle = self.cycle
        self._fetch_stalled_by = None
        self._last_fetch_line = -1
        self._last_progress_cycle = self.cycle

    def _finished(self) -> bool:
        return (
            self._cursor >= len(self.trace)
            and self.rob.empty
            and not self._fetch_buffer
        )

    def _step(self) -> None:
        if not self._ready:
            self._fast_forward_idle()
        cycle = self.cycle
        self._commit(cycle)
        self._issue(cycle)
        self._rename(cycle)
        self._fetch(cycle)
        self.stats.cycles += 1
        self.cycle = cycle + 1
        if cycle - self._last_progress_cycle > self.config.watchdog_cycles:
            raise PipelineError(
                f"deadlock: no commit for {self.config.watchdog_cycles} "
                f"cycles (cycle {cycle}, ROB {len(self.rob)}, "
                f"IQ {len(self.iq)}, head "
                f"{self.rob.head().d if not self.rob.empty else None})"
            )

    def _rename_stall_cause(self, d: DynInst) -> str | None:
        """The stats field rename charges when *d* cannot rename, or None.

        This is the canonical form of the capacity checks; the 8-wide
        rename loop inlines the same predicate over hoisted locals (kept
        bit-identical by the golden-stats tests — edit both together).
        """
        if self.rob.full:
            return "stall_rob"
        if d.fu != FuClass.NONE and self.iq.full:
            return "stall_iq"
        if d.is_load and self.lsq.lq_full:
            return "stall_lsq"
        if d.is_store and self.lsq.sq_full:
            return "stall_lsq"
        if (
            d.dest != NO_REG
            and not d.zero_idiom
            and self.free_list.available(reg_class(d.dest)) == 0
        ):
            return "stall_regs"
        return None

    def _fast_forward_idle(self) -> None:
        """Skip cycles during which no pipeline stage can change state.

        Every state change is tied to a knowable future cycle: the ROB
        head's completion/validation, a scheduler wakeup, a validation
        µ-op becoming eligible, fetch resuming, or the fetch-buffer head
        becoming rename-ready.  When the ready list is empty and every
        such event lies in the future, the intervening cycles only tick
        counters — so tick them in one step and jump to the next event.
        Per-cycle rename-stall accounting (the capacity-blocked cause
        cannot change while no event fires) is preserved exactly.
        """
        cycle = self.cycle
        rob = self.rob
        fetch_buffer = self._fetch_buffer
        stall_field = None
        head_wait_cycle = -1
        if fetch_buffer:
            # Cheapest (and most common) exit first: the fetch-buffer
            # head renames this cycle, so no cycle can be skipped.  The
            # checks are pure reads, so hoisting them above the event
            # scan only saves work, never changes the outcome.
            head = fetch_buffer[0]
            if head.rename_ready_cycle > cycle:
                head_wait_cycle = head.rename_ready_cycle
            else:
                stall_field = self._rename_stall_cause(head.d)
                if stall_field is None:
                    return  # rename makes progress this cycle: no skip
        nxt = _INF
        if head_wait_cycle >= 0:
            nxt = head_wait_cycle
        if not rob.empty:
            head = rob.head()
            t = head.complete_cycle
            if t is not None:
                event = t + 1
                if head.validation_required:
                    v = head.validation_done_cycle
                    if v is None:
                        # Gated on a validation µ-op that has not issued;
                        # its eligibility is an event below.
                        event = _INF
                    elif v + 1 > event:
                        event = v + 1
                if event < nxt:
                    nxt = event
        t = self.validation_queue.next_ready_cycle()
        if t is not None and t < nxt:
            nxt = t
        wakeup = self._wakeup
        if wakeup:
            heap = self._wakeup_heap
            while heap and heap[0] not in wakeup:
                heappop(heap)  # stale key: bucket already drained
            if heap and heap[0] < nxt:
                nxt = heap[0]
        c = self.config
        if (
            self._cursor < len(self.trace)
            and len(fetch_buffer) < c.fetch_buffer_size
        ):
            stalled = self._fetch_stalled_by
            if stalled is None:
                t = self._next_fetch_cycle
                if t < nxt:
                    nxt = t
            elif stalled.complete_cycle is not None:
                t = stalled.complete_cycle + c.redirect_delay
                if t < self._next_fetch_cycle:
                    t = self._next_fetch_cycle
                if t < nxt:
                    nxt = t
            # else: fetch waits on an unissued branch — covered by the
            # scheduler events above.
        if nxt <= cycle:
            return
        limit = self._last_progress_cycle + c.watchdog_cycles + 1
        if nxt > limit:
            nxt = limit  # let the watchdog fire at its usual cycle
            if nxt <= cycle:
                return
        skip = nxt - cycle
        stats = self.stats
        stats.cycles += skip
        if stall_field is not None:
            setattr(stats, stall_field, getattr(stats, stall_field) + skip)
        self.cycle = nxt

    # ==================================================================
    # Commit
    # ==================================================================

    def _commit(self, cycle: int) -> None:
        # Hot-loop inlining: the ROB's backing deque is drained directly
        # (head peeks and popleft), skipping per-op method dispatch.
        rob_entries = self.rob._entries
        if not rob_entries:
            return
        stats = self.stats
        lsq = self.lsq
        rsep = self.rsep
        producer_window = self.producer_window
        commit_width = self.config.commit_width
        zero_preg = self.zero_preg
        isrb = self.isrb
        isrb_entries = isrb._entries
        isrb_counter_max = isrb.counter_max
        free_release = self.free_list.release
        committed = 0
        n_producers = 0
        n_eligible = 0
        n_branches = 0
        n_loads = 0
        n_stores = 0
        producers_group: list[InflightOp] | None = None
        squash = None  # (first_seq, refetch_index, cause)

        while committed < commit_width and rob_entries:
            op = rob_entries[0]
            complete_cycle = op.complete_cycle
            if complete_cycle is None or complete_cycle >= cycle:
                break
            if (
                op.dist_used
                or (op.likely_candidate and op.producer is not None)
            ) and (
                op.validation_done_cycle is None
                or op.validation_done_cycle >= cycle
            ):
                break
            d = op.d

            # --- commit-time validation failures -----------------------
            if op.dist_used and not op.equality_ok:
                # §IV.G: flush once the mispredicted instruction reaches
                # the ROB head; it re-executes unpredicted.
                rsep.on_mispredict(op.dist_pred)
                rsep.on_commit_used(op, False)
                stats.rsep_mispredicts += 1
                stats.squashes_rsep += 1
                squash = (d.seq, op.trace_index, "rsep")
                break
            if op.zero_pred_used and d.result != 0:
                self.zero_predictor.on_mispredict(op.zero_pred)
                stats.zero_mispredicts += 1
                stats.squashes_zero += 1
                squash = (d.seq, op.trace_index, "zero")
                break

            # --- commit the instruction --------------------------------
            rob_entries.popleft()
            op.committed = True
            committed += 1

            if d.is_branch:
                n_branches += 1
                if op.fetch_outcome is not None:
                    if op.fetch_outcome.mispredicted:
                        stats.branch_mispredicts += 1
                    self.branch_unit.commit_branch(op.fetch_outcome)
            if d.is_load:
                n_loads += 1
                lsq.remove(op)
            elif d.is_store:
                n_stores += 1
                lsq.remove(op)
                self.store_sets.store_completed(d.pc, op)
                self.hierarchy.store(d.pc, d.addr, cycle)

            if op.dest_preg != NO_REG:
                pw_window = producer_window._window
                if not pw_window or pw_window[0] is not op:
                    raise PipelineError(
                        "producer window commit order violated"
                    )
                pw_window.popleft()
                n_producers += 1
                if producers_group is None:
                    producers_group = [op]
                else:
                    producers_group.append(op)
                # Inlined ISRB dereference (the committed op's old
                # mapping dies).  Untracked registers — the overwhelmingly
                # common case — free directly; shared ones bump their
                # committed count and free when the last owner is gone or
                # the counter overflows (Isrb.dereference, verbatim).
                old_preg = op.old_preg
                if old_preg != NO_REG and old_preg != zero_preg:
                    entry = isrb_entries.get(old_preg)
                    if entry is None:
                        free_release(old_preg)
                    else:
                        entry.committed += 1
                        if (
                            entry.committed > entry.referenced
                            or entry.committed > isrb_counter_max
                        ):
                            del isrb_entries[old_preg]
                            isrb.frees += 1
                            free_release(old_preg)
            if d.eligible:
                n_eligible += 1

            # --- coverage classification (Fig. 5) ----------------------
            if op.eliminated == "zero_idiom":
                stats.zero_idiom_elim += 1
            elif op.eliminated == "move":
                stats.move_elim += 1
            elif op.zero_pred_used:
                stats.zero_pred += 1
                if d.is_load:
                    stats.zero_pred_load += 1
            elif op.dist_used:
                stats.dist_pred += 1
                if d.is_load:
                    stats.dist_pred_load += 1
                rsep.on_commit_used(op, True)
            elif op.vp_used and op.vp_ok:
                stats.value_pred += 1
                if d.is_load:
                    stats.value_pred_load += 1

            # --- predictor training ------------------------------------
            if op.zero_pred is not None:
                self.zero_predictor.train(op.zero_pred, d.result == 0)
            if op.vp_pred is not None:
                if op.vp_used:
                    self.vp.on_commit_used(op.vp_ok)
                    if not op.vp_ok:
                        self.vp.on_mispredict(op.vp_pred)
                self.vp.train(op.vp_pred, d.result)

            if op.vp_used and not op.vp_ok:
                # [7]: the instruction commits its correct result, then the
                # pipeline is flushed behind it.
                stats.vp_mispredicts += 1
                stats.squashes_vp += 1
                squash = (d.seq + 1, op.trace_index + 1, "vp")
                break

        if rsep is not None and producers_group:
            rsep.observe_commit_group(producers_group)
        if committed:
            stats.committed += committed
            stats.committed_producers += n_producers
            stats.committed_eligible += n_eligible
            stats.branches += n_branches
            stats.loads += n_loads
            stats.stores += n_stores
            self._total_committed += committed
            self._last_progress_cycle = cycle
        if squash is not None:
            self._squash_from_seq(squash[0], squash[1], cycle)
            if squash[2] == "memory_order":  # pragma: no cover - not here
                stats.squashes_memory_order += 1

    # ==================================================================
    # Issue
    # ==================================================================

    def _issue(self, cycle: int) -> None:
        bucket = self._wakeup.pop(cycle, None)
        if bucket is not None:
            # Ops were parked here with every readiness condition known to
            # be met by this cycle, and known ready times never move (a
            # source preg cannot be reallocated while a non-squashed
            # consumer is in flight), so no re-evaluation is needed.
            ready_append = self._ready.append
            for op in bucket:
                if not (op.issued or op.squashed):
                    ready_append(op)
            self._ready_dirty = True

        validation_queue = self.validation_queue
        ready = self._ready
        pending_validation = len(validation_queue) != 0
        if not ready and not pending_validation:
            return
        ports = self.ports
        ports.new_cycle(cycle)

        if pending_validation:
            validated = validation_queue.issue_cycle(cycle, ports)
            if validated:
                self.iq.remove_issued(validated)
        if not ready:
            return
        if self._ready_dirty:
            ready.sort(key=_op_seq)
            self._ready_dirty = False

        issue_width = self.config.ports.issue_width
        op_ready = self._op_ready
        try_issue = ports.try_issue
        alu_count = ports._alu_count
        ldst_ports = ports._ldst_ports
        fu_int_alu = FuClass.INT_ALU
        fu_branch = FuClass.BRANCH
        fu_load = FuClass.MEM_LOAD
        lsq = self.lsq
        # _do_issue, hand-inlined (this is the per-issued-op hot path):
        # completion timing, validation request, scoreboard update and
        # waiter wakeups run with all structures in locals.
        stats = self.stats
        stlf_latency = self.config.stlf_latency
        hierarchy_load = self.hierarchy.load
        validation_ideal = validation_queue.mode is ValidationMode.IDEAL
        reg_ready = self._reg_ready
        preg_waiters = self._preg_waiters
        issued: list[InflightOp] | None = None
        to_wake: list[InflightOp] | None = None
        violation_load = None
        violating_store = None
        for op in ready:
            if ports._total >= issue_width:
                break
            d = op.d
            # Non-loads in the ready list are ready by construction
            # (register/producer times were known when they were parked);
            # only loads carry LSQ conditions that must be re-evaluated.
            if d.is_load and not op_ready(op, cycle):
                continue
            # Inlined IssuePorts.try_issue for the two dominant port
            # classes (ALU-family and loads); the loop's break condition
            # already guarantees a free issue slot.  Other FU classes
            # keep the full method.
            fu = d.fu
            if fu is fu_int_alu or fu is fu_branch:
                if ports._alu >= alu_count:
                    continue
                ports._alu += 1
                ports._total += 1
            elif fu is fu_load:
                if ports._ldst >= ldst_ports:
                    continue
                ports._ldst += 1
                ports._total += 1
            elif not try_issue(fu, cycle):
                continue
            op.issued = True
            if d.is_load:
                if op.forward_from is not None:
                    latency = stlf_latency
                    stats.load_forwards += 1
                else:
                    latency = hierarchy_load(d.pc, d.addr, cycle)
                complete = cycle + latency
                op.executed = True
            elif d.is_store:
                complete = cycle + 1
                op.executed = True
            else:
                complete = cycle + d.latency
            op.complete_cycle = complete
            if op.dist_used or (
                op.likely_candidate and op.producer is not None
            ):
                validation_queue.request(op)
                if not validation_ideal:
                    # §IV.F.b: predicted instructions retain their
                    # scheduler entry until the validation µ-op issued.
                    op.retained = True
            if op.allocated and not op.vp_used:
                dest = op.dest_preg
                reg_ready[dest] = complete
                waiters = preg_waiters.pop(dest, None)
                if waiters is not None:
                    # Wakeup re-insertions are batched: waiters collect
                    # here and re-park in one flat pass after the issue
                    # loop (the popped list seeds the batch).
                    if to_wake is None:
                        to_wake = waiters
                    else:
                        to_wake.extend(waiters)
            waiters = op.waiters
            if waiters is not None:
                op.waiters = None
                if to_wake is None:
                    to_wake = waiters
                else:
                    to_wake.extend(waiters)
            if issued is None:
                issued = [op]
            else:
                issued.append(op)
            if d.is_store:
                violators = lsq.find_violations(op)
                if violators:
                    violation_load = violators[0]
                    violating_store = op
                    break

        if to_wake is not None:
            # Batched re-parking of the woken waiters, one flat pass per
            # completion cycle, with all scheduler structures in locals
            # and no per-waiter call.
            # Deferral past the issue loop is behaviour-preserving:
            # reg_ready entries written this cycle are final before the
            # pass runs, wakeup buckets are seq-sorted when drained, and
            # a waiter parks in exactly one place either way (the golden
            # and equivalence suites pin this bit-identical).
            wakeup = self._wakeup
            wakeup_heap = self._wakeup_heap
            ready_append = ready.append
            for waiter in to_wake:
                if waiter.issued or waiter.squashed:
                    continue
                wake = 0
                preg = waiter.src_preg1
                if preg >= 0:
                    t = reg_ready[preg]
                    if t > wake:
                        if t >= _INF:
                            parked = preg_waiters.get(preg)
                            if parked is None:
                                preg_waiters[preg] = [waiter]
                            else:
                                parked.append(waiter)
                            continue
                        wake = t
                preg = waiter.src_preg2
                if preg >= 0:
                    t = reg_ready[preg]
                    if t > wake:
                        if t >= _INF:
                            parked = preg_waiters.get(preg)
                            if parked is None:
                                preg_waiters[preg] = [waiter]
                            else:
                                parked.append(waiter)
                            continue
                        wake = t
                if (
                    waiter.dist_used or waiter.likely_candidate
                ) and waiter.producer is not None:
                    producer = waiter.producer
                    t = producer.complete_cycle
                    if t is None:
                        if producer.waiters is None:
                            producer.waiters = [waiter]
                        else:
                            producer.waiters.append(waiter)
                        continue
                    if t > wake:
                        wake = t
                if wake <= cycle:
                    ready_append(waiter)
                else:
                    bucket = wakeup.get(wake)
                    if bucket is None:
                        wakeup[wake] = [waiter]
                        heappush(wakeup_heap, wake)
                    else:
                        bucket.append(waiter)

        if issued is not None:
            # In-place filter: the ready list's identity is stable for the
            # pipeline's life (the generated issue loop closes over it).
            ready[:] = [op for op in ready if not op.issued]
            # Inlined iq.remove_issued over the issued list (retained
            # ops keep their entry until their validation µ-op issues).
            iq = self.iq
            entries = iq._entries
            live = iq._live
            for op in issued:
                if op.retained:
                    continue
                index = op.iq_index
                if index >= 0 and entries[index] is op:
                    entries[index] = None
                    op.iq_index = -1
                    live -= 1
            iq._live = live
            if len(entries) > 2 * live + 16:
                iq._compact()

        if violation_load is not None:
            self.store_sets.train_violation(
                violation_load.d.pc, violating_store.d.pc
            )
            self.stats.squashes_memory_order += 1
            self._squash_from_seq(
                violation_load.d.seq, violation_load.trace_index, cycle
            )

    def _op_ready(self, op: InflightOp, cycle: int) -> bool:
        reg_ready = self._reg_ready
        preg = op.src_preg1
        if preg >= 0 and reg_ready[preg] > cycle:
            return False
        preg = op.src_preg2
        if preg >= 0 and reg_ready[preg] > cycle:
            return False
        if (op.dist_used or op.likely_candidate) and op.producer is not None:
            # §IV.F: the predicted instruction is made dependent on the
            # producer so validation can catch the value on the bypass.
            producer = op.producer
            if producer.complete_cycle is None or (
                producer.complete_cycle > cycle
            ):
                return False
        if op.d.is_load:
            dep = op.store_dep
            if dep is not None and not dep.squashed and not dep.executed:
                return False
            blocking = self.lsq.blocking_store(op)
            if blocking is not None:
                return False
            forward = self.lsq.forwarding_store(op, cycle)
            if forward is not None and forward.complete_cycle > cycle:
                return False
            op.forward_from = forward
        return True

    # ==================================================================
    # Rename / dispatch
    # ==================================================================

    def _rename(self, cycle: int) -> None:
        fetch_buffer = self._fetch_buffer
        if not fetch_buffer:
            return
        c = self.config
        m = self.mechanisms
        stats = self.stats
        rob = self.rob
        iq = self.iq
        lsq = self.lsq
        free_list = self.free_list
        rsep = self.rsep
        zero_predictor = self.zero_predictor
        vp = self.vp
        producer_window = self.producer_window
        store_sets = self.store_sets
        reg_ready = self._reg_ready
        rename_width = c.rename_width
        renamed = 0
        # Hot-loop inlining: the backing containers of the rename map,
        # ROB, producer window and LSQ are hoisted here so the 8-wide
        # per-cycle loop skips method/property dispatch.  Semantics are
        # those of the wrapped calls (capacity was checked, and `d.dest`
        # is never XZR in a trace — the interpreter strips such dests).
        rmap = self.rename_map._map
        rob_entries = rob._entries
        rob_capacity = rob.capacity
        rob_len = len(rob_entries)
        iq_entries = iq._entries
        iq_live = iq._live
        iq_capacity = iq.capacity
        preg_waiters = self._preg_waiters
        ready_append = self._ready.append
        wakeup = self._wakeup
        wakeup_heap = self._wakeup_heap
        lq_capacity = lsq.lq_capacity
        sq_capacity = lsq.sq_capacity
        free_int_pool = free_list._free_int
        free_fp_pool = free_list._free_fp
        free_allocated = free_list._allocated
        pw_append = producer_window._window.append
        lsq_loads = lsq._loads
        lsq_stores = lsq._stores
        loads_by_word = lsq._loads_by_word
        stores_by_word = lsq._stores_by_word
        lq_len = len(lsq_loads)
        sq_len = len(lsq_stores)
        zero_idiom_elimination = c.zero_idiom_elimination
        move_elim = m.move_elim
        zero_preg = self.zero_preg
        zero_idiom_eliminator = self.zero_idiom_elim
        move_eliminator = self.move_eliminator
        producer_at = producer_window.producer_at
        rsep_sampling = False
        if rsep is not None:
            rsep_predict = rsep.predictor.predict
            rsep_stats = rsep.stats
            rsep_sampling = rsep.config.sampling

        while renamed < rename_width and fetch_buffer:
            op = fetch_buffer[0]
            if op.rename_ready_cycle > cycle:
                break
            d = op.d
            produces = d.dest != NO_REG

            # ---- capacity checks (stall in order) ---------------------
            # Inlined over hoisted locals; must mirror
            # _rename_stall_cause exactly (golden-stats gated).
            if rob_len >= rob_capacity:
                stats.stall_rob += 1
                break
            if d.fu != FuClass.NONE and iq_live >= iq_capacity:
                stats.stall_iq += 1
                break
            if d.is_load and lq_len >= lq_capacity:
                stats.stall_lsq += 1
                break
            if d.is_store and sq_len >= sq_capacity:
                stats.stall_lsq += 1
                break
            if produces:
                dest_class = (
                    RegClass.FP if d.dest >= FP_BASE else RegClass.INT
                )
                if not d.zero_idiom and not (
                    free_fp_pool if d.dest >= FP_BASE else free_int_pool
                ):
                    stats.stall_regs += 1
                    break

            # ---- source operands (old map) ----------------------------
            src1 = d.src1
            src2 = d.src2
            if src1 != NO_REG:
                op.src_preg1 = rmap[src1]
                if src2 != NO_REG:
                    op.src_preg2 = rmap[src2]
            elif src2 != NO_REG:
                op.src_preg1 = rmap[src2]

            needs_iq = d.fu != FuClass.NONE

            # ---- destination handling & mechanisms --------------------
            if produces:
                dest_preg = NO_REG
                eligible = d.eligible

                if zero_idiom_elimination and d.zero_idiom:
                    dest_preg = zero_preg
                    op.eliminated = "zero_idiom"
                    zero_idiom_eliminator.eliminated += 1
                    needs_iq = False
                elif move_elim and d.move:
                    shared_preg = move_eliminator.try_eliminate(d)
                    if shared_preg is not None:
                        dest_preg = shared_preg
                        op.eliminated = "move"
                        op.shared = True
                        needs_iq = False

                if rsep is not None and eligible and op.eliminated is None:
                    # Inlined RsepUnit.lookup (prediction + accounting).
                    prediction = rsep_predict(d.pc)
                    rsep_stats.lookups += 1
                    if prediction.use_pred:
                        rsep_stats.confident += 1
                        op.dist_pred = prediction
                        if dest_preg == NO_REG:
                            dest_preg = self._try_share(
                                op, prediction, dest_class
                            )
                    else:
                        op.dist_pred = prediction
                        if prediction.likely_candidate and rsep_sampling:
                            producer = producer_at(prediction.distance)
                            if producer is not None:
                                op.likely_candidate = True
                                op.producer = producer

                if zero_predictor is not None and eligible:
                    zero_prediction = zero_predictor.predict(d.pc)
                    op.zero_pred = zero_prediction
                    if zero_prediction.use_pred and dest_preg == NO_REG:
                        dest_preg = zero_preg
                        op.zero_pred_used = True  # executes to validate

                if vp is not None and eligible:
                    value_prediction = vp.lookup(d.pc)
                    op.vp_pred = value_prediction
                    if value_prediction.predicted() and dest_preg == NO_REG:
                        op.vp_used = True
                        op.vp_ok = value_prediction.value == d.result
                        vp.stats.used += 1

                if dest_preg == NO_REG:
                    # Inlined free_list.allocate (pool non-emptiness was
                    # established by the stall guard above).
                    dest_preg = (
                        free_fp_pool if d.dest >= FP_BASE else free_int_pool
                    ).pop()
                    free_allocated[dest_preg] = True
                    op.allocated = True
                    reg_ready[dest_preg] = (
                        cycle if op.vp_used else _INF
                    )
                op.dest_preg = dest_preg
                dest = d.dest
                op.old_preg = rmap[dest]
                rmap[dest] = dest_preg

            if not needs_iq:
                op.complete_cycle = cycle
                op.executed = True

            # ---- structures -------------------------------------------
            rob_entries.append(op)
            rob_len += 1
            if needs_iq:
                # Inlined iq.insert (capacity was checked above).
                op.iq_index = len(iq_entries)
                iq_entries.append(op)
                iq_live += 1
                iq._live = iq_live
                # Park the op where its wakeup will find it (module
                # docstring).  The op is the youngest in flight, so when
                # it is ready now it is appended to the (seq-sorted)
                # ready list without a re-sort.
                preg = op.src_preg1
                t1 = reg_ready[preg] if preg >= 0 else 0
                if t1 >= _INF:
                    waiters = preg_waiters.get(preg)
                    if waiters is None:
                        preg_waiters[preg] = [op]
                    else:
                        waiters.append(op)
                else:
                    preg = op.src_preg2
                    t2 = reg_ready[preg] if preg >= 0 else 0
                    if t2 >= _INF:
                        waiters = preg_waiters.get(preg)
                        if waiters is None:
                            preg_waiters[preg] = [op]
                        else:
                            waiters.append(op)
                    else:
                        wake = t1 if t1 > t2 else t2
                        parked = False
                        if (
                            op.dist_used or op.likely_candidate
                        ) and op.producer is not None:
                            # §IV.F: depend on the producer so validation
                            # can catch the value on the bypass.
                            producer = op.producer
                            t = producer.complete_cycle
                            if t is None:
                                if producer.waiters is None:
                                    producer.waiters = [op]
                                else:
                                    producer.waiters.append(op)
                                parked = True
                            elif t > wake:
                                wake = t
                        if not parked:
                            if wake <= cycle:
                                ready_append(op)
                            else:
                                bucket = wakeup.get(wake)
                                if bucket is None:
                                    wakeup[wake] = [op]
                                    heappush(wakeup_heap, wake)
                                else:
                                    bucket.append(op)
            if d.is_load:
                # Inlined lsq.add_load (LQ capacity was checked above).
                lsq_loads.append(op)
                word = d.addr >> WORD_SHIFT
                bucket = loads_by_word.get(word)
                if bucket is None:
                    loads_by_word[word] = [op]
                else:
                    bucket.append(op)
                lq_len += 1
                dep = store_sets.load_dependency(d.pc)
                if dep is not None and not dep.committed and not dep.squashed:
                    op.store_dep = dep
            elif d.is_store:
                # Inlined lsq.add_store (SQ capacity was checked above).
                lsq_stores.append(op)
                word = d.addr >> WORD_SHIFT
                bucket = stores_by_word.get(word)
                if bucket is None:
                    stores_by_word[word] = [op]
                else:
                    bucket.append(op)
                sq_len += 1
                store_sets.store_dispatched(d.pc, op)
            if produces:
                pw_append(op)

            fetch_buffer.popleft()
            renamed += 1

    def _try_share(self, op: InflightOp, prediction, dest_class) -> int:
        """Attempt RSEP register sharing; returns the shared preg or NO_REG."""
        rsep = self.rsep
        producer = self.producer_window.producer_at(prediction.distance)
        if producer is None:
            rsep.stats.out_of_window += 1
            return NO_REG
        if reg_class(producer.d.dest) != dest_class:
            rsep.stats.class_mismatch += 1
            return NO_REG
        producer_preg = producer.dest_preg
        if producer_preg == self.zero_preg:
            rsep.stats.zero_reg_shares += 1
        elif not self.isrb.share(producer_preg):
            rsep.stats.isrb_rejected += 1
            return NO_REG
        else:
            op.shared = True
        op.dist_used = True
        op.producer = producer
        op.equality_ok = op.d.result == producer.d.result
        rsep.stats.used += 1
        return producer_preg

    # ==================================================================
    # Fetch
    # ==================================================================

    def _fetch(self, cycle: int) -> None:
        c = self.config
        if self._fetch_stalled_by is not None:
            blocked_on = self._fetch_stalled_by
            if blocked_on.complete_cycle is None:
                return  # mispredicted branch not resolved yet
            self._next_fetch_cycle = max(
                self._next_fetch_cycle,
                blocked_on.complete_cycle + c.redirect_delay,
            )
            self._fetch_stalled_by = None
        if cycle < self._next_fetch_cycle:
            return

        trace = self.trace.instructions
        num_instructions = len(trace)
        fetch_buffer = self._fetch_buffer
        append = fetch_buffer.append
        hierarchy = self.hierarchy
        branch_unit = self.branch_unit
        fetch_width = c.fetch_width
        fetch_buffer_size = c.fetch_buffer_size
        frontend_depth = c.frontend_depth
        rename_ready = cycle + frontend_depth
        fetched = 0
        taken_seen = 0
        buffered = len(fetch_buffer)
        while (
            fetched < fetch_width
            and buffered < fetch_buffer_size
            and self._cursor < num_instructions
        ):
            d = trace[self._cursor]
            line = d.line
            if line != self._last_fetch_line:
                bubble = hierarchy.fetch(d.pc, cycle)
                if bubble > 0:
                    self._next_fetch_cycle = cycle + bubble
                    break
                self._last_fetch_line = line
            op = InflightOp(d, self._cursor, rename_ready)
            if d.is_branch:
                outcome = branch_unit.fetch_branch(d)
                op.fetch_outcome = outcome
                append(op)
                buffered += 1
                self._cursor += 1
                fetched += 1
                if outcome.mispredicted:
                    self._fetch_stalled_by = op
                    break
                if outcome.decode_redirect:
                    self._next_fetch_cycle = (
                        cycle + c.decode_redirect_bubble
                    )
                    break
                if d.taken:
                    taken_seen += 1
                    self._last_fetch_line = -1  # fetch redirects to target
                    if taken_seen >= 2:
                        break  # 8-wide fetch over at most 1 taken branch
                continue
            append(op)
            buffered += 1
            self._cursor += 1
            fetched += 1

    def _fetch_columnar(self, cycle: int) -> None:
        """Fetch straight from the packed trace columns (DESIGN.md §9).

        Mirrors :meth:`_fetch` decision for decision — same line checks,
        same branch handling, same stall exits — but the per-instruction
        reads come from the flat columns (``lines``/``pcs``/``kinds``)
        and the ``DynInst`` row is materialised lazily, only for indices
        that actually enter the pipeline (cached across squash refetches
        and across every later cell replaying this trace).  The
        equivalence suite pins this path bit-identical to the legacy
        one.
        """
        c = self.config
        if self._fetch_stalled_by is not None:
            blocked_on = self._fetch_stalled_by
            if blocked_on.complete_cycle is None:
                return  # mispredicted branch not resolved yet
            self._next_fetch_cycle = max(
                self._next_fetch_cycle,
                blocked_on.complete_cycle + c.redirect_delay,
            )
            self._fetch_stalled_by = None
        if cycle < self._next_fetch_cycle:
            return

        trace = self.trace
        num_instructions = trace.n
        lines = trace.lines
        pcs = trace.pcs
        kinds = trace.kinds
        rows = trace.rows
        row = trace.row
        fetch_buffer = self._fetch_buffer
        append = fetch_buffer.append
        hierarchy_fetch = self.hierarchy.fetch
        fetch_branch = self.branch_unit.fetch_branch
        fetch_width = c.fetch_width
        fetch_buffer_size = c.fetch_buffer_size
        rename_ready = cycle + c.frontend_depth
        fetched = 0
        taken_seen = 0
        buffered = len(fetch_buffer)
        cursor = self._cursor
        last_line = self._last_fetch_line
        inflight = InflightOp
        new_op = InflightOp.__new__
        no_reg = NO_REG
        while (
            fetched < fetch_width
            and buffered < fetch_buffer_size
            and cursor < num_instructions
        ):
            line = lines[cursor]
            if line != last_line:
                bubble = hierarchy_fetch(pcs[cursor], cycle)
                if bubble > 0:
                    self._next_fetch_cycle = cycle + bubble
                    break
                last_line = line
            d = rows[cursor]
            if d is None:
                d = row(cursor)
            # Inlined InflightOp.__init__, seeded from the columnar row:
            # same stores, no call/frame per fetched instruction (edit
            # together with the constructor).
            op = new_op(inflight)
            op.d = d
            op.trace_index = cursor
            op.rename_ready_cycle = rename_ready
            op.src_preg1 = no_reg
            op.src_preg2 = no_reg
            op.dest_preg = no_reg
            op.old_preg = no_reg
            op.allocated = False
            op.shared = False
            op.eliminated = None
            op.zero_pred = None
            op.zero_pred_used = False
            op.dist_pred = None
            op.dist_used = False
            op.likely_candidate = False
            op.producer = None
            op.equality_ok = False
            op.vp_pred = None
            op.vp_used = False
            op.vp_ok = False
            op.fetch_outcome = None
            op.issued = False
            op.complete_cycle = None
            op.executed = False
            op.validation_done_cycle = None
            op.retained = False
            op.store_dep = None
            op.forward_from = None
            op.committed = False
            op.squashed = False
            op.waiters = None
            op.iq_index = -1
            if kinds[cursor] & KIND_BRANCH:
                outcome = fetch_branch(d)
                op.fetch_outcome = outcome
                append(op)
                buffered += 1
                cursor += 1
                fetched += 1
                if outcome.mispredicted:
                    self._fetch_stalled_by = op
                    break
                if outcome.decode_redirect:
                    self._next_fetch_cycle = (
                        cycle + c.decode_redirect_bubble
                    )
                    break
                if d.taken:
                    taken_seen += 1
                    last_line = -1  # fetch redirects to target
                    if taken_seen >= 2:
                        break  # 8-wide fetch over at most 1 taken branch
                continue
            append(op)
            buffered += 1
            cursor += 1
            fetched += 1
        self._cursor = cursor
        self._last_fetch_line = last_line

    # ==================================================================
    # Squash
    # ==================================================================

    def _squash_from_seq(
        self, first_seq: int, refetch_index: int, cycle: int
    ) -> None:
        """Flush every in-flight instruction with seq >= *first_seq*."""
        restore_outcome = None

        while not self.rob.empty and self.rob.tail().d.seq >= first_seq:
            op = self.rob.pop_tail()
            op.squashed = True
            self.stats.squashed_ops += 1
            if op.fetch_outcome is not None:
                restore_outcome = op.fetch_outcome
            if op.vp_pred is not None:
                self.vp.release(op.vp_pred)
            if op.dest_preg != NO_REG:
                installed = self.rename_map.undo_rename(
                    op.d.dest, op.old_preg
                )
                if installed != op.dest_preg:
                    raise PipelineError(
                        f"rename undo mismatch at seq {op.d.seq}"
                    )
                if op.allocated:
                    self.free_list.release(op.dest_preg)
                elif op.shared:
                    if self.isrb.unshare(op.dest_preg):
                        self.free_list.release(op.dest_preg)
                self.producer_window.squash_tail(op)

        if restore_outcome is None:
            for op in self._fetch_buffer:
                if op.fetch_outcome is not None:
                    restore_outcome = op.fetch_outcome
                    break
        if restore_outcome is not None:
            self.branch_unit.squash_to(restore_outcome)

        for op in self._fetch_buffer:
            op.squashed = True
        self._fetch_buffer.clear()
        self.iq.squash(lambda o: o.d.seq >= first_seq)
        # Squashed ops elsewhere in the scheduler (wakeup buckets, preg /
        # producer waiter lists) are dropped lazily via their squashed
        # flag; the ready list is filtered eagerly since it is iterated
        # every issue cycle.
        self._ready[:] = [o for o in self._ready if o.d.seq < first_seq]
        self.lsq.squash(first_seq)
        self.validation_queue.squash(first_seq)
        self._fetch_stalled_by = None
        self._cursor = refetch_index
        self._last_fetch_line = -1
        self._next_fetch_cycle = max(
            self._next_fetch_cycle, cycle + self.config.redirect_delay
        )
