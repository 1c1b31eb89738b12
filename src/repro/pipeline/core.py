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

Every stage has one implementation.  Fetch, commit, squash and the idle
fast-forward live here; the rename and issue loops are generated per
configuration (:mod:`repro.pipeline.genrename`) and bound on each
pipeline.  Fetch reads the columns of a
:class:`~repro.workloads.columnar.ColumnarTrace`, the one trace form.
What checks them is not a second implementation but the golden digests
and a test-side invariant auditor run over planted-pair programs
(DESIGN.md §3).
"""

from __future__ import annotations

from collections import deque
from heapq import heappop

from repro.backend.fu import IssuePorts
from repro.backend.iq import IssueQueue
from repro.backend.lsq import LoadStoreQueues
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
from repro.isa.registers import reg_class
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

_INF = 1 << 60


def _op_seq(op) -> int:
    """Sort key: age order == trace sequence order."""
    return op.d.seq


class PipelineError(RuntimeError):
    """Raised on internal inconsistencies (bugs) or deadlock."""


#: The stages ``_step`` dispatches to.  Any of them may be bound on the
#: instance (generated rename/issue, a profiler's timing wrappers);
#: :meth:`Pipeline.close` rebinds every one.
_STAGES = ("_fast_forward_idle", "_commit", "_issue", "_rename", "_fetch")


def _closed_stage(*_args) -> None:
    raise PipelineError("a closed pipeline cannot step")


class InflightOp:
    """Timing and rename state of one in-flight dynamic instruction."""

    # Created only by :meth:`Pipeline._fetch`, which allocates with
    # ``__new__`` and stores every slot inline (no call/frame per
    # fetched instruction).  Flat __slots__ measured faster than
    # prototype-clone, class-default and hybrid layouts on CPython 3.11
    # (DESIGN.md §9).  A slot added here must be initialised there.
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

    @property
    def validation_required(self) -> bool:
        return self.dist_used or (
            self.likely_candidate and self.producer is not None
        )


class Pipeline:
    """One simulated core running one trace."""

    def __init__(
        self,
        trace: ColumnarTrace,
        config: CoreConfig | None = None,
        mechanisms: MechanismConfig | None = None,
        seed: int = 1,
    ) -> None:
        self.trace = trace
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
        # specialisations bound as instance attributes; the class has no
        # other rename or issue stage.  The loops' namespace is kept so
        # close() can clear it.
        self._stage_env = install_fast_stages(self)

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
        GC state is restored on exit, enabled or not.  The pipeline
        itself is not reclaimed by refcounting until :meth:`close`
        breaks the cycles its stage bindings form; every front door
        closes its cell's pipeline once the stats are read.
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

    def close(self) -> None:
        """Break the reference cycles of the stage bindings; idempotent.

        The generated rename/issue loops run in a namespace holding the
        pipeline and its bound ``_try_share``, and a profiler's timing
        wrappers close over bound stages: without this, a finished
        pipeline lives until a full cyclic collection (DESIGN.md §12).
        Closing clears that namespace and rebinds every stage to one that
        raises, so refcounting frees the pipeline with its last
        reference.  Its ``stats``, ``cycle`` and other state stay
        readable; stepping raises :class:`PipelineError`.
        """
        if self._stage_env is not None:
            self._stage_env.clear()
            self._stage_env = None
        for stage in _STAGES:
            setattr(self, stage, _closed_stage)

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

        This is the canonical form of the capacity checks; the generated
        rename loop (:mod:`repro.pipeline.genrename`) inlines the same
        predicate with literal capacities (kept bit-identical by the
        golden-stats tests — edit both together).
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
        squash = None  # (first_seq, refetch_index)

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
                squash = (d.seq, op.trace_index)
                break
            if op.zero_pred_used and d.result != 0:
                self.zero_predictor.on_mispredict(op.zero_pred)
                stats.zero_mispredicts += 1
                stats.squashes_zero += 1
                squash = (d.seq, op.trace_index)
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
                squash = (d.seq + 1, op.trace_index + 1)
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

    # ==================================================================
    # Rename (the loop itself is generated: repro.pipeline.genrename)
    # ==================================================================

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
        """Fetch straight from the packed trace columns (DESIGN.md §9).

        Up to ``fetch_width`` instructions a cycle, over at most one
        taken branch, stopping at an I-cache miss bubble, a decode
        redirect or a mispredicted branch (fetch then waits for it to
        resolve).  The per-instruction reads come from the flat columns
        (``lines``/``pcs``/``kinds``); the ``DynInst`` row is
        materialised lazily, only for indices that actually enter the
        pipeline, and cached across squash refetches and across every
        later cell replaying this trace.
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
            # Every InflightOp slot, initialised inline (see the class).
            op = new_op(inflight)
            op.d = d
            op.trace_index = cursor
            op.rename_ready_cycle = rename_ready
            # Renamed source pregs (NO_REG = fewer than 1/2 sources); two
            # scalar slots instead of a tuple keep dispatch allocation-free.
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
            # Scheduler subscribers: ops whose issue eligibility becomes
            # computable once this op's completion cycle is known.
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
