"""Per-mechanism code generation of the rename and issue loops (DESIGN.md §12).

These are the pipeline's only rename and issue stages.  Rename and issue
are two of the largest tottime blocks of a detailed run, and most of
what a configuration-generic loop would execute per instruction is
*configuration dispatch*: is RSEP on, is there a zero predictor, is
validation ideal, is sharing sampled.  None of those answers change
during a run, so — exactly like the predictors' generated fast paths
(``DistancePredictor._build_fast_predict``,
``GlobalHistory._build_fast_push``) — this module emits a specialised
source body per mechanism/core configuration with every such branch
constant-folded away, compiles it once per configuration fingerprint
(module-level code cache), and binds it per pipeline by ``exec``-ing the
cached code object against an environment of that pipeline's live
structures.

The contract that makes the binding safe (documented in DESIGN.md §12,
checked by the golden digests and the test-side invariant auditor):

* every container the generated code closes over is mutated strictly in
  place for the pipeline's life (ready list, wakeup map/heap, preg-waiter
  map, ROB deque, producer-window deque, free-list pools, scoreboard);
* containers that *are* rebound elsewhere (the IQ entry list compacts,
  the LSQ lists/buckets rebuild on squash) are re-hoisted from their
  owner on every call, never embedded;
* every pipeline installs them: :class:`~repro.pipeline.core.Pipeline`
  defines no rename or issue method of its own, so the bodies below are
  the one statement of each stage.  The rename capacity checks must stay
  in step with ``Pipeline._rename_stall_cause``, which the idle
  fast-forward charges stall cycles by.
"""

from __future__ import annotations

from heapq import heappush

from repro.backend.lsq import WORD_SHIFT
from repro.core.validation import ValidationMode
from repro.isa.registers import FP_BASE, RegClass

_INF = 1 << 60

#: (repr(CoreConfig), MechanismConfig.fingerprint()) -> (rename, issue)
#: compiled code objects.  One compile per configuration per process; the
#: per-pipeline work is a dict of bindings plus two execs.
_CODE_CACHE: dict[tuple[str, str], tuple] = {}


class _Spec:
    """The constant-foldable facts of one (core, mechanism) configuration."""

    def __init__(self, config, mechanisms) -> None:
        self.rename_width = config.rename_width
        self.rob_capacity = config.rob_entries
        self.iq_capacity = config.iq_entries
        self.lq_capacity = config.lq_entries
        self.sq_capacity = config.sq_entries
        self.stlf_latency = config.stlf_latency
        self.issue_width = config.ports.issue_width
        self.alu_count = config.ports.alu_count
        self.ldst_ports = config.ports.ldst_ports
        # The hardwired zero register sits after both pools (FreeList).
        self.zero_preg = config.int_pregs + config.fp_pregs
        self.fp_base = FP_BASE
        self.zie = config.zero_idiom_elimination
        self.move_elim = mechanisms.move_elim
        self.has_zp = mechanisms.zero_pred
        self.has_vp = mechanisms.vp is not None
        self.has_rsep = mechanisms.rsep is not None
        self.rsep_sampling = (
            self.has_rsep and mechanisms.rsep.sampling
        )
        self.validation_real = (
            self.has_rsep
            and mechanisms.rsep.validation is not ValidationMode.IDEAL
        )


# ---------------------------------------------------------------------------
# Rename
# ---------------------------------------------------------------------------


def _rename_source(s: _Spec) -> str:
    """The specialised ``_rename`` body for one configuration."""
    any_mech = s.has_rsep or s.has_zp or s.has_vp
    w: list[str] = []
    a = w.append
    a("def fast_rename(cycle):")
    a("    fetch_buffer = _fetch_buffer")
    a("    if not fetch_buffer:")
    a("        return")
    a("    stats = _stats")
    a("    rob_entries = _rob_entries")
    a("    rob_len = len(rob_entries)")
    a("    iq = _iq")
    a("    iq_entries = iq._entries")
    a("    iq_live = iq._live")
    a("    preg_waiters = _preg_waiters")
    a("    ready_append = _ready.append")
    a("    wakeup = _wakeup")
    a("    wakeup_heap = _wakeup_heap")
    a("    reg_ready = _reg_ready")
    a("    rmap = _rename_map._map")
    a("    lsq_loads = _lsq._loads")
    a("    lsq_stores = _lsq._stores")
    a("    loads_by_word = _lsq._loads_by_word")
    a("    stores_by_word = _lsq._stores_by_word")
    a("    lq_len = len(lsq_loads)")
    a("    sq_len = len(lsq_stores)")
    a("    renamed = 0")
    a(f"    while renamed < {s.rename_width} and fetch_buffer:")
    a("        op = fetch_buffer[0]")
    a("        if op.rename_ready_cycle > cycle:")
    a("            break")
    a("        d = op.d")
    a("        produces = d.dest != -1")
    # ---- capacity checks (stall in order), as in _rename_stall_cause
    a(f"        if rob_len >= {s.rob_capacity}:")
    a("            stats.stall_rob += 1")
    a("            break")
    a(f"        if d.fu != 9 and iq_live >= {s.iq_capacity}:")
    a("            stats.stall_iq += 1")
    a("            break")
    a(f"        if d.is_load and lq_len >= {s.lq_capacity}:")
    a("            stats.stall_lsq += 1")
    a("            break")
    a(f"        if d.is_store and sq_len >= {s.sq_capacity}:")
    a("            stats.stall_lsq += 1")
    a("            break")
    a("        if produces and not d.zero_idiom and not (")
    a(f"            _free_fp if d.dest >= {s.fp_base} else _free_int")
    a("        ):")
    a("            stats.stall_regs += 1")
    a("            break")
    # ---- source operands (old map)
    a("        src1 = d.src1")
    a("        src2 = d.src2")
    a("        if src1 != -1:")
    a("            op.src_preg1 = rmap[src1]")
    a("            if src2 != -1:")
    a("                op.src_preg2 = rmap[src2]")
    a("        elif src2 != -1:")
    a("            op.src_preg1 = rmap[src2]")
    a("        needs_iq = d.fu != 9")
    # ---- destination handling & mechanisms (config branches folded)
    a("        if produces:")
    a("            dest_preg = -1")
    if any_mech:
        a("            eligible = d.eligible")
    eliminators = s.zie or s.move_elim
    if s.zie:
        a("            if d.zero_idiom:")
        a(f"                dest_preg = {s.zero_preg}")
        a("                op.eliminated = 'zero_idiom'")
        a("                _zie.eliminated += 1")
        a("                needs_iq = False")
    if s.move_elim:
        a(f"            {'elif' if s.zie else 'if'} d.move:")
        a("                shared_preg = _move_try(d)")
        a("                if shared_preg is not None:")
        a("                    dest_preg = shared_preg")
        a("                    op.eliminated = 'move'")
        # The zero preg is never ISRB-tracked: a squash must not unshare it.
        a(f"                    op.shared = shared_preg != {s.zero_preg}")
        a("                    needs_iq = False")
    if s.has_rsep:
        guard = (
            "eligible and op.eliminated is None" if eliminators
            else "eligible"
        )
        a(f"            if {guard}:")
        a("                prediction = _rsep_predict(d.pc)")
        a("                _rsep_stats.lookups += 1")
        a("                if prediction.use_pred:")
        a("                    _rsep_stats.confident += 1")
        a("                    op.dist_pred = prediction")
        a("                    if dest_preg == -1:")
        a("                        dest_preg = _try_share(")
        a("                            op, prediction,")
        a(f"                            _RC_FP if d.dest >= {s.fp_base}"
          " else _RC_INT,")
        a("                        )")
        a("                else:")
        a("                    op.dist_pred = prediction")
        if s.rsep_sampling:
            a("                    if prediction.likely_candidate:")
            a("                        producer = _producer_at("
              "prediction.distance)")
            a("                        if producer is not None:")
            a("                            op.likely_candidate = True")
            a("                            op.producer = producer")
    if s.has_zp:
        a("            if eligible:")
        a("                zero_prediction = _zp_predict(d.pc)")
        a("                op.zero_pred = zero_prediction")
        a("                if zero_prediction.use_pred and dest_preg == -1:")
        a(f"                    dest_preg = {s.zero_preg}")
        a("                    op.zero_pred_used = True")
    if s.has_vp:
        a("            if eligible:")
        a("                value_prediction = _vp_lookup(d.pc)")
        a("                op.vp_pred = value_prediction")
        a("                if value_prediction.predicted()"
          " and dest_preg == -1:")
        a("                    op.vp_used = True")
        a("                    op.vp_ok = value_prediction.value == d.result")
        a("                    _vp_stats.used += 1")
    a("            if dest_preg == -1:")
    a(f"                dest_preg = (_free_fp if d.dest >= {s.fp_base}"
      " else _free_int).pop()")
    a("                _free_allocated[dest_preg] = True")
    a("                op.allocated = True")
    if s.has_vp:
        a(f"                reg_ready[dest_preg] = cycle if op.vp_used"
          f" else {_INF}")
    else:
        a(f"                reg_ready[dest_preg] = {_INF}")
    a("            op.dest_preg = dest_preg")
    a("            dest = d.dest")
    a("            op.old_preg = rmap[dest]")
    a("            rmap[dest] = dest_preg")
    a("        if not needs_iq:")
    a("            op.complete_cycle = cycle")
    a("            op.executed = True")
    # ---- structures
    a("        rob_entries.append(op)")
    a("        rob_len += 1")
    a("        if needs_iq:")
    a("            op.iq_index = len(iq_entries)")
    a("            iq_entries.append(op)")
    a("            iq_live += 1")
    a("            iq._live = iq_live")
    a("            preg = op.src_preg1")
    a("            t1 = reg_ready[preg] if preg >= 0 else 0")
    a(f"            if t1 >= {_INF}:")
    a("                waiters = preg_waiters.get(preg)")
    a("                if waiters is None:")
    a("                    preg_waiters[preg] = [op]")
    a("                else:")
    a("                    waiters.append(op)")
    a("            else:")
    a("                preg = op.src_preg2")
    a("                t2 = reg_ready[preg] if preg >= 0 else 0")
    a(f"                if t2 >= {_INF}:")
    a("                    waiters = preg_waiters.get(preg)")
    a("                    if waiters is None:")
    a("                        preg_waiters[preg] = [op]")
    a("                    else:")
    a("                        waiters.append(op)")
    a("                else:")
    a("                    wake = t1 if t1 > t2 else t2")
    if s.has_rsep:
        a("                    parked = False")
        a("                    if (")
        a("                        op.dist_used or op.likely_candidate")
        a("                    ) and op.producer is not None:")
        a("                        producer = op.producer")
        a("                        t = producer.complete_cycle")
        a("                        if t is None:")
        a("                            if producer.waiters is None:")
        a("                                producer.waiters = [op]")
        a("                            else:")
        a("                                producer.waiters.append(op)")
        a("                            parked = True")
        a("                        elif t > wake:")
        a("                            wake = t")
        a("                    if not parked:")
        extra = "    "
    else:
        extra = ""
    a(f"                    {extra}if wake <= cycle:")
    a(f"                        {extra}ready_append(op)")
    a(f"                    {extra}else:")
    a(f"                        {extra}bucket = wakeup.get(wake)")
    a(f"                        {extra}if bucket is None:")
    a(f"                            {extra}wakeup[wake] = [op]")
    a(f"                            {extra}_heappush(wakeup_heap, wake)")
    a(f"                        {extra}else:")
    a(f"                            {extra}bucket.append(op)")
    a("        if d.is_load:")
    a("            lsq_loads.append(op)")
    a(f"            word = d.addr >> {WORD_SHIFT}")
    a("            bucket = loads_by_word.get(word)")
    a("            if bucket is None:")
    a("                loads_by_word[word] = [op]")
    a("            else:")
    a("                bucket.append(op)")
    a("            lq_len += 1")
    a("            dep = _load_dependency(d.pc)")
    a("            if dep is not None and not dep.committed"
      " and not dep.squashed:")
    a("                op.store_dep = dep")
    a("        elif d.is_store:")
    a("            lsq_stores.append(op)")
    a(f"            word = d.addr >> {WORD_SHIFT}")
    a("            bucket = stores_by_word.get(word)")
    a("            if bucket is None:")
    a("                stores_by_word[word] = [op]")
    a("            else:")
    a("                bucket.append(op)")
    a("            sq_len += 1")
    a("            _store_dispatched(d.pc, op)")
    a("        if produces:")
    a("            _pw_append(op)")
    a("        fetch_buffer.popleft()")
    a("        renamed += 1")
    return "\n".join(w)


# ---------------------------------------------------------------------------
# Issue
# ---------------------------------------------------------------------------


def _issue_source(s: _Spec) -> str:
    """The specialised ``_issue`` body for one configuration."""
    w: list[str] = []
    a = w.append
    a("def fast_issue(cycle):")
    a("    ready = _ready")
    # Ops parked in a wakeup bucket had every readiness condition known
    # to be met by its cycle, and known ready times never move (a source
    # preg cannot be reallocated while a non-squashed consumer is in
    # flight), so draining the bucket needs no re-evaluation.
    a("    bucket = _wakeup.pop(cycle, None)")
    a("    if bucket is not None:")
    a("        ready_append = ready.append")
    a("        for op in bucket:")
    a("            if not (op.issued or op.squashed):")
    a("                ready_append(op)")
    a("        _p._ready_dirty = True")
    if s.validation_real:
        a("    pending_validation = len(_vq) != 0")
        a("    if not ready and not pending_validation:")
        a("        return")
        a("    ports = _ports")
        a("    ports.new_cycle(cycle)")
        a("    if pending_validation:")
        a("        validated = _vq.issue_cycle(cycle, ports)")
        a("        if validated:")
        a("            _iq.remove_issued(validated)")
        a("    if not ready:")
        a("        return")
    else:
        # IDEAL (or no RSEP): the validation queue never holds entries.
        a("    if not ready:")
        a("        return")
        a("    ports = _ports")
        a("    ports.new_cycle(cycle)")
    a("    if _p._ready_dirty:")
    a("        ready.sort(key=_op_seq)")
    a("        _p._ready_dirty = False")
    a("    stats = _stats")
    a("    reg_ready = _reg_ready")
    a("    preg_waiters = _preg_waiters")
    a("    issued = None")
    a("    to_wake = None")
    a("    violation_load = None")
    a("    violating_store = None")
    a("    for op in ready:")
    a(f"        if ports._total >= {s.issue_width}:")
    a("            break")
    a("        d = op.d")
    # Load readiness: registers, the §IV.F producer dependence (folded
    # per config), then the LSQ conditions, re-checked every cycle.
    a("        if d.is_load:")
    a("            preg = op.src_preg1")
    a("            if preg >= 0 and reg_ready[preg] > cycle:")
    a("                continue")
    a("            preg = op.src_preg2")
    a("            if preg >= 0 and reg_ready[preg] > cycle:")
    a("                continue")
    if s.has_rsep:
        a("            if (op.dist_used or op.likely_candidate)"
          " and op.producer is not None:")
        a("                producer = op.producer")
        a("                if producer.complete_cycle is None or (")
        a("                    producer.complete_cycle > cycle")
        a("                ):")
        a("                    continue")
    a("            dep = op.store_dep")
    a("            if dep is not None and not dep.squashed"
      " and not dep.executed:")
    a("                continue")
    a("            if _blocking_store(op) is not None:")
    a("                continue")
    a("            forward = _forwarding_store(op, cycle)")
    a("            if forward is not None and forward.complete_cycle > cycle:")
    a("                continue")
    a("            op.forward_from = forward")
    # Inlined IssuePorts.try_issue INT_ALU/BRANCH/NONE and MEM_LOAD arms
    # (the break above guarantees a free issue slot).
    a("        fu = d.fu")
    a("        if fu == 0 or fu == 8 or fu == 9:")
    a(f"            if ports._alu >= {s.alu_count}:")
    a("                continue")
    a("            ports._alu += 1")
    a("            ports._total += 1")
    a("        elif fu == 6:")
    a(f"            if ports._ldst >= {s.ldst_ports}:")
    a("                continue")
    a("            ports._ldst += 1")
    a("            ports._total += 1")
    a("        elif not _try_issue(fu, cycle):")
    a("            continue")
    a("        op.issued = True")
    a("        if d.is_load:")
    a("            if op.forward_from is not None:")
    a(f"                latency = {s.stlf_latency}")
    a("                stats.load_forwards += 1")
    a("            else:")
    a("                latency = _hierarchy_load(d.pc, d.addr, cycle)")
    a("            complete = cycle + latency")
    a("            op.executed = True")
    a("        elif d.is_store:")
    a("            complete = cycle + 1")
    a("            op.executed = True")
    a("        else:")
    a("            complete = cycle + d.latency")
    a("        op.complete_cycle = complete")
    if s.has_rsep:
        a("        if op.dist_used or (")
        a("            op.likely_candidate and op.producer is not None")
        a("        ):")
        if s.validation_real:
            # §IV.F.b: predicted instructions retain their scheduler
            # entry until the validation µ-op issued.
            a("            _vq_request(op)")
            a("            op.retained = True")
        else:
            # ValidationQueue.request in IDEAL mode, inlined.
            a("            op.validation_done_cycle = complete")
    if s.has_vp:
        a("        if op.allocated and not op.vp_used:")
    else:
        a("        if op.allocated:")
    a("            dest = op.dest_preg")
    a("            reg_ready[dest] = complete")
    a("            waiters = preg_waiters.pop(dest, None)")
    a("            if waiters is not None:")
    a("                if to_wake is None:")
    a("                    to_wake = waiters")
    a("                else:")
    a("                    to_wake.extend(waiters)")
    a("        waiters = op.waiters")
    a("        if waiters is not None:")
    a("            op.waiters = None")
    a("            if to_wake is None:")
    a("                to_wake = waiters")
    a("            else:")
    a("                to_wake.extend(waiters)")
    a("        if issued is None:")
    a("            issued = [op]")
    a("        else:")
    a("            issued.append(op)")
    a("        if d.is_store:")
    a("            violators = _find_violations(op)")
    a("            if violators:")
    a("                violation_load = violators[0]")
    a("                violating_store = op")
    a("                break")
    # Batched waiter re-insertion: woken waiters re-park in one flat
    # pass after the issue loop, once this cycle's completion times are
    # final (a waiter parks in exactly one place either way).
    a("    if to_wake is not None:")
    a("        wakeup = _wakeup")
    a("        wakeup_heap = _wakeup_heap")
    a("        ready_append = ready.append")
    a("        for waiter in to_wake:")
    a("            if waiter.issued or waiter.squashed:")
    a("                continue")
    a("            wake = 0")
    a("            preg = waiter.src_preg1")
    a("            if preg >= 0:")
    a("                t = reg_ready[preg]")
    a("                if t > wake:")
    a(f"                    if t >= {_INF}:")
    a("                        parked = preg_waiters.get(preg)")
    a("                        if parked is None:")
    a("                            preg_waiters[preg] = [waiter]")
    a("                        else:")
    a("                            parked.append(waiter)")
    a("                        continue")
    a("                    wake = t")
    a("            preg = waiter.src_preg2")
    a("            if preg >= 0:")
    a("                t = reg_ready[preg]")
    a("                if t > wake:")
    a(f"                    if t >= {_INF}:")
    a("                        parked = preg_waiters.get(preg)")
    a("                        if parked is None:")
    a("                            preg_waiters[preg] = [waiter]")
    a("                        else:")
    a("                            parked.append(waiter)")
    a("                        continue")
    a("                    wake = t")
    if s.has_rsep:
        a("            if (")
        a("                waiter.dist_used or waiter.likely_candidate")
        a("            ) and waiter.producer is not None:")
        a("                producer = waiter.producer")
        a("                t = producer.complete_cycle")
        a("                if t is None:")
        a("                    if producer.waiters is None:")
        a("                        producer.waiters = [waiter]")
        a("                    else:")
        a("                        producer.waiters.append(waiter)")
        a("                    continue")
        a("                if t > wake:")
        a("                    wake = t")
    a("            if wake <= cycle:")
    a("                ready_append(waiter)")
    a("            else:")
    a("                bucket = wakeup.get(wake)")
    a("                if bucket is None:")
    a("                    wakeup[wake] = [waiter]")
    a("                    _heappush(wakeup_heap, wake)")
    a("                else:")
    a("                    bucket.append(waiter)")
    a("    if issued is not None:")
    a("        ready[:] = [op for op in ready if not op.issued]")
    a("        iq = _iq")
    a("        entries = iq._entries")
    a("        live = iq._live")
    a("        for op in issued:")
    if s.validation_real:
        a("            if op.retained:")
        a("                continue")
    a("            index = op.iq_index")
    a("            if index >= 0 and entries[index] is op:")
    a("                entries[index] = None")
    a("                op.iq_index = -1")
    a("                live -= 1")
    a("        iq._live = live")
    a("        if len(entries) > 2 * live + 16:")
    a("            iq._compact()")
    a("    if violation_load is not None:")
    a("        _train_violation(violation_load.d.pc, violating_store.d.pc)")
    a("        stats.squashes_memory_order += 1")
    a("        _p._squash_from_seq(")
    a("            violation_load.d.seq, violation_load.trace_index, cycle")
    a("        )")
    return "\n".join(w)


# ---------------------------------------------------------------------------
# Compilation and per-pipeline binding
# ---------------------------------------------------------------------------


def compiled_stages(config, mechanisms) -> tuple:
    """(rename, issue) code objects for this configuration, cached."""
    key = (repr(config), mechanisms.fingerprint())
    codes = _CODE_CACHE.get(key)
    if codes is None:
        spec = _Spec(config, mechanisms)
        codes = (
            compile(_rename_source(spec), "<genrename:rename>", "exec"),
            compile(_issue_source(spec), "<genrename:issue>", "exec"),
        )
        _CODE_CACHE[key] = codes
    return codes


def install_fast_stages(pipeline) -> dict:
    """Bind the generated rename/issue loops onto *pipeline*.

    The environment maps every name the generated bodies read to the
    pipeline's live structures (identity-stable ones directly, owners of
    rebindable containers so those are re-hoisted per call).  Bound as
    instance attributes, which ``Pipeline._step`` dispatches to.

    Returns the environment, which is also the loops' globals: it holds
    the pipeline, so the pipeline keeps it and clears it on
    :meth:`~repro.pipeline.core.Pipeline.close` to break that cycle.
    """
    from repro.pipeline.core import _op_seq

    rename_code, issue_code = compiled_stages(
        pipeline.config, pipeline.mechanisms
    )
    env = {
        "_p": pipeline,
        "_stats": pipeline.stats,
        "_fetch_buffer": pipeline._fetch_buffer,
        "_rob_entries": pipeline.rob._entries,
        "_iq": pipeline.iq,
        "_lsq": pipeline.lsq,
        "_rename_map": pipeline.rename_map,
        "_preg_waiters": pipeline._preg_waiters,
        "_ready": pipeline._ready,
        "_wakeup": pipeline._wakeup,
        "_wakeup_heap": pipeline._wakeup_heap,
        "_reg_ready": pipeline._reg_ready,
        "_free_int": pipeline.free_list._free_int,
        "_free_fp": pipeline.free_list._free_fp,
        "_free_allocated": pipeline.free_list._allocated,
        "_pw_append": pipeline.producer_window._window.append,
        "_load_dependency": pipeline.store_sets.load_dependency,
        "_store_dispatched": pipeline.store_sets.store_dispatched,
        "_train_violation": pipeline.store_sets.train_violation,
        "_blocking_store": pipeline.lsq.blocking_store,
        "_forwarding_store": pipeline.lsq.forwarding_store,
        "_find_violations": pipeline.lsq.find_violations,
        "_hierarchy_load": pipeline.hierarchy.load,
        "_ports": pipeline.ports,
        "_try_issue": pipeline.ports.try_issue,
        "_vq": pipeline.validation_queue,
        "_vq_request": pipeline.validation_queue.request,
        "_heappush": heappush,
        "_op_seq": _op_seq,
        "_RC_INT": RegClass.INT,
        "_RC_FP": RegClass.FP,
        "_zie": pipeline.zero_idiom_elim,
        "_move_try": pipeline.move_eliminator.try_eliminate,
        "_try_share": pipeline._try_share,
    }
    if pipeline.rsep is not None:
        env["_rsep_predict"] = pipeline.rsep.predictor.predict
        env["_rsep_stats"] = pipeline.rsep.stats
        env["_producer_at"] = pipeline.producer_window.producer_at
    if pipeline.zero_predictor is not None:
        env["_zp_predict"] = pipeline.zero_predictor.predict
    if pipeline.vp is not None:
        env["_vp_lookup"] = pipeline.vp.lookup
        env["_vp_stats"] = pipeline.vp.stats
    exec(rename_code, env)  # noqa: S102 - static template, no external input
    exec(issue_code, env)  # noqa: S102 - static template, no external input
    pipeline._rename = env["fast_rename"]
    pipeline._issue = env["fast_issue"]
    return env
