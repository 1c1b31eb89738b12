"""Tests for rename structures (free list, map, ISRB, eliminations) and
backend resources (ROB, IQ, LSQ, ports, store sets)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.backend.fu import IssuePorts, PortConfig
from repro.backend.iq import IssueQueue
from repro.backend.lsq import LoadStoreQueues
from repro.backend.rob import ReorderBuffer
from repro.backend.store_sets import StoreSets
from repro.isa.instruction import DynInst
from repro.isa.opcodes import FuClass, Opcode
from repro.isa.registers import RegClass, XZR, x
from repro.rename.free_list import FreeList, FreeListError
from repro.rename.isrb import Isrb
from repro.rename.map_table import RenameMap
from repro.rename.move_elim import MoveEliminator
from repro.rename.zero_idiom import ZeroIdiomEliminator


class TestFreeList:
    def test_pools_disjoint(self):
        fl = FreeList(64, 64)
        int_preg = fl.allocate(RegClass.INT)
        fp_preg = fl.allocate(RegClass.FP)
        assert int_preg < 64 <= fp_preg

    def test_exhaustion_returns_none(self):
        fl = FreeList(33, 33)
        for _ in range(33):
            fl.allocate(RegClass.INT)
        assert fl.allocate(RegClass.INT) is None

    def test_release_recycles(self):
        fl = FreeList(64, 64)
        preg = fl.allocate(RegClass.INT)
        fl.release(preg)
        assert fl.free_int == 64

    def test_double_free_rejected(self):
        fl = FreeList(64, 64)
        preg = fl.allocate(RegClass.INT)
        fl.release(preg)
        with pytest.raises(FreeListError):
            fl.release(preg)

    def test_zero_preg_never_freed(self):
        fl = FreeList(64, 64)
        with pytest.raises(FreeListError):
            fl.release(fl.zero_preg)


class TestRenameMap:
    def test_initial_state_consumes_pregs(self):
        fl = FreeList(235, 235)
        RenameMap(fl)
        assert fl.free_int == 235 - 31  # XZR does not consume a preg
        assert fl.free_fp == 235 - 32

    def test_xzr_maps_to_zero_preg(self):
        fl = FreeList(235, 235)
        rename_map = RenameMap(fl)
        assert rename_map.lookup(XZR) == fl.zero_preg

    def test_rename_and_undo(self):
        fl = FreeList(235, 235)
        rename_map = RenameMap(fl)
        original = rename_map.lookup(x(3))
        new_preg = fl.allocate(RegClass.INT)
        old = rename_map.rename_dest(x(3), new_preg)
        assert old == original
        installed = rename_map.undo_rename(x(3), old)
        assert installed == new_preg
        assert rename_map.lookup(x(3)) == original

    def test_cannot_rename_xzr(self):
        fl = FreeList(235, 235)
        rename_map = RenameMap(fl)
        with pytest.raises(ValueError):
            rename_map.rename_dest(XZR, 5)

    def test_snapshot_restore(self):
        fl = FreeList(235, 235)
        rename_map = RenameMap(fl)
        snap = rename_map.snapshot()
        rename_map.rename_dest(x(1), fl.allocate(RegClass.INT))
        rename_map.restore(snap)
        assert rename_map.snapshot() == snap


class TestIsrb:
    def test_share_then_dereference_lifecycle(self):
        isrb = Isrb(entries=4)
        assert isrb.share(10)
        # First owner dies: one committed de-reference, entry survives.
        assert isrb.dereference(10) == "kept"
        # Second owner dies: committed exceeds referenced -> free.
        assert isrb.dereference(10) == "freed"
        assert not isrb.is_shared(10)

    def test_untracked_dereference(self):
        isrb = Isrb()
        assert isrb.dereference(99) == "untracked"

    def test_multiple_sharers(self):
        isrb = Isrb()
        isrb.share(7), isrb.share(7)  # three owners total
        assert isrb.dereference(7) == "kept"
        assert isrb.dereference(7) == "kept"
        assert isrb.dereference(7) == "freed"

    def test_capacity_rejection(self):
        isrb = Isrb(entries=1)
        assert isrb.share(1)
        assert not isrb.share(2)
        assert isrb.share_rejections == 1

    def test_counter_overflow_rejection(self):
        isrb = Isrb(entries=2, counter_bits=2)  # max 3
        for _ in range(3):
            assert isrb.share(5)
        assert not isrb.share(5)

    def test_unshare_squash_path(self):
        isrb = Isrb()
        isrb.share(3)
        # Squash before any owner died: entry simply drops, no free.
        assert not isrb.unshare(3)
        assert not isrb.is_shared(3)

    def test_unshare_after_commit_deref_frees(self):
        isrb = Isrb()
        isrb.share(4)
        assert isrb.dereference(4) == "kept"
        # Now the sharer squashes: committed(1) > referenced(0) -> free.
        assert isrb.unshare(4)

    def test_unshare_untracked_raises(self):
        with pytest.raises(KeyError):
            Isrb().unshare(42)

    def test_storage_is_paper_63_bytes(self):
        assert Isrb(24, 6, 9).storage_report().total_bytes == 63.0


class TestEliminations:
    def test_move_elimination_shares_source(self):
        fl = FreeList(235, 235)
        rename_map = RenameMap(fl)
        isrb = Isrb()
        eliminator = MoveEliminator(rename_map, isrb)
        move = DynInst(0, 0x1000, Opcode.MOV, dest=x(2), src1=x(1),
                       result=5, move=True)
        shared = eliminator.try_eliminate(move)
        assert shared == rename_map.lookup(x(1))
        assert isrb.is_shared(shared)
        assert eliminator.eliminated == 1

    def test_move_elimination_respects_isrb_capacity(self):
        fl = FreeList(235, 235)
        rename_map = RenameMap(fl)
        isrb = Isrb(entries=1)
        isrb.share(200)  # fill
        eliminator = MoveEliminator(rename_map, isrb)
        move = DynInst(0, 0x1000, Opcode.MOV, dest=x(2), src1=x(1),
                       result=5, move=True)
        assert eliminator.try_eliminate(move) is None
        assert eliminator.rejected == 1

    def test_move_of_the_zero_register_skips_the_isrb(self):
        fl = FreeList(235, 235)
        rename_map = RenameMap(fl)
        isrb = Isrb()
        eliminator = MoveEliminator(rename_map, isrb)
        rename_map.rename_dest(x(1), fl.zero_preg)  # a zero idiom's result
        move = DynInst(0, 0x1000, Opcode.MOV, dest=x(2), src1=x(1),
                       result=0, move=True)
        assert eliminator.try_eliminate(move) == fl.zero_preg
        assert isrb.occupancy == 0 and isrb.shares == 0
        assert eliminator.eliminated == 1

    def test_zero_idiom_elimination(self):
        eliminator = ZeroIdiomEliminator(zero_preg=470)
        idiom = DynInst(0, 0x1000, Opcode.EOR, dest=x(1), src1=x(2),
                        src2=x(2), result=0, zero_idiom=True)
        assert eliminator.try_eliminate(idiom) == 470
        normal = DynInst(1, 0x1004, Opcode.EOR, dest=x(1), src1=x(2),
                         src2=x(3), result=1)
        assert eliminator.try_eliminate(normal) is None


class TestRob:
    def test_fifo_order(self):
        rob = ReorderBuffer(4)
        rob.push("a"), rob.push("b")
        assert rob.head() == "a" and rob.tail() == "b"
        assert rob.pop_head() == "a"
        assert rob.pop_tail() == "b"
        assert rob.empty

    def test_capacity(self):
        rob = ReorderBuffer(2)
        rob.push(1), rob.push(2)
        assert rob.full
        with pytest.raises(OverflowError):
            rob.push(3)


class _IqEntry:
    """Minimal op: the IQ stores its position in ``iq_index``."""

    def __init__(self, value):
        self.value = value
        self.iq_index = -1


class TestIssueQueue:
    def test_capacity_and_removal(self):
        iq = IssueQueue(2)
        a, b, c = _IqEntry("a"), _IqEntry("b"), _IqEntry("c")
        iq.insert(a), iq.insert(b)
        assert iq.full
        with pytest.raises(OverflowError):
            iq.insert(c)
        iq.remove_issued([a])
        assert list(iq) == [b]

    def test_squash_predicate(self):
        iq = IssueQueue(8)
        entries = [_IqEntry(value) for value in range(5)]
        for entry in entries:
            iq.insert(entry)
        dropped = iq.squash(lambda e: e.value >= 3)
        assert dropped == 2
        assert list(iq) == entries[:3]


class _FakeMemOp:
    """Minimal stand-in carrying the attributes the LSQ reads."""

    def __init__(self, seq, addr, is_load):
        self.d = DynInst(
            seq, 0x1000 + seq * 4,
            Opcode.LDR if is_load else Opcode.STR,
            dest=x(1) if is_load else -1,
            src1=x(2), addr=addr,
        )
        self.executed = False
        self.issued = False
        self.complete_cycle = None


class TestLsq:
    def test_blocking_store(self):
        lsq = LoadStoreQueues()
        store = _FakeMemOp(1, 0x100, is_load=False)
        load = _FakeMemOp(2, 0x100, is_load=True)
        lsq.add_store(store), lsq.add_load(load)
        assert lsq.blocking_store(load) is store
        store.executed = True
        store.complete_cycle = 5
        assert lsq.blocking_store(load) is None
        assert lsq.forwarding_store(load, 10) is store

    def test_different_addresses_do_not_block(self):
        lsq = LoadStoreQueues()
        store = _FakeMemOp(1, 0x100, is_load=False)
        load = _FakeMemOp(2, 0x200, is_load=True)
        lsq.add_store(store), lsq.add_load(load)
        assert lsq.blocking_store(load) is None

    def test_younger_store_does_not_block(self):
        lsq = LoadStoreQueues()
        load = _FakeMemOp(1, 0x100, is_load=True)
        store = _FakeMemOp(2, 0x100, is_load=False)
        lsq.add_load(load), lsq.add_store(store)
        assert lsq.blocking_store(load) is None

    def test_violation_detection(self):
        lsq = LoadStoreQueues()
        store = _FakeMemOp(1, 0x300, is_load=False)
        load = _FakeMemOp(2, 0x300, is_load=True)
        lsq.add_store(store), lsq.add_load(load)
        load.issued = True
        violators = lsq.find_violations(store)
        assert violators == [load]
        assert lsq.violations == 1

    def test_squash_drops_young_entries(self):
        lsq = LoadStoreQueues()
        old = _FakeMemOp(1, 0x100, is_load=True)
        young = _FakeMemOp(9, 0x200, is_load=True)
        lsq.add_load(old), lsq.add_load(young)
        lsq.squash(min_seq=5)
        assert lsq.lq_occupancy == 1

    def test_capacity(self):
        lsq = LoadStoreQueues(lq_capacity=1, sq_capacity=1)
        lsq.add_load(_FakeMemOp(1, 0, True))
        assert lsq.lq_full
        with pytest.raises(OverflowError):
            lsq.add_load(_FakeMemOp(2, 0, True))


class TestIssuePorts:
    def test_alu_width(self):
        ports = IssuePorts(PortConfig())
        ports.new_cycle(0)
        granted = sum(
            ports.try_issue(FuClass.INT_ALU, 0) for _ in range(6)
        )
        assert granted == 4  # Table I: 4 ALUs

    def test_total_issue_width(self):
        ports = IssuePorts(PortConfig())
        ports.new_cycle(0)
        granted = 0
        for fu in (FuClass.INT_ALU,) * 4 + (FuClass.FP_ALU,) * 3 + (
            FuClass.MEM_LOAD,
        ) * 2:
            granted += ports.try_issue(fu, 0)
        assert granted == 8  # 8-issue cap

    def test_divider_not_pipelined(self):
        ports = IssuePorts(PortConfig())
        ports.new_cycle(0)
        assert ports.try_issue(FuClass.INT_DIV, 0)
        ports.new_cycle(1)
        assert not ports.try_issue(FuClass.INT_DIV, 1)  # busy 25 cycles
        ports.new_cycle(30)
        assert ports.try_issue(FuClass.INT_DIV, 30)

    def test_store_uses_store_port_first(self):
        ports = IssuePorts(PortConfig())
        ports.new_cycle(0)
        assert ports.try_issue(FuClass.MEM_STORE, 0)   # store-only port
        assert ports.try_issue(FuClass.MEM_LOAD, 0)
        assert ports.try_issue(FuClass.MEM_LOAD, 0)
        assert not ports.try_issue(FuClass.MEM_LOAD, 0)  # both ld ports used

    def test_validation_lock_fu_steals_load_port(self):
        ports = IssuePorts(PortConfig())
        ports.new_cycle(0)
        assert ports.try_issue_validation(FuClass.MEM_LOAD, 0, lock_fu=True)
        assert ports.validation_on_load_port == 1
        assert ports.try_issue(FuClass.MEM_LOAD, 0)
        assert not ports.try_issue(FuClass.MEM_LOAD, 0)

    def test_validation_any_fu_prefers_non_load(self):
        ports = IssuePorts(PortConfig())
        ports.new_cycle(0)
        assert ports.try_issue_validation(FuClass.MEM_LOAD, 0, lock_fu=False)
        assert ports.validation_on_load_port == 0  # used an ALU instead
        assert ports.try_issue(FuClass.MEM_LOAD, 0)
        assert ports.try_issue(FuClass.MEM_LOAD, 0)


class TestStoreSets:
    def test_untrained_imposes_no_dependency(self):
        sets = StoreSets()
        assert sets.load_dependency(0x1000) is None

    def test_violation_trains_dependency(self):
        sets = StoreSets()
        sets.train_violation(load_pc=0x1000, store_pc=0x2000)
        token = object()
        sets.store_dispatched(0x2000, token)
        assert sets.load_dependency(0x1000) is token

    def test_store_completion_clears_lfst(self):
        sets = StoreSets()
        sets.train_violation(0x1000, 0x2000)
        token = object()
        sets.store_dispatched(0x2000, token)
        sets.store_completed(0x2000, token)
        assert sets.load_dependency(0x1000) is None

    def test_set_merging(self):
        sets = StoreSets()
        sets.train_violation(0x1000, 0x2000)
        sets.train_violation(0x1000, 0x3000)  # merge second store in
        token = object()
        sets.store_dispatched(0x3000, token)
        assert sets.load_dependency(0x1000) is token

    def test_power_of_two_validation(self):
        with pytest.raises(ValueError):
            StoreSets(ssit_entries=1000)


# ---------------------------------------------------------------------------
# try_issue arms inlined into the generated issue loop
# ---------------------------------------------------------------------------


def _inline_arm(ports: IssuePorts, fu: FuClass, cycle: int) -> bool:
    """Replica of the arms the generated issue loop inlines (genrename):
    the INT_ALU/BRANCH and MEM_LOAD decisions with literal counts.  (Its
    third arm, FU class NONE, never runs: such ops skip the IQ.)"""
    if fu is FuClass.INT_ALU or fu is FuClass.BRANCH:
        if ports._alu >= ports._alu_count:
            return False
        ports._alu += 1
        ports._total += 1
        return True
    if fu is FuClass.MEM_LOAD:
        if ports._ldst >= ports._ldst_ports:
            return False
        ports._ldst += 1
        ports._total += 1
        return True
    return ports.try_issue(fu, cycle)


class TestIssuePortInlineEquivalence:
    """The inlined arms match ``IssuePorts.try_issue`` exactly while a
    slot is free — and both issue loops break on ``_total >=
    issue_width`` before ever reaching an arm, so that is the only
    regime the inline decision runs in."""

    @settings(max_examples=120, deadline=None)
    @given(
        fus=st.lists(
            st.sampled_from([
                FuClass.INT_ALU, FuClass.BRANCH, FuClass.MEM_LOAD,
                FuClass.MEM_STORE, FuClass.FP_ALU, FuClass.INT_MUL,
            ]),
            min_size=1, max_size=24,
        ),
    )
    def test_arm_matches_method(self, fus):
        config = PortConfig()
        oracle = IssuePorts(config)
        inlined = IssuePorts(config)
        oracle.new_cycle(0)
        inlined.new_cycle(0)
        for fu in fus:
            # Both issue loops only reach the arms below this guard.
            if inlined._total >= config.issue_width:
                break
            assert oracle.try_issue(fu, 0) == _inline_arm(inlined, fu, 0)
            assert (
                oracle._total, oracle._alu, oracle._ldst,
                oracle._fp, oracle._store_only, oracle._mul,
            ) == (
                inlined._total, inlined._alu, inlined._ldst,
                inlined._fp, inlined._store_only, inlined._mul,
            )
