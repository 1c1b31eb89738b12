"""Front-end branch handling: TAGE + BTB + RAS behind one interface.

The timing model replays the committed path, so the question the front-end
answers for each branch is "*would* this fetch have been redirected
correctly?".  The unit performs real predictor lookups (which also train the
real tables) and classifies the outcome:

* correct — no penalty;
* ``decode_redirect`` — direction correct but target unknown at fetch
  (direct-branch BTB miss): short front-end bubble, target computed at
  decode;
* ``mispredicted`` — wrong direction or wrong indirect/return target:
  execute-time redirect, full minimum penalty (17 cycles, Table I).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.history import GlobalHistory, PathHistory
from repro.common.rng import XorShift64
from repro.frontend.btb import BranchTargetBuffer
from repro.frontend.ras import ReturnAddressStack
from repro.frontend.tage import BranchPrediction, TageBranchPredictor, TageConfig
from repro.isa.instruction import DynInst
from repro.isa.program import INSTR_BYTES


@dataclass(slots=True)
class FetchOutcome:
    """What fetching one branch did, kept with the in-flight instruction."""

    mispredicted: bool
    decode_redirect: bool
    tage: BranchPrediction | None
    ras_checkpoint: int
    #: Lazy checkpoint: the raw global-history bits alone.  Folded views
    #: are recomputed on restore (squash), which is far rarer than fetch.
    history_snapshot: int
    path_snapshot: int
    pc: int
    taken: bool
    target_pc: int


class BranchUnit:
    """Table I front-end: TAGE direction, 2-way 4K BTB, 32-entry RAS."""

    def __init__(
        self,
        history: GlobalHistory,
        path: PathHistory,
        rng: XorShift64,
        tage_config: TageConfig | None = None,
        btb_entries: int = 4096,
        ras_entries: int = 32,
    ) -> None:
        self.history = history
        self.path = path
        self.tage = TageBranchPredictor(
            tage_config or TageConfig(), history, path, rng
        )
        self.btb = BranchTargetBuffer(btb_entries)
        self.ras = ReturnAddressStack(ras_entries)
        self.conditional_branches = 0
        self.direction_mispredicts = 0
        self.target_mispredicts = 0
        self.decode_redirects = 0

    # ------------------------------------------------------------------

    def fetch_branch(self, op: DynInst) -> FetchOutcome:
        """Predict *op* at fetch time; speculatively updates history/RAS."""
        history_snapshot = self.history.snapshot_raw()
        path_snapshot = self.path.snapshot()
        ras_checkpoint = self.ras.checkpoint()

        mispredicted = False
        decode_redirect = False
        tage_prediction: BranchPrediction | None = None

        if op.is_conditional:
            self.conditional_branches += 1
            tage_prediction = self.tage.predict(op.pc)
            predicted_taken = tage_prediction.taken
            if predicted_taken != op.taken:
                mispredicted = True
                self.direction_mispredicts += 1
            elif op.taken and self.btb.lookup(op.pc) is None:
                decode_redirect = True
                self.decode_redirects += 1
            self.history.push(1 if op.taken else 0)
        elif op.is_return:
            predicted_target = self.ras.pop()
            if predicted_target != op.target_pc:
                mispredicted = True
                self.target_mispredicts += 1
        else:
            # Unconditional direct branch or call: direction is implicit,
            # only the target may be unknown until decode.
            if self.btb.lookup(op.pc) is None:
                decode_redirect = True
                self.decode_redirects += 1
            if op.is_call:
                self.ras.push(op.pc + INSTR_BYTES)

        if op.taken:
            self.path.push(op.pc)

        return FetchOutcome(
            mispredicted=mispredicted,
            decode_redirect=decode_redirect,
            tage=tage_prediction,
            ras_checkpoint=ras_checkpoint,
            history_snapshot=history_snapshot,
            path_snapshot=path_snapshot,
            pc=op.pc,
            taken=op.taken,
            target_pc=op.target_pc,
        )

    # ------------------------------------------------------------------

    def commit_branch(self, outcome: FetchOutcome) -> None:
        """Commit-time training for one branch."""
        if outcome.tage is not None:
            self.tage.update(outcome.tage, outcome.taken)
        if outcome.taken and outcome.target_pc >= 0:
            self.btb.update(outcome.pc, outcome.target_pc)

    def squash_to(self, outcome: FetchOutcome) -> None:
        """Restore front-end speculation state to just before *outcome*."""
        self.history.restore_raw(outcome.history_snapshot)
        self.path.restore(outcome.path_snapshot)
        self.ras.restore(outcome.ras_checkpoint)
