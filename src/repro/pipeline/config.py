"""Core and mechanism configuration.

:class:`CoreConfig` encodes Table I.  :class:`MechanismConfig` selects
which of the paper's mechanisms are active, mirroring the five bars of
Fig. 4 plus the realistic variants of Figs. 6 and 7; preset constructors
for each experiment live here so benches and examples share one source of
truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.backend.fu import PortConfig
from repro.core.rsep import RsepConfig
from repro.core.validation import ValidationMode
from repro.core.vp_engine import VpConfig
from repro.frontend.tage import TageConfig
from repro.memory.hierarchy import MemoryConfig
from repro.predictors.confidence import ConfidenceScale, SCALED


@dataclass(frozen=True)
class CoreConfig:
    """The Table I microarchitecture."""

    fetch_width: int = 8
    rename_width: int = 8
    commit_width: int = 8
    fetch_buffer_size: int = 32
    frontend_depth: int = 5          # fetch -> rename latency
    rob_entries: int = 192
    iq_entries: int = 60
    lq_entries: int = 72
    sq_entries: int = 48
    int_pregs: int = 235
    fp_pregs: int = 235
    stlf_latency: int = 4            # store-to-load forwarding (Table I)
    mispredict_penalty: int = 17     # minimum, Table I
    decode_redirect_bubble: int = 3  # direct-branch BTB miss
    ports: PortConfig = field(default_factory=PortConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    tage: TageConfig = field(default_factory=TageConfig)
    zero_idiom_elimination: bool = True  # baseline feature (Table I)
    watchdog_cycles: int = 200_000

    @property
    def redirect_delay(self) -> int:
        """Cycles from resolution to restarted fetch.

        Chosen so that resolution -> corrected rename takes the Table I
        minimum penalty: redirect + frontend_depth + 1 == 17.
        """
        return max(1, self.mispredict_penalty - self.frontend_depth - 1)

    def fingerprint(self) -> str:
        """Content fingerprint of this core configuration.

        Every field participates — there is no display name to exclude:
        the whole value is the machine being simulated.  The tree is
        frozen dataclasses and scalars with deterministic ``repr``.
        Joins the sweep engine's cell keys and the result-lake /
        µarch-checkpoint tokens, so two different cores can never share
        a cached result.
        """
        return repr(self)


@dataclass(frozen=True)
class MechanismConfig:
    """Which speculation/elimination mechanisms are enabled."""

    name: str = "baseline"
    move_elim: bool = False
    zero_pred: bool = False
    rsep: RsepConfig | None = None
    vp: VpConfig | None = None
    confidence: ConfidenceScale = SCALED

    # ------------------------------------------------------------------
    # Fig. 4 presets
    # ------------------------------------------------------------------

    @classmethod
    def baseline(cls) -> "MechanismConfig":
        """Table I core with zero-idiom elimination only."""
        return cls(name="baseline")

    @classmethod
    def zero_prediction(cls) -> "MechanismConfig":
        return cls(name="zero_pred", zero_pred=True)

    @classmethod
    def move_elimination(cls) -> "MechanismConfig":
        return cls(name="move_elim", move_elim=True)

    @classmethod
    def rsep_ideal(cls) -> "MechanismConfig":
        """RSEP with ideal validation and large structures (Fig. 4)."""
        return cls(name="rsep", move_elim=True, rsep=RsepConfig.ideal())

    @classmethod
    def value_prediction(cls) -> "MechanismConfig":
        return cls(name="vpred", vp=VpConfig())

    @classmethod
    def rsep_plus_vp(cls) -> "MechanismConfig":
        return cls(
            name="rsep+vpred",
            move_elim=True,
            rsep=RsepConfig.ideal(),
            vp=VpConfig(),
        )

    # ------------------------------------------------------------------
    # Fig. 6 presets: validation & sampling variants of ideal RSEP
    # ------------------------------------------------------------------

    @classmethod
    def rsep_validation(
        cls,
        mode: ValidationMode,
        sampling: bool = False,
        start_train_threshold: int = 63,
    ) -> "MechanismConfig":
        import dataclasses

        rsep = RsepConfig.ideal()
        predictor = dataclasses.replace(
            rsep.predictor, start_train_threshold=start_train_threshold
        )
        rsep = dataclasses.replace(
            rsep, validation=mode, sampling=sampling, predictor=predictor
        )
        return cls(
            name=f"rsep-val-{mode.value}"
            + (f"-samp{start_train_threshold}" if sampling else ""),
            move_elim=True,
            rsep=rsep,
        )

    # ------------------------------------------------------------------
    # Fig. 7 preset: the 10.1KB realistic configuration
    # ------------------------------------------------------------------

    @classmethod
    def rsep_realistic(cls) -> "MechanismConfig":
        return cls(
            name="rsep-realistic",
            move_elim=True,
            rsep=RsepConfig.realistic(),
        )

    @classmethod
    def preset(cls, name: str) -> "MechanismConfig":
        """Resolve a CLI/spec preset name to its configuration."""
        try:
            return MECHANISM_PRESETS[name]()
        except KeyError:
            raise KeyError(
                f"unknown mechanism {name!r}; choose from "
                f"{sorted(MECHANISM_PRESETS)}"
            ) from None

    def fingerprint(self) -> str:
        """Content fingerprint of this configuration.

        The display name is excluded: it labels the experiment, not the
        machine being simulated.  Everything else is a tree of frozen
        dataclasses, enums and scalars with deterministic ``repr``.
        Used by the sweep engine's cell memo and the µarch-checkpoint
        keys.
        """
        return repr(replace(self, name=""))


#: Mechanism presets addressable by name from CLIs and specs — one per
#: bar of Fig. 4 plus the Fig. 7 realistic configuration.
MECHANISM_PRESETS = {
    "baseline": MechanismConfig.baseline,
    "zero_pred": MechanismConfig.zero_prediction,
    "move_elim": MechanismConfig.move_elimination,
    "rsep": MechanismConfig.rsep_ideal,
    "vpred": MechanismConfig.value_prediction,
    "rsep+vpred": MechanismConfig.rsep_plus_vp,
    "rsep-realistic": MechanismConfig.rsep_realistic,
}
