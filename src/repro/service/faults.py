"""Deterministic fault injection for the sharded sweep service.

A :class:`FaultPlan` names exactly which shard attempts fail and how, so
every failure path of the supervisor — worker death, hang, corrupt or
tampered artifacts, poison shards — is exercised deterministically by
the tests rather than waiting for production to discover them.  The
plan is plain data: it parses from the ``REPRO_FAULTS`` environment
variable (or a constructor argument), serialises back to the same text,
and travels to worker processes inside the shard payload — workers
never consult ambient environment state, so a plan replays identically
anywhere.

Grammar (comma-separated entries)::

    kind:shard[:attempt]

* ``kind`` — one of :data:`FAULT_KINDS`:

  - ``crash``   the worker process dies (``os._exit``) mid-shard;
  - ``hang``    the worker sleeps past any deadline (killed, retried);
  - ``corrupt`` the worker writes a truncated artifact (parse-rejected);
  - ``tamper``  the worker writes a well-formed artifact whose stats
    were altered (digest-rejected).

* ``shard`` — the shard index the fault applies to.
* ``attempt`` — which attempt fails: an integer (default ``0``, the
  first), or ``*`` for every attempt (a poison shard: retries are
  exhausted and the supervisor quarantines it).

Examples: ``crash:0,corrupt:1`` (first attempts fail, retries succeed —
what the fault tests inject), ``crash:2:*`` (shard 2 is poison).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Recognised fault kinds (see module docstring).
FAULT_KINDS = ("crash", "hang", "corrupt", "tamper")

#: Sentinel attempt index meaning "every attempt" (a poison shard).
ALL_ATTEMPTS = -1


class FaultPlanError(ValueError):
    """A fault-plan entry does not follow ``kind:shard[:attempt]``."""


@dataclass(frozen=True)
class Fault:
    """One injected failure: *kind* on *shard*, at *attempt* (or all)."""

    kind: str
    shard: int
    attempt: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r} "
                f"(choose from {', '.join(FAULT_KINDS)})"
            )
        if self.shard < 0:
            raise FaultPlanError(f"shard index must be >= 0: {self.shard}")
        if self.attempt < ALL_ATTEMPTS:
            raise FaultPlanError(f"attempt must be >= 0 or '*': {self.attempt}")

    def matches(self, shard: int, attempt: int) -> bool:
        return self.shard == shard and (
            self.attempt == ALL_ATTEMPTS or self.attempt == attempt
        )

    def render(self) -> str:
        if self.attempt == ALL_ATTEMPTS:
            return f"{self.kind}:{self.shard}:*"
        if self.attempt == 0:
            return f"{self.kind}:{self.shard}"
        return f"{self.kind}:{self.shard}:{self.attempt}"


@dataclass(frozen=True)
class FaultPlan:
    """The full injection schedule; empty by default (no faults)."""

    faults: tuple[Fault, ...] = ()

    @classmethod
    def parse(cls, text: str | None) -> "FaultPlan":
        """Parse ``REPRO_FAULTS`` text; ``None``/blank = no faults."""
        if text is None or not text.strip():
            return cls()
        faults = []
        for entry in text.split(","):
            entry = entry.strip()
            if not entry:
                continue
            parts = entry.split(":")
            if len(parts) not in (2, 3):
                raise FaultPlanError(
                    f"bad fault entry {entry!r}: expected kind:shard[:attempt]"
                )
            kind, shard_text = parts[0].strip().lower(), parts[1].strip()
            attempt_text = parts[2].strip() if len(parts) == 3 else "0"
            try:
                shard = int(shard_text)
            except ValueError:
                raise FaultPlanError(
                    f"bad shard index {shard_text!r} in {entry!r}"
                ) from None
            if attempt_text == "*":
                attempt = ALL_ATTEMPTS
            else:
                try:
                    attempt = int(attempt_text)
                except ValueError:
                    raise FaultPlanError(
                        f"bad attempt {attempt_text!r} in {entry!r} "
                        "(an integer or '*')"
                    ) from None
            faults.append(Fault(kind, shard, attempt))
        return cls(tuple(faults))

    def render(self) -> str:
        """The plan back as ``REPRO_FAULTS`` text (``parse`` round-trips)."""
        return ",".join(fault.render() for fault in self.faults)

    def fault_for(self, shard: int, attempt: int) -> str | None:
        """The fault kind injected into (*shard*, *attempt*), if any."""
        for fault in self.faults:
            if fault.matches(shard, attempt):
                return fault.kind
        return None

    def __bool__(self) -> bool:
        return bool(self.faults)
