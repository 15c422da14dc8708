"""Deterministic fault injection for the profiling runtime.

A :class:`FaultPlan` names *where* faults fire (batch sequence numbers in
the :class:`repro.runtime.pipeline.BatchingPipeline`) and *what* fires
(worker crashes, batch drops, slow batches, memory-pressure events).  The
plan is resolved entirely from its seed and specs — never from wall-clock
time, thread scheduling, or Python object identity — so two runs of the
same workload with the same plan inject byte-identical fault streams even
in threaded pipeline mode (batch sequence numbers are assigned by the
single producer thread).

Plans are built programmatically or parsed from the compact CLI syntax::

    seed=42;crash@3;drop@5;slow@7:250;mempressure@9;rate=0.01

``crash@3`` injects a worker crash when batch #3 is first processed;
``slow@7:250`` charges 250 virtual time units of extra latency to batch
#7; ``rate=0.01`` additionally crashes ~1% of batches, chosen by a
seed+sequence hash; a trailing ``!`` (``crash@3!``) makes the crash
fire on every retry.  Unknown kind names are rejected with a
:class:`repro.errors.RuntimeToolError` listing the valid kinds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import FaultInjected, RuntimeToolError


class FaultKind(enum.Enum):
    """What a fault-injection point does to the batch it targets."""

    WORKER_CRASH = "crash"        # process() raises FaultInjected
    BATCH_DROP = "drop"           # batch is lost before processing
    SLOW_BATCH = "slow"           # batch incurs extra virtual latency
    MEMORY_PRESSURE = "mempressure"  # batch is shed as if memory ran out


_KIND_BY_NAME = {kind.value: kind for kind in FaultKind}


@dataclass(frozen=True)
class FaultSpec:
    """One fault: fire ``kind`` when batch ``seq`` reaches the pipeline.

    ``delay`` is the virtual latency of a :data:`FaultKind.SLOW_BATCH`.
    ``persist`` makes a crash fire on every retry attempt (an unrecoverable
    fault); by default a crash fires only on the first attempt, so bounded
    retry recovers it.
    """

    kind: FaultKind
    seq: int
    delay: int = 0
    persist: bool = False

    def __post_init__(self) -> None:
        if self.seq < 0:
            raise RuntimeToolError(f"fault seq must be >= 0, got {self.seq}")
        if self.delay < 0:
            raise RuntimeToolError(
                f"fault delay must be >= 0, got {self.delay}"
            )


def _mix(seed: int, seq: int) -> float:
    """Deterministic per-(seed, seq) uniform sample in [0, 1).

    A splitmix64 finalizer: good avalanche, no Python ``random`` state, so
    the draw for batch ``seq`` is independent of processing order.
    """
    z = (seed * 0x9E3779B97F4A7C15 + seq + 1) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    z ^= z >> 31
    return z / 2**64


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, fully deterministic schedule of injected faults."""

    seed: int = 0
    specs: Tuple[FaultSpec, ...] = ()
    #: Probability that any given batch additionally suffers a worker
    #: crash, drawn from a seed+seq hash (0.0 disables).
    crash_rate: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.crash_rate <= 1.0:
            raise RuntimeToolError(
                f"crash_rate must be in [0, 1], got {self.crash_rate}"
            )

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the CLI syntax (see module docstring)."""
        seed = 0
        rate = 0.0
        specs: List[FaultSpec] = []
        for raw in text.split(";"):
            part = raw.strip()
            if not part:
                continue
            if part.startswith("seed="):
                seed = int(part[len("seed="):])
                continue
            if part.startswith("rate="):
                rate = float(part[len("rate="):])
                continue
            if "@" not in part:
                raise RuntimeToolError(
                    f"bad fault spec {part!r}: expected kind@seq[:delay][!]"
                )
            name, _, where = part.partition("@")
            persist = where.endswith("!")
            if persist:
                where = where[:-1]
            delay = 0
            if ":" in where:
                where, _, delay_text = where.partition(":")
                delay = int(delay_text)
            if name not in _KIND_BY_NAME:
                raise RuntimeToolError(
                    f"unknown fault kind {name!r} "
                    f"(choose from {sorted(_KIND_BY_NAME)})"
                )
            specs.append(
                FaultSpec(_KIND_BY_NAME[name], int(where), delay, persist)
            )
        return cls(seed=seed, specs=tuple(specs), crash_rate=rate)

    def render(self) -> str:
        """Inverse of :meth:`parse` (stable ordering)."""
        parts = [f"seed={self.seed}"]
        for spec in sorted(self.specs, key=lambda s: (s.seq, s.kind.value)):
            piece = f"{spec.kind.value}@{spec.seq}"
            if spec.delay:
                piece += f":{spec.delay}"
            if spec.persist:
                piece += "!"
            parts.append(piece)
        if self.crash_rate:
            parts.append(f"rate={self.crash_rate}")
        return ";".join(parts)


class FaultInjector:
    """Runtime companion of a :class:`FaultPlan`.

    The pipeline calls :meth:`fire` once per processing attempt of each
    batch; the injector raises :class:`FaultInjected` for crash faults and
    returns drop/shed instructions for queue-level faults.  All decisions
    are functions of ``(plan, seq, attempt)`` only.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._by_seq: Dict[int, List[FaultSpec]] = {}
        for spec in plan.specs:
            self._by_seq.setdefault(spec.seq, []).append(spec)
        for specs in self._by_seq.values():
            specs.sort(key=lambda s: s.kind.value)
        self.faults_fired = 0

    def _rate_crash(self, seq: int) -> bool:
        rate = self.plan.crash_rate
        return rate > 0.0 and _mix(self.plan.seed, seq) < rate

    def drop_kind(self, seq: int) -> Optional[FaultKind]:
        """Queue-level fault for this batch, if any (drop/memory pressure)."""
        for spec in self._by_seq.get(seq, ()):
            if spec.kind in (FaultKind.BATCH_DROP, FaultKind.MEMORY_PRESSURE):
                self.faults_fired += 1
                return spec.kind
        return None

    def delay_for(self, seq: int) -> int:
        """Extra virtual latency charged to this batch."""
        total = 0
        for spec in self._by_seq.get(seq, ()):
            if spec.kind is FaultKind.SLOW_BATCH:
                self.faults_fired += 1
                total += spec.delay
        return total

    def fire(self, seq: int, attempt: int) -> None:
        """Raise :class:`FaultInjected` if a crash targets this attempt."""
        for spec in self._by_seq.get(seq, ()):
            if spec.kind is FaultKind.WORKER_CRASH:
                if attempt == 0 or spec.persist:
                    self.faults_fired += 1
                    raise FaultInjected(
                        f"injected worker crash at batch {seq}"
                        + (" (persistent)" if spec.persist else "")
                    )
        if attempt == 0 and self._rate_crash(seq):
            self.faults_fired += 1
            raise FaultInjected(f"injected worker crash at batch {seq} (rate)")
