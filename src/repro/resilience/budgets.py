"""Execution budgets and the runtime resilience policy.

Two layers of bounds keep a misbehaving program (or an injected fault)
from taking down a profiling session:

- :class:`ExecutionBudgets` guards the **VM**: step limit, heap-byte
  limit, and recursion depth, each raising
  :class:`repro.errors.BudgetExceeded` (a :class:`TrapError`) instead of
  exhausting host memory or hitting Python's ``RecursionError``;
- :class:`ResiliencePolicy` guards the **runtime**: a bounded batch queue
  with a producer blocking/shedding policy, bounded batch retries with
  deterministic virtual-time backoff, per-ROI event budgets, and the
  ``degrade`` switch that turns unrecoverable failures into degraded-mode
  PSEC instead of raised errors.

Both parse from the compact ``--budget`` CLI syntax::

    steps=5000000,heap=1048576,depth=256,events-per-roi=20000,
    queue=64,policy=block,retries=2,backoff=100,degrade=1
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import RuntimeToolError

QUEUE_POLICIES = ("block", "shed")


def _require_nonnegative(name: str, value: int) -> None:
    if value < 0:
        raise RuntimeToolError(f"budget {name!r} must be >= 0, got {value}")


@dataclass(frozen=True)
class ExecutionBudgets:
    """VM guards; ``0`` disables the corresponding limit."""

    max_steps: int = 0
    max_heap_bytes: int = 0
    max_recursion_depth: int = 0

    def __post_init__(self) -> None:
        _require_nonnegative("steps", self.max_steps)
        _require_nonnegative("heap", self.max_heap_bytes)
        _require_nonnegative("depth", self.max_recursion_depth)


@dataclass(frozen=True)
class ResiliencePolicy:
    """Runtime-layer bounds and failure handling; defaults are all-off,
    which preserves the pre-resilience behaviour bit for bit."""

    #: Bound on queued batches awaiting workers (0 = unbounded).
    max_queue_batches: int = 0
    #: What the producer does when the queue is full: ``block`` until a
    #: worker frees a slot, or ``shed`` the batch into degraded mode.
    queue_policy: str = "block"
    #: Bounded retry of a failed batch before giving up on it.
    max_retries: int = 0
    #: Virtual-time backoff of the first retry; doubles per attempt.
    #: Charged to the pipeline's shadow clock, never the program's
    #: critical path, and summed deterministically across batches.
    retry_backoff: int = 100
    #: When a batch is unrecoverable (retries exhausted, dropped, shed),
    #: fall back to conservative classification and mark the PSEC
    #: ``degraded`` instead of raising.
    degrade: bool = False
    #: Per-ROI event budget (0 = unlimited); past it the ROI switches to
    #: conservative classification (sampling-free partial tracking).
    max_events_per_roi: int = 0

    def __post_init__(self) -> None:
        _require_nonnegative("queue", self.max_queue_batches)
        _require_nonnegative("retries", self.max_retries)
        _require_nonnegative("backoff", self.retry_backoff)
        _require_nonnegative("events-per-roi", self.max_events_per_roi)
        if self.queue_policy not in QUEUE_POLICIES:
            raise RuntimeToolError(
                f"queue policy must be one of {QUEUE_POLICIES}, "
                f"got {self.queue_policy!r}"
            )
        if self.queue_policy == "shed" and not self.degrade:
            raise RuntimeToolError(
                "queue policy 'shed' discards batches and therefore "
                "requires degrade=True (shed events must land in a "
                "DegradationReport, never vanish silently)"
            )


@dataclass(frozen=True)
class BudgetSpec:
    """Parsed ``--budget`` flag: VM budgets plus the runtime policy."""

    vm: ExecutionBudgets
    runtime: ResiliencePolicy


_VM_KEYS = {"steps": "max_steps", "heap": "max_heap_bytes",
            "depth": "max_recursion_depth"}
_RUNTIME_KEYS = {"queue": "max_queue_batches", "retries": "max_retries",
                 "backoff": "retry_backoff",
                 "events-per-roi": "max_events_per_roi"}


def _int_value(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise RuntimeToolError(
            f"bad budget value for {key!r}: expected an integer, "
            f"got {value!r}"
        ) from None


def parse_budget_spec(text: str) -> BudgetSpec:
    """Parse ``key=value`` pairs separated by commas (see module doc)."""
    vm_kwargs: Dict[str, int] = {}
    runtime_kwargs: Dict[str, object] = {}
    for raw in text.split(","):
        part = raw.strip()
        if not part:
            continue
        if "=" not in part:
            raise RuntimeToolError(
                f"bad budget entry {part!r}: expected key=value"
            )
        key, _, value = part.partition("=")
        key = key.strip()
        value = value.strip()
        if key in _VM_KEYS:
            vm_kwargs[_VM_KEYS[key]] = _int_value(key, value)
        elif key in _RUNTIME_KEYS:
            runtime_kwargs[_RUNTIME_KEYS[key]] = _int_value(key, value)
        elif key == "policy":
            runtime_kwargs["queue_policy"] = value
        elif key == "degrade":
            runtime_kwargs["degrade"] = value not in ("0", "false", "no")
        else:
            known: Tuple[str, ...] = tuple(
                sorted([*_VM_KEYS, *_RUNTIME_KEYS, "policy", "degrade"])
            )
            raise RuntimeToolError(
                f"unknown budget key {key!r} (choose from {known})"
            )
    return BudgetSpec(vm=ExecutionBudgets(**vm_kwargs),
                      runtime=ResiliencePolicy(**runtime_kwargs))
