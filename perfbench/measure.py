"""Measurement helpers: percentiles, response checks, host readings."""

from __future__ import annotations

import math
import os
import resource
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: A percentile is trusted only with this many samples beyond it.
MIN_BEYOND = 10


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b), by Lentz's
    continued fraction."""
    if x <= 0.0 or x >= 1.0:
        return max(0.0, min(1.0, x))
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, 1.0 - x)
    front = math.exp(a * math.log(x) + b * math.log1p(-x) + math.lgamma(a + b)
                     - math.lgamma(a) - math.lgamma(b)) / a
    tiny = 1e-300
    f, c, d = 1.0, 1.0, 0.0
    for i in range(1000):
        m = i // 2
        if i == 0:
            num = 1.0
        elif i % 2 == 0:
            num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        else:
            num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        d = 1.0 + num * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + num / c
        c = c if abs(c) > tiny else tiny
        f *= c * d
        if abs(1.0 - c * d) < 1e-14:
            break
    return front * (f - 1.0)


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q`` quantile (0 < q < 1) of ``samples`` by the Harrell-Davis
    estimator: a mean of all order statistics, weighted by a
    Beta((n+1)q, (n+1)(1-q)) kernel around rank ``q n``.

    A single order statistic jumps when the percentile sits between two
    groups of requests -- ``serve_mixed``'s p90 lies between its warm and
    its cold requests -- and between runs of 2 and 3 passes of one mix.
    The weighted mean moves smoothly in both cases."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    total, below = 0.0, 0.0
    for i, value in enumerate(ordered, 1):
        upto = _betainc(a, b, i / n)
        total += (upto - below) * value
        below = upto
    return total


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples rank above the ``q`` quantile's rank,
    ``q (n + 1)``."""
    return max(0, n - math.floor(q * (n + 1)))


def percentile_supported(n: int, q: float) -> bool:
    """The percentile rule: at least :data:`MIN_BEYOND` samples beyond."""
    return samples_beyond(n, q) >= MIN_BEYOND


class Outcomes:
    """Counts requests and the ones that failed the oracle check.

    A request fails when it raised, came back ``ok: false``, or carried a
    ``response_digest`` other than the oracle digest for its program and
    kind.
    """

    def __init__(self, digest: Callable[[Dict], str]) -> None:
        self._digest = digest
        self.attempted = 0
        self.failed = 0
        self.first_failure: Optional[str] = None

    def record(self, doc: Optional[Dict], expected: str, label: str) -> bool:
        self.attempted += 1
        if doc is None:
            reason = "raised"
        elif not doc.get("ok"):
            reason = f"error {doc.get('error')}"
        elif self._digest(doc) != expected:
            reason = "digest mismatch"
        else:
            return True
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = f"{label}: {reason}"
        return False

    @property
    def ok_frac(self) -> float:
        return (self.attempted - self.failed) / self.attempted \
            if self.attempted else 0.0


class PassClock:
    """Whole-pass stop rule for a run of ``seconds``.

    The first pass always runs; another starts only if, at the current
    mean pass time, it would end within ``seconds``.
    """

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds

    def another(self, elapsed: float, done: int) -> bool:
        return done == 0 or elapsed + elapsed / done <= self.seconds


def cpu_times() -> Tuple[int, int]:
    """(steal, total) jiffies of all CPUs from ``/proc/stat``."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()[1:9]
    except OSError:
        return 0, 0
    values = [int(v) for v in fields]
    return values[7] if len(values) > 7 else 0, sum(values)


def steal_pct(before: Tuple[int, int], after: Tuple[int, int]) -> float:
    total = after[1] - before[1]
    return 100.0 * (after[0] - before[0]) / total if total > 0 else 0.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")


def git_commit(root: Path) -> Optional[str]:
    """HEAD commit read from ``.git`` without running git, or None."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def latency_summary(latencies_s: List[float]) -> Dict[str, float]:
    n = len(latencies_s)
    return {
        "samples": n,
        "p50_ms": percentile(latencies_s, 0.5) * 1000.0,
        "p90_ms": percentile(latencies_s, 0.9) * 1000.0,
        "p90_beyond": samples_beyond(n, 0.9),
        "p90_supported": percentile_supported(n, 0.9),
    }
