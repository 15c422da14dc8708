"""Seeded request plans: which request goes when, per workload.

A plan is an endless sequence of *passes*.  Every pass of a workload
holds the same multiset of requests -- whole passes over the 15 suite
programs -- so a run made of whole passes has the same program mix
whatever its seed or length.  The seed only decides order, and for
``serve_mixed`` which program/kind each cold slot carries.

This module is pure: it knows program names, not the ``repro`` package,
so the tests can exercise it without importing the toolchain.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Iterator, List, Sequence

KINDS = ("recommend", "psec")

#: ``serve_mixed``: one request in ``COLD_EVERY`` carries a fresh
#: namespace.  Cold requests sit at a fixed stride (the last slot of every
#: block of ``COLD_EVERY``) so no seed can cluster them.
COLD_EVERY = 10
#: ``serve_mixed``: copies of the 30 program x kind pairs per pass.  With
#: 15 programs this makes 150 requests and 15 cold slots, so every
#: program is cold exactly once per pass and the cold cost of a pass does
#: not depend on the seed.
SERVE_ROUNDS = 5

WORKLOADS = ("profile_cold", "requery_warm", "serve_mixed")


@dataclass(frozen=True)
class Planned:
    """One request of a plan."""

    program: str
    kind: str
    #: True when the request must miss every stage (fresh namespace).
    cold: bool


def _rng(workload: str, seed: int, index: int) -> random.Random:
    # String seeds hash through SHA-512: stable across processes.
    return random.Random(f"{workload}:{seed}:{index}")


def pass_requests(workload: str, programs: Sequence[str], seed: int,
                  index: int) -> List[Planned]:
    """Pass ``index`` of ``workload``'s plan for ``seed``."""
    rng = _rng(workload, seed, index)
    if workload == "profile_cold":
        order = list(programs)
        rng.shuffle(order)
        return [Planned(p, "recommend", True) for p in order]
    pairs = [(p, k) for p in programs for k in KINDS]
    if workload == "requery_warm":
        rng.shuffle(pairs)
        return [Planned(p, k, False) for p, k in pairs]
    if workload == "serve_mixed":
        return _serve_pass(programs, pairs, rng)
    raise ValueError(f"unknown workload {workload!r}")


def _serve_pass(programs, pairs, rng) -> List[Planned]:
    cold_programs = list(programs)
    rng.shuffle(cold_programs)
    # Kinds of the cold requests: as balanced as the count allows.
    cold_kinds = [KINDS[i % len(KINDS)] for i in range(len(programs))]
    rng.shuffle(cold_kinds)
    cold = list(zip(cold_programs, cold_kinds))
    warm = pairs * SERVE_ROUNDS
    for pair in cold:
        warm.remove(pair)
    rng.shuffle(warm)
    per_block = COLD_EVERY - 1
    out: List[Planned] = []
    for block, (program, kind) in enumerate(cold):
        out.extend(Planned(p, k, False)
                   for p, k in warm[block * per_block:(block + 1) * per_block])
        out.append(Planned(program, kind, True))
    return out


def passes(workload: str, programs: Sequence[str],
           seed: int) -> Iterator[List[Planned]]:
    index = 0
    while True:
        yield pass_requests(workload, programs, seed, index)
        index += 1


def sequence_digest(planned: Sequence[Planned]) -> str:
    """SHA-256 of a request sequence (program, kind, cold), in order."""
    blob = json.dumps([[r.program, r.kind, r.cold] for r in planned],
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
