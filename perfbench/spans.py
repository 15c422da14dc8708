"""Span tracing from outside the program, and the per-layer metrics.

The traced run wraps the public functions of each layer *on the
attribute its caller looks up*: ``Session`` imports ``deserialize_module``
by name, so the wrapper goes on ``repro.session.session``, not on
``repro.ir.serialize``.  Each call records a span (name, start, end,
parent, request id) in memory; spans are written out when the run ends.
A root span is one with no traced caller -- ``ServiceCore.execute`` in
the program, or the client-side request in ``serve_mixed``.

A layer's time is its *self* time: the span's duration minus the part
of it that traced child spans cover.  Self times of one request
therefore add up to its root span.
"""

from __future__ import annotations

import functools
import gc
import importlib
import itertools
import json
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Span:
    sid: int
    parent: Optional[int]
    rid: int
    name: str
    start: float
    end: float
    #: Counters measured at the call (bytes, instructions, ...), or None.
    attrs: Optional[Dict[str, float]] = None


def _len(value) -> int:
    return len(value) if value is not None else 0


# name -> (module, attribute path, counters(args, result) or None)
TARGETS: Dict[str, Tuple[str, str, Optional[Callable]]] = {
    "service.execute": ("repro.service.core", "ServiceCore.execute", None),
    "session.get": ("repro.session.store", "ArtifactStore.get",
                    lambda a, r: {"bytes": _len(r), "hit": int(r is not None)}),
    "session.put": ("repro.session.store", "ArtifactStore.put",
                    lambda a, r: {"bytes": len(a[2])}),
    "lang.parse": ("repro.compiler.driver", "parse", None),
    "lang.sema": ("repro.compiler.driver", "analyze", None),
    "ir.lower": ("repro.compiler.driver", "lower_program", None),
    "ir.serialize": ("repro.session.session", "serialize_module", None),
    "ir.deserialize": ("repro.session.session", "deserialize_module",
                       lambda a, r: {"bytes": len(a[0])}),
    "passes.run": ("repro.passes.manager", "PassManager.run", None),
    "vm.codegen": ("repro.session.session", "lower_module", None),
    "vm.execute": ("repro.compiler.driver", "run_module",
                   lambda a, r: {"instructions": r.instructions,
                                 "cost": r.cost,
                                 "baseline_cost": r.baseline_cost}),
    "vm.bytecode_deserialize": ("repro.session.session",
                                "deserialize_bytecode", None),
    "runtime.finish": ("repro.runtime.engine", "CarmotRuntime.finish",
                       lambda a, r: {"access_events":
                                     a[0].stats.access_events}),
    "runtime.profile_serialize": ("repro.session.session",
                                  "serialize_profile",
                                  lambda a, r: {"bytes": len(r)}),
    "runtime.profile_deserialize": ("repro.session.session",
                                    "deserialize_profile", None),
    "runtime.sets_doc": ("repro.service.core", "psec_sets_doc", None),
    "recommend.build": ("repro.recommend", "build_recommendation_doc", None),
    "abstractions.describe": ("repro.service.core", "describe_pse", None),
}

_COLD = ("service.execute", "session.put", "lang.parse", "lang.sema",
         "ir.lower", "ir.serialize", "passes.run", "vm.codegen",
         "vm.execute", "runtime.finish", "runtime.profile_serialize",
         "recommend.build")
_WARM = ("service.execute", "session.get", "ir.deserialize",
         "vm.bytecode_deserialize", "runtime.profile_deserialize",
         "runtime.sets_doc", "abstractions.describe")

#: Spans that must fire in a workload's traced loop, or the run fails.
EXPECTED: Dict[str, Tuple[str, ...]] = {
    "profile_cold": _COLD,
    "requery_warm": _WARM,
    "serve_mixed": tuple(dict.fromkeys(_COLD + _WARM)),
}


class Tracer:
    """In-memory span and GC-pause recorder, safe across threads."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: (start, end) of every cyclic-GC pause.
        self.gc_pauses: List[Tuple[float, float]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._gc_start = 0.0
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def wrap(self, name: str, fn: Callable,
             counters: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = tracer._local
            stack = local.__dict__.setdefault("stack", [])
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            if parent is None:
                local.rid = sid
            rid = local.rid
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.spans.append(Span(sid, parent, rid, name, start,
                                         time.perf_counter()))
                raise
            finally:
                stack.pop()
            end = time.perf_counter()
            attrs = counters(args, result) if counters is not None else None
            tracer.spans.append(Span(sid, parent, rid, name, start, end,
                                     attrs))
            return result

        return traced

    def root(self, name: str, start: float, end: float) -> None:
        """Record a root span measured by the caller (client requests)."""
        sid = next(self._ids)
        self.spans.append(Span(sid, None, sid, name, start, end))

    def _on_gc(self, phase: str, info) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_pauses.append((self._gc_start, time.perf_counter()))

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every :data:`TARGETS` attribute and hook cyclic GC."""
        for name, (module_name, path, counters) in TARGETS.items():
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)  # AttributeError: stale target
            setattr(owner, attr, self.wrap(name, original, counters))
            self._undo.append((owner, attr, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- persistence ---------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": [list(s.__dict__.values())
                                 for s in self.spans],
                       "gc": self.gc_pauses}, handle)

    @staticmethod
    def load(path: str) -> Tuple[List[Span], List[Tuple[float, float]]]:
        with open(path) as handle:
            doc = json.load(handle)
        return [Span(*row) for row in doc["spans"]], \
            [tuple(p) for p in doc["gc"]]


# -- arithmetic ---------------------------------------------------------------

def covered(start: float, end: float,
            intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end))
    return {
        span.sid: (span.end - span.start)
        - covered(span.start, span.end, children.get(span.sid, ()))
        for span in spans
    }


def in_window(spans: Sequence[Span], start: float,
              end: float) -> List[Span]:
    """Spans of the requests whose root span started in the window."""
    rids = {s.rid for s in spans
            if s.parent is None and start <= s.start <= end}
    return [s for s in spans if s.rid in rids]


def layer_metrics(spans: Sequence[Span],
                  gc_pauses: Sequence[Tuple[float, float]],
                  window: Tuple[float, float]) -> Dict[str, float]:
    """The per-layer metrics of one traced loop, as means per request
    (counts and bytes as per-request means too; ratios overall)."""
    spans = in_window(spans, *window)
    roots = [s for s in spans if s.parent is None]
    n = len(roots) or 1
    selfs = self_times(spans)
    ms: Dict[str, float] = {name: 0.0 for name in TARGETS}
    calls: Dict[str, int] = {name: 0 for name in TARGETS}
    sums: Dict[str, float] = {}
    for span in spans:
        if span.name in ms:
            ms[span.name] += selfs[span.sid] * 1000.0
            calls[span.name] += 1
        for key, value in (span.attrs or {}).items():
            sums[f"{span.name}.{key}"] = \
                sums.get(f"{span.name}.{key}", 0) + value

    def mean(name: str) -> float:
        return ms[name] / n

    def per_req(key: str) -> float:
        return sums.get(key, 0) / n

    gets = calls["session.get"]
    baseline = sums.get("vm.execute.baseline_cost", 0)
    instructions = sums.get("vm.execute.instructions", 0)
    pauses = [p for p in gc_pauses if window[0] <= p[0] <= window[1]]
    return {
        "service.execute_self_ms": mean("service.execute"),
        "session.get_ms": mean("session.get"),
        "session.get_bytes": per_req("session.get.bytes"),
        "session.hit_ratio":
            sums.get("session.get.hit", 0) / gets if gets else 0.0,
        "session.put_ms": mean("session.put"),
        "session.put_bytes": per_req("session.put.bytes"),
        "lang.parse_ms": mean("lang.parse"),
        "lang.sema_ms": mean("lang.sema"),
        "ir.lower_ms": mean("ir.lower"),
        "ir.serialize_ms": mean("ir.serialize"),
        "ir.deserialize_ms": mean("ir.deserialize"),
        "ir.deserialize_count": calls["ir.deserialize"] / n,
        "ir.deserialize_bytes": per_req("ir.deserialize.bytes"),
        "passes.run_ms": mean("passes.run"),
        "vm.codegen_ms": mean("vm.codegen"),
        "vm.execute_ms": mean("vm.execute"),
        "vm.instructions": per_req("vm.execute.instructions"),
        "vm.overhead_x":
            sums.get("vm.execute.cost", 0) / baseline if baseline else 0.0,
        "vm.ns_per_instruction":
            ms["vm.execute"] * 1e6 / instructions if instructions else 0.0,
        "vm.bytecode_deserialize_ms": mean("vm.bytecode_deserialize"),
        "runtime.finish_ms": mean("runtime.finish"),
        "runtime.access_events": per_req("runtime.finish.access_events"),
        "runtime.profile_serialize_ms": mean("runtime.profile_serialize"),
        "runtime.profile_bytes": per_req("runtime.profile_serialize.bytes"),
        "runtime.profile_deserialize_ms":
            mean("runtime.profile_deserialize"),
        "runtime.sets_doc_ms": mean("runtime.sets_doc"),
        "recommend.build_ms": mean("recommend.build"),
        "abstractions.describe_ms": mean("abstractions.describe"),
        "abstractions.describe_count": calls["abstractions.describe"] / n,
        "py.gc_collections": len(pauses) / n,
        "py.gc_pause_ms": sum(e - s for s, e in pauses) * 1000.0 / n,
    }


def missing(spans: Sequence[Span], expected: Sequence[str]) -> List[str]:
    """Expected span names that never fired."""
    fired = {s.name for s in spans}
    return [name for name in expected if name not in fired]
