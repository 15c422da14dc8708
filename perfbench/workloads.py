"""The three workloads: set-up, timed closed loops, and the traced leg.

Every workload runs closed loop from this one process: ``profile_cold``
and ``requery_warm`` call :meth:`ServiceCore.execute` in-process from a
single client; ``serve_mixed`` drives a ``repro serve --workers N``
subprocess over ``N`` connections, one thread each, with ``N`` = nproc.
See ``WORKLOADS.md`` for why each exists.
"""

from __future__ import annotations

import gc
import itertools
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import __version__
from repro.errors import ReproError
from repro.service import (
    PsecRequest,
    RecommendRequest,
    RunOptions,
    ServiceClient,
    ServiceCore,
    response_digest,
)
from repro.workloads import ALL_WORKLOADS

import measure
import oracle
import plan
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROGRAMS = [w.name for w in ALL_WORKLOADS]
#: How long a daemon may take to announce its socket or to drain.
DAEMON_TIMEOUT_S = 60.0

_REQUEST_TYPES = {"recommend": RecommendRequest, "psec": PsecRequest}


class BenchError(RuntimeError):
    """The benchmark could not run (not a wrong answer: those are counted)."""


def build_requests(options: Optional[RunOptions] = None):
    """(program, kind) -> request, at reference size, ``openmp`` use case."""
    options = options or RunOptions()
    return {
        (w.name, kind): _REQUEST_TYPES[kind](
            source=w.ref_source(oracle.USE_CASE), name=w.name,
            options=options)
        for w in ALL_WORKLOADS for kind in plan.KINDS
    }


@dataclass
class Loop:
    """What one timed loop measured."""

    latencies: List[float] = field(default_factory=list)
    planned: List[plan.Planned] = field(default_factory=list)
    passes: int = 0
    start: float = 0.0
    end: float = 0.0
    #: Summed per-connection active time (start to its last reply).
    busy: float = 0.0
    steal_pct: float = 0.0
    #: serve_mixed: (latency, queue_wait, daemon_wall) seconds per request.
    serve: List[Tuple[float, float, float]] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def req_per_s(self) -> float:
        return len(self.latencies) / self.wall


class Workload:
    """Shared set-up and bookkeeping; subclasses supply the loop."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.requests = build_requests()
        self.oracle = oracle.load()
        self.workdir = HERE / ".work" / f"{self.name}-{os.getpid()}"
        self.workdir.mkdir(parents=True)
        self.cache_dir = str(self.workdir / "store")
        self.outcomes = measure.Outcomes(response_digest)
        self.setup_outcomes = measure.Outcomes(response_digest)
        self.stages: Counter = Counter()
        self._fresh = itertools.count()

    def fresh_namespace(self) -> str:
        return f"cold{next(self._fresh)}"

    def check(self, outcomes, doc, program, kind) -> None:
        outcomes.record(doc, self.oracle[(program, kind)],
                        f"{self.name} {program} {kind}")
        if outcomes is self.outcomes and doc is not None:
            # Stage hit/miss counts show the workload is what it claims.
            self.stages.update((doc.get("meta") or {})
                               .get("stages", {}).values())

    def peak_rss_mb(self) -> float:
        return measure.self_peak_rss_mb()

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class InProcess(Workload):
    """One in-process client calling ``ServiceCore.execute``."""

    def core_for_pass(self) -> ServiceCore:
        raise NotImplementedError

    def execute(self, core, program, kind):
        try:
            return core.execute(self.requests[(program, kind)])
        except ReproError:
            return None

    def loop(self, seconds: float) -> Loop:
        clock = measure.PassClock(seconds)
        passes = plan.passes(self.name, PROGRAMS, self.seed)
        out = Loop()
        steal = measure.cpu_times()
        out.start = time.perf_counter()
        while clock.another(time.perf_counter() - out.start, out.passes):
            core = self.core_for_pass()
            for item in next(passes):
                start = time.perf_counter()
                doc = self.execute(core, item.program, item.kind)
                out.latencies.append(time.perf_counter() - start)
                self.check(self.outcomes, doc, item.program, item.kind)
                out.planned.append(item)
            out.passes += 1
        out.end = time.perf_counter()
        out.busy = out.wall
        out.steal_pct = measure.steal_pct(steal, measure.cpu_times())
        return out

    def traced_loop(self, seconds: float):
        tracer = spans.Tracer()
        tracer.install()
        try:
            out = self.loop(seconds)
        finally:
            tracer.uninstall()
        return out, tracer.spans, tracer.gc_pauses, tracer


class ProfileCold(InProcess):
    """Every pass profiles the 15 programs in a never-used namespace."""

    name = "profile_cold"

    def setup(self) -> None:
        # Warm-up: one cold request on the smallest program, so lazy
        # imports are paid before timing.
        program = min(PROGRAMS,
                      key=lambda p: len(self.requests[(p, "recommend")]
                                        .source))
        core = ServiceCore(self.cache_dir, namespace="warmup")
        self.check(self.setup_outcomes,
                   self.execute(core, program, "recommend"),
                   program, "recommend")

    def core_for_pass(self) -> ServiceCore:
        return ServiceCore(self.cache_dir, namespace=self.fresh_namespace())


class RequeryWarm(InProcess):
    """A primed store; every stage of every request hits."""

    name = "requery_warm"

    def setup(self) -> None:
        self.core = ServiceCore(self.cache_dir, namespace="warm")
        priming = [(p, k) for p in PROGRAMS for k in plan.KINDS]
        for program, kind in priming + [priming[0]]:  # then one warm-up
            self.check(self.setup_outcomes,
                       self.execute(self.core, program, kind), program, kind)

    def core_for_pass(self) -> ServiceCore:
        return self.core


class _Dispenser:
    """Hands the plan's requests to the connections, whole passes only."""

    def __init__(self, passes, clock: measure.PassClock, start: float):
        self._lock = threading.Lock()
        self._passes = passes
        self._clock = clock
        self._queue: List[plan.Planned] = []
        self._stopped = False
        self.start = start
        self.count = 0
        self.planned: List[plan.Planned] = []

    def next(self) -> Optional[plan.Planned]:
        with self._lock:
            if not self._queue:
                elapsed = time.perf_counter() - self.start
                if self._stopped or not self._clock.another(elapsed,
                                                            self.count):
                    self._stopped = True
                    return None
                self._queue = list(reversed(next(self._passes)))
                self.count += 1
            item = self._queue.pop()
            self.planned.append(item)
            return item


class ServeMixed(Workload):
    """A ``repro serve`` daemon; 1 request in 10 misses every stage."""

    name = "serve_mixed"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.connections = measure.nproc()
        self.docs = {key: request.to_doc()
                     for key, request in self.requests.items()}
        # Relative to the repository root: Unix socket paths are short.
        self.socket = os.path.relpath(self.workdir / "d.sock", ROOT)
        self.proc: Optional[subprocess.Popen] = None
        self.daemon_spans = str(self.workdir / "daemon-spans.json")
        self._stderr: List[str] = []
        self._drain: Optional[threading.Thread] = None
        self._clients: List[ServiceClient] = []
        self._lock = threading.Lock()

    # -- daemon lifecycle ----------------------------------------------------

    def start_daemon(self, traced: bool = False) -> None:
        options = ["--socket", self.socket, "--cache-dir", self.cache_dir,
                   "--workers", str(self.connections)]
        if traced:
            command = [sys.executable, str(HERE / "serve_traced.py"),
                       *options, "--spans-out", self.daemon_spans]
        else:
            command = [sys.executable, "-m", "repro", "serve", *options]
        src = str(ROOT / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        # Readiness is the daemon's own "listening on" line: no polling.
        watchdog = threading.Timer(DAEMON_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            for line in self.proc.stderr:
                self._stderr.append(line)
                if "listening on" in line:
                    break
            else:
                raise BenchError("serve daemon exited before listening: "
                                 + "".join(self._stderr[-5:]))
        finally:
            watchdog.cancel()
        self._drain = threading.Thread(
            target=lambda: self._stderr.extend(self.proc.stderr),
            daemon=True)
        self._drain.start()
        self._clients = [ServiceClient(self.socket).connect()
                         for _ in range(self.connections)]

    def stop_daemon(self) -> None:
        for client in self._clients:
            client.close()
        self._clients = []
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        try:
            if proc.poll() is None:
                with ServiceClient(self.socket,
                                   timeout=DAEMON_TIMEOUT_S) as client:
                    client.shutdown()
            proc.wait(timeout=DAEMON_TIMEOUT_S)
        except (ReproError, OSError, subprocess.TimeoutExpired):
            proc.kill()
            proc.wait()
        finally:
            if self._drain is not None:
                self._drain.join(timeout=DAEMON_TIMEOUT_S)
            proc.stderr.close()
        if proc.returncode != 0:
            raise BenchError(f"serve daemon exited {proc.returncode}: "
                             + "".join(self._stderr[-5:]))

    def close(self) -> None:
        try:
            self.stop_daemon()
        finally:
            super().close()

    # -- requests ------------------------------------------------------------

    def call(self, client, program, kind, namespace):
        doc = {**self.docs[(program, kind)], "namespace": namespace}
        try:
            return client.call(doc)
        except (ReproError, OSError):  # timeouts surface as OSError
            return None

    def warm_up(self) -> None:
        for client in self._clients:
            self.check(self.setup_outcomes,
                       self.call(client, PROGRAMS[0], "recommend", "warm"),
                       PROGRAMS[0], "recommend")

    def setup(self) -> None:
        self.start_daemon()
        for program in PROGRAMS:
            for kind in plan.KINDS:
                self.check(self.setup_outcomes,
                           self.call(self._clients[0], program, kind,
                                     "warm"), program, kind)
        self.warm_up()

    def peak_rss_mb(self) -> float:
        return measure.pid_peak_rss_mb(self.proc.pid)

    def _connection(self, client, dispenser, out: Loop, ends: List[float],
                    tracer) -> None:
        while True:
            item = dispenser.next()
            if item is None:
                break
            namespace = self.fresh_namespace() if item.cold else "warm"
            start = time.perf_counter()
            response = self.call(client, item.program, item.kind, namespace)
            end = time.perf_counter()
            serve = ((response or {}).get("meta") or {}).get("serve") or {}
            with self._lock:
                out.latencies.append(end - start)
                out.serve.append((end - start,
                                  serve.get("queue_wait_s", 0.0),
                                  serve.get("wall_s", 0.0)))
                self.check(self.outcomes, response, item.program, item.kind)
                if tracer is not None:
                    tracer.root("client.request", start, end)
        ends.append(time.perf_counter())

    def loop(self, seconds: float, tracer=None) -> Loop:
        out = Loop()
        ends: List[float] = []
        steal = measure.cpu_times()
        out.start = time.perf_counter()
        dispenser = _Dispenser(plan.passes(self.name, PROGRAMS, self.seed),
                               measure.PassClock(seconds), out.start)
        threads = [
            threading.Thread(target=self._connection,
                             args=(client, dispenser, out, ends, tracer))
            for client in self._clients
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if len(ends) != len(threads):
            raise BenchError("a client connection thread failed")
        out.end = max(ends)
        out.busy = sum(end - out.start for end in ends)
        out.steal_pct = measure.steal_pct(steal, measure.cpu_times())
        out.planned = dispenser.planned
        out.passes = dispenser.count
        return out

    def traced_loop(self, seconds: float):
        """Restart the daemon under the span launcher (same store, so it
        comes up primed), warm it up, and run the traced loop."""
        self.stop_daemon()
        self.start_daemon(traced=True)
        self.warm_up()
        tracer = spans.Tracer()
        out = self.loop(seconds, tracer)
        self.stop_daemon()
        daemon_spans, gc_pauses = spans.Tracer.load(self.daemon_spans)
        return out, daemon_spans, gc_pauses, tracer


WORKLOADS = {cls.name: cls for cls in (ProfileCold, RequeryWarm, ServeMixed)}


def end_to_end(run: Workload, out: Loop, setup_s: float) -> Dict[str, float]:
    lat = measure.latency_summary(out.latencies)
    return {
        "setup_s": setup_s,
        "req_per_s": out.req_per_s,
        "latency_p50_ms": lat["p50_ms"],
        "latency_p90_ms": lat["p90_ms"],
        "ok_frac": run.outcomes.ok_frac,
        "peak_rss_mb": run.peak_rss_mb(),
    }


def per_layer(out: Loop, layer_spans, gc_pauses) -> Dict[str, float]:
    metrics = spans.layer_metrics(layer_spans, gc_pauses,
                                  (out.start, out.end))
    # In-process loops have no daemon: these read 0 there.
    n = len(out.serve) or 1
    metrics["service.queue_wait_ms"] = \
        sum(q for _, q, _ in out.serve) * 1000.0 / n
    metrics["service.daemon_wall_ms"] = \
        sum(w for _, _, w in out.serve) * 1000.0 / n
    metrics["service.wire_ms"] = \
        sum(lat - q - w for lat, q, w in out.serve) * 1000.0 / n
    return metrics


def root_coverage(out: Loop, client_spans) -> float:
    """Summed root-span time over the loop's (per-connection) wall time."""
    roots = [s for s in client_spans if s.parent is None
             and out.start <= s.start <= out.end]
    return sum(s.end - s.start for s in roots) / out.busy


def _traced(bench: Workload, seconds: float):
    """An untraced and a traced leg, half the time each: per-layer
    metrics, tracing overhead, and the checks that the trace is whole."""
    plain = bench.loop(seconds / 2)
    out, layer_spans, gc_pauses, tracer = bench.traced_loop(seconds / 2)
    absent = spans.missing(spans.in_window(layer_spans, out.start, out.end),
                           spans.EXPECTED[bench.name])
    coverage = root_coverage(out, tracer.spans)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(str(out_dir / f"{bench.name}.client-spans.json"))
    if isinstance(bench, ServeMixed):
        shutil.copy(bench.daemon_spans,
                    out_dir / f"{bench.name}.daemon-spans.json")
    meta = {
        "untraced_req_per_s": plain.req_per_s,
        "traced_req_per_s": out.req_per_s,
        "trace_overhead_req_per_s": plain.req_per_s - out.req_per_s,
        "root_coverage": coverage,
        "spans_recorded": len(layer_spans),
        "spans_missing": absent,
    }
    whole = not absent and abs(coverage - 1.0) <= 0.05
    return out, per_layer(out, layer_spans, gc_pauses), meta, whole


#: Extra set-ups per untraced run, each in a fresh interpreter; setup_s is
#: the median of these and the run's own.  Only profile_cold's set-up
#: (about 1 s, so the noisiest) is cheap enough to repeat: the others
#: prime the store for about 12 s, and three of those would not fit the
#: benchmark's time budget.
EXTRA_SETUPS = {"profile_cold": 2}


def setup_only(workload: str, seed: int, started: float) -> float:
    """Seconds from ``started`` to the end of one set-up."""
    bench = WORKLOADS[workload](seed)
    try:
        bench.setup()
        gc.collect()
        return time.perf_counter() - started
    finally:
        bench.close()


def _extra_setups(workload: str, seed: int) -> List[float]:
    times = []
    for _ in range(EXTRA_SETUPS.get(workload, 0)):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--setup-only"],
            cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True,
            text=True, timeout=DAEMON_TIMEOUT_S, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def run(workload: str, seed: int, seconds: float, trace: bool,
        started: float) -> Dict[str, object]:
    """One benchmark run: the result document plus its run meta."""
    bench = WORKLOADS[workload](seed)
    try:
        bench.setup()
        gc.collect()
        if trace:
            out, metrics, meta, whole = _traced(bench, seconds)
        else:
            out = bench.loop(seconds)
            setups = [out.start - started, *_extra_setups(workload, seed)]
            metrics = end_to_end(bench, out, statistics.median(setups))
            meta, whole = {"setup_samples_s": setups}, True
        lat = measure.latency_summary(out.latencies)
        meta.update(
            workload=workload,
            seed=seed,
            trace=trace,
            nproc=measure.nproc(),
            steal_pct=out.steal_pct,
            python=sys.version.split()[0],
            repro_version=__version__,
            git_commit=measure.git_commit(ROOT),
            passes=out.passes,
            samples=lat["samples"],
            p90_beyond=lat["p90_beyond"],
            p90_supported=lat["p90_supported"],
            loop_wall_s=out.wall,
            request_sequence_digest=plan.sequence_digest(out.planned),
            stage_outcomes=dict(bench.stages),
            setup_failed=bench.setup_outcomes.failed,
            first_failure=bench.setup_outcomes.first_failure
            or bench.outcomes.first_failure,
        )
        return {
            "correct": whole and bench.outcomes.failed == 0
            and bench.setup_outcomes.failed == 0,
            "attempted": bench.outcomes.attempted,
            "failed": bench.outcomes.failed,
            "metrics": metrics,
            "meta": meta,
        }
    finally:
        bench.close()
