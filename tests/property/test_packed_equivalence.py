"""Differential testing: the packed encoding against the object oracle.

The object event encoding is kept as the differential-testing oracle for
the packed hot path: for the three golden example programs, for seeded
random loop-shaped event streams (including heavily run-merged ones), and
under fault plans and event budgets, the packed encoding must produce
byte-identical PSEC output and identical degradation reports.
"""

import json
from pathlib import Path

import pytest

from repro.abstractions import describe_pse
from repro.compiler import compile_carmot
from repro.harness.bench import (
    _STREAM_SHAPES,
    _digest,
    _make_stream,
    _replay_object,
    _replay_packed,
    _resolve_ops,
    _stream_runtime,
)
from repro.resilience import FaultPlan, ResiliencePolicy

REPO = Path(__file__).resolve().parents[2]
EXAMPLES = ["roi_loop", "stencil_calls", "anneal_stats"]


def _example_source(name: str) -> str:
    return (REPO / "examples" / f"{name}.mc").read_text()


def _psec_json(program, runtime) -> str:
    out = {}
    for roi_id, psec in sorted(runtime.psecs.items()):
        roi = program.module.rois[roi_id]
        out[roi.name] = {
            "invocations": psec.invocations,
            "total_accesses": psec.total_accesses,
            "use_records": psec.use_records,
            "sets": {
                set_name: sorted(str(describe_pse(k, psec, runtime.asmt))
                                 for k in keys)
                for set_name, keys in psec.sets().items()
            },
        }
    return json.dumps(out, indent=2, sort_keys=True)


def _entry_state(runtime):
    """Full per-entry observable state, not just the four sets."""
    out = {}
    for roi_id, psec in sorted(runtime.psecs.items()):
        out[roi_id] = (
            psec.total_accesses,
            psec.use_records,
            psec.invocations,
            {
                str(key): (
                    entry.letters, entry.access_count, entry.first_time,
                    entry.last_time, entry.forced,
                    sorted(map(str, entry.uses)),
                )
                for key, entry in psec.entries.items()
            },
        )
    return out


@pytest.mark.parametrize("name", EXAMPLES)
def test_golden_examples_identical_across_encodings(name):
    source = _example_source(name)
    outputs = {}
    for encoding in ("object", "packed"):
        program = compile_carmot(source, name=f"examples/{name}.mc")
        result, runtime = program.run(event_encoding=encoding)
        outputs[encoding] = (result.output, _psec_json(program, runtime))
    assert outputs["object"] == outputs["packed"]


@pytest.mark.parametrize("shape", sorted(_STREAM_SHAPES))
@pytest.mark.parametrize("seed", [0, 7, 1234])
def test_random_streams_identical_across_encodings(shape, seed):
    """Seeded loop-shaped streams (the scalar_loop shape exercises heavy
    run merging; array_walk exercises the unmerged full path)."""
    ops, vars_by_obj, locs, callstacks = _make_stream(seed, 4000, shape)
    states = []
    for encoding in ("object", "packed"):
        runtime = _stream_runtime(encoding, batch_size=128)
        resolved = _resolve_ops(
            ops, vars_by_obj, locs, callstacks,
            runtime if encoding == "packed" else None,
        )
        replay = _replay_packed if encoding == "packed" else _replay_object
        replay(runtime, resolved, 250)
        states.append((_digest(runtime), _entry_state(runtime)))
    assert states[0] == states[1]


def _run_example(name, encoding, **kwargs):
    program = compile_carmot(_example_source(name),
                             name=f"examples/{name}.mc")
    _, runtime = program.run(event_encoding=encoding, **kwargs)
    return program, runtime


@pytest.mark.parametrize("name", EXAMPLES)
def test_fault_plan_degradation_identical_across_encodings(name):
    """Faults target batch sequence numbers, so this also pins the
    batch-boundary parity of the two encodings: run merging counts events,
    not rows, when filling a batch."""
    def run(encoding):
        program, runtime = _run_example(
            name, encoding, batch_size=16,
            fault_plan=FaultPlan.parse("seed=7;crash@1;drop@2;slow@3:100"),
            resilience=ResiliencePolicy(max_retries=1, degrade=True,
                                        max_queue_batches=4),
        )
        return runtime.degradation.to_json(), _psec_json(program, runtime)

    report_object, psec_object = run("object")
    report_packed, psec_packed = run("packed")
    assert report_object == report_packed
    assert psec_object == psec_packed


@pytest.mark.parametrize("name", ["roi_loop", "anneal_stats"])
def test_event_budget_identical_across_encodings(name):
    def run(encoding):
        program, runtime = _run_example(
            name, encoding, batch_size=16,
            resilience=ResiliencePolicy(max_events_per_roi=20, degrade=True),
        )
        return runtime.degradation.to_json(), _psec_json(program, runtime)

    assert run("object") == run("packed")
