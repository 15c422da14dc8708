"""End-to-end benchmark of the CARMOT reproduction on the 15-program suite.

Usage (from the repository root)::

    python3 perfbench/run.py --workload requery_warm --seed 1 \\
        --seconds 25 --trace 0

Workloads (see ``WORKLOADS.md``): ``profile_cold``, ``requery_warm``,
``serve_mixed``; ``BENCHMARK.json`` lists the last two.  With
``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it runs an untraced and a traced
leg of half the time each and reports the per-layer metrics.  Every
response is checked against the committed oracle digests.  The
second-to-last line of stdout is the run meta; the last is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import time

STARTED = time.perf_counter()  # set-up is timed from here, before imports

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from plan import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: time one set-up in a fresh interpreter (see EXTRA_SETUPS).
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # A terminated run still stops its daemon and removes its store.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        import workloads
    except ImportError as error:
        print(f"perfbench: cannot import the program from "
              f"{ROOT / 'src'}: {error}", file=sys.stderr)
        return 2

    if args.setup_only:
        print(workloads.setup_only(args.workload, args.seed, STARTED))
        return 0
    result = workloads.run(args.workload, args.seed, args.seconds,
                           bool(args.trace), STARTED)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = result["metrics"]
    print(json.dumps({"meta": result["meta"]}, sort_keys=True))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
