"""Run a ``repro serve`` daemon with the benchmark's span wrappers.

Installs the same wrappers as the in-process traced run (see
``spans.py``) before starting :class:`ServeDaemon`, and writes the
recorded spans and GC pauses to ``--spans-out`` when the daemon exits.
Announces readiness on stderr exactly like ``repro serve``.

Usage (from the repository root)::

    python3 perfbench/serve_traced.py --socket S --cache-dir D \\
        --workers N --spans-out FILE
"""

import argparse
import asyncio
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import spans  # noqa: E402
from repro.service.daemon import ServeDaemon  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--socket", required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--spans-out", required=True)
    args = parser.parse_args()
    tracer = spans.Tracer()
    tracer.install()
    daemon = ServeDaemon(socket_path=args.socket, cache_dir=args.cache_dir,
                         workers=args.workers)
    try:
        asyncio.run(daemon.run(
            announce=lambda line: print(line, file=sys.stderr, flush=True)))
    finally:
        tracer.uninstall()
        tracer.dump(args.spans_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
