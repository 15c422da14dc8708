"""Oracle digests: the expected ``response_digest`` of every request.

``oracle_digests.json`` holds one digest per program x kind, generated on
the oracle path (tree-walk VM, object event encoding) at reference size.
Regenerating them takes tens of seconds, so they are committed rather
than computed in each run's set-up.

Usage (from the repository root)::

    python3 perfbench/oracle.py           # regenerate and diff; exit 1 on drift
    python3 perfbench/oracle.py --write   # regenerate and rewrite the file
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Tuple

HERE = Path(__file__).resolve().parent
ORACLE_FILE = HERE / "oracle_digests.json"
#: RunOptions of the oracle path.
ORACLE_OPTIONS = {"vm": "ir", "event_encoding": "object", "no_cache": True}
USE_CASE = "openmp"

Digests = Dict[Tuple[str, str], str]


def load(path: Path = ORACLE_FILE) -> Digests:
    doc = json.loads(path.read_text())
    return {(program, kind): digest
            for program, kinds in doc["digests"].items()
            for kind, digest in kinds.items()}


def generate() -> Digests:
    from repro.service import RunOptions, ServiceCore, response_digest
    from workloads import build_requests

    options = RunOptions(**ORACLE_OPTIONS)
    core = ServiceCore()
    digests: Digests = {}
    for key, request in build_requests(options).items():
        doc = core.execute(request)
        if not doc.get("ok"):
            raise SystemExit(f"oracle request {key} failed: {doc}")
        digests[key] = response_digest(doc)
    return digests


def to_doc(digests: Digests) -> Dict[str, object]:
    nested: Dict[str, Dict[str, str]] = {}
    for (program, kind), digest in digests.items():
        nested.setdefault(program, {})[kind] = digest
    return {"size": "ref", "use_case": USE_CASE, "options": ORACLE_OPTIONS,
            "digests": nested}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite the committed digests")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE.parent / "src"))
    fresh = generate()
    if args.write:
        ORACLE_FILE.write_text(json.dumps(to_doc(fresh), indent=1,
                                          sort_keys=True) + "\n")
        print(f"wrote {len(fresh)} digests to {ORACLE_FILE.name}")
        return 0
    committed = load()
    drift = sorted(k for k in fresh.keys() | committed.keys()
                   if fresh.get(k) != committed.get(k))
    for program, kind in drift:
        print(f"{program} {kind}: committed "
              f"{committed.get((program, kind))} != regenerated "
              f"{fresh.get((program, kind))}")
    print(f"{len(fresh) - len(drift)}/{len(fresh)} digests match")
    return 1 if drift else 0


if __name__ == "__main__":
    sys.exit(main())
