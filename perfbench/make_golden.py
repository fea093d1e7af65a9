"""Rewrite golden.json: the output digest of every pool input at seed 0.

    python3 perfbench/make_golden.py

Run it only when an output is meant to change; the benchmark compares
every op at seed 0 against these digests.  Refuses to write when any
output fails its checks.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main() -> int:
    pa = run.import_program()
    run.OUT_DIR.mkdir(exist_ok=True)
    workdir = run.OUT_DIR / f"golden-{os.getpid()}"
    workdir.mkdir()
    golden = {}
    try:
        for name, w in run.WORKLOADS.items():
            pool = w.setup(pa, run.GOLDEN_SEED, str(workdir))
            out = str(workdir / "out.json")
            golden[name] = []
            for p, item in enumerate(pool):
                errors, digest, _ = w.check(pa, item, out, w.run(pa, item, out))
                errors += item.get("setup_errors", [])
                if errors:
                    print(f"{name} pool item {p}: {errors}", file=sys.stderr)
                    return 1
                golden[name].append(digest)
            print(f"{name}: {len(pool)} digests")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
