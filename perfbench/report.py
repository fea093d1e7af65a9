"""Run every workload once untraced and once traced, and print every
end-to-end and per-layer metric by name with its unit.

    python3 perfbench/report.py [--seed N] [--seconds S]

Each run is a separate `run.py` process, one after another.  The
end-to-end `op_s` of each workload is also printed under the name it
had when the benchmark was specified (`audit_sat_s`, `audit_viol_s`,
`sear_s`, `experiment_sel_per_s`).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# workload -> (name of its op_s, transform into that metric, unit)
OP_NAMES = {
    "dc-sat": ("audit_sat_s (dc-mpjr+)", lambda s: s, "s"),
    "dc-viol": ("audit_viol_s (dc-mpjr+)", lambda s: s, "s"),
    "smallk-sat": ("audit_sat_s (mpjr+)", lambda s: s, "s"),
    "sear": ("sear_s", lambda s: s, "s"),
    "experiment": ("experiment_sel_per_s", lambda s: 1.0 / s, "1/s"),
}


def run(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=HERE.parent, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    args = ap.parse_args()
    bad = 0
    for workload, (name, transform, unit) in OP_NAMES.items():
        for trace in (0, 1):
            res = run(workload, args.seed, args.seconds, trace)
            bad += res["failed"] + (not res["correct"])
            print(f"{workload} trace={trace}: {res['attempted']} ops, {res['failed']} failed")
            for metric, m in res["metrics"].items():
                if m["value"] or not trace:
                    print(f"  {metric:24s} {m['value']:.6g} {m['unit']}")
            if not trace:
                print(f"  {name:24s} {transform(res['metrics']['op_s']['value']):.6g} {unit}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
