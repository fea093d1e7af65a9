"""Fixed-seed benchmark of propaudit: CLI audit, CLI sear and the experiment grid.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`.  The seed alone determines every input.  Ops run back to back in
this one process (a closed loop with one client) until `--seconds` have
passed; every op's output is checked, a failed check counts the op in
`failed` and the run goes on.  The last line of standard output is one
JSON object: `correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones (`op_s`,
`setup_s`, `peak_rss_mb`); times are scaled to a reference host speed
(see hostref.py).  With `--trace 1` ops cycle through untraced, traced and
traced-with-tracemalloc modes, and the metrics are the per-layer ones
computed from spans around calls into the program's public names (see
spans.py); the spans are written to `.bench_out/`.  README.md describes
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import hostref
import inputs
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
GOLDEN = HERE / "golden.json"
GOLDEN_SEED = 0
SETUP_REPEATS = 3
MIN_OPS = 3
WARMUP_S = 2.0


def import_program():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import propaudit.cli  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import propaudit from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        sys.exit(2)
    import propaudit
    return propaudit


# -- workloads ---------------------------------------------------------------
#
# A workload's `setup(pa, seed, workdir)` makes a pool of inputs from the
# seed; ops run on the pool round-robin.  `run(pa, item, out)` is the timed
# op; `check(pa, item, out, result)` returns (errors, digest, output) and
# runs outside the timed region.

class CliAudit:
    """One in-process `propaudit audit` per op, verdict written with --out."""

    axiom = expect_satisfied = None

    def run(self, pa, item, out):
        return pa.cli.main(["audit", item["path"], "--selection",
                            ",".join(map(str, item["selection"])),
                            "--axiom", self.axiom, "--out", out])

    def check(self, pa, item, out, code):
        with open(out) as fh:
            verdict = json.load(fh)
        errs = []
        if verdict["satisfied"] != self.expect_satisfied or code != (0 if self.expect_satisfied else 1):
            errs.append(f"verdict {verdict['satisfied']} / exit {code}, "
                        f"expected satisfied={self.expect_satisfied}")
        elif not self.expect_satisfied:
            errs += checks.check_witness(item["agents"], item["cands"], item["k"],
                                         item["selection"], verdict["witness"],
                                         dc=self.axiom == "dc-mpjr+")
        return errs, checks.digest(verdict), verdict


class DCInstances(CliAudit):
    n, m, k, g = 5_000, 100, 20, 5
    axiom = "dc-mpjr+"

    def instances(self, seed, workdir, count):
        for p in range(count):
            inst = inputs.DCSatisfiedInstance(
                inputs.stream(seed, inputs.DC_INSTANCE, p), self.n, self.m, self.k, self.g)
            path = os.path.join(workdir, f"dc{p}.json")
            inputs.write_instance(path, inst.agents, inst.candidates, self.k)
            yield p, path, inst


class DCSat(DCInstances):
    name = "dc-sat"
    op_label = "audit_sat_s: CLI audit --axiom dc-mpjr+, SATISFIED (full sweep)"
    expect_satisfied = True

    def setup(self, pa, seed, workdir):
        return [dict(path=path, selection=inst.cores, agents=inst.agents,
                     cands=inst.candidates, k=self.k)
                for _, path, inst in self.instances(seed, workdir, 3)]


class DCViol(DCInstances):
    name = "dc-viol"
    op_label = "audit_viol_s: CLI audit --axiom dc-mpjr+, VIOLATED within the first g anchors"
    expect_satisfied = False

    def setup(self, pa, seed, workdir):
        pool = []
        for p, path, inst in self.instances(seed, workdir, 2):
            gen = inputs.stream(seed, inputs.DC_VIOL, p)
            pool += [dict(path=path, selection=inst.violated_selection(gen),
                          agents=inst.agents, cands=inst.candidates, k=self.k)
                     for _ in range(6)]
        return pool


class SmallKSat(CliAudit):
    name = "smallk-sat"
    op_label = "audit_sat_s: CLI audit --axiom mpjr+ of SEAR's selection, SATISFIED (all 2^k exclusion sets)"
    n, m, k, g, sigma = 200, 100, 12, 6, 0.05
    axiom = "mpjr+"
    expect_satisfied = True

    def setup(self, pa, seed, workdir):
        """Clustered instances with SEAR's selection.  SEAR's trace is
        checked here, so a bad selection fails every op that uses it."""
        pool = []
        for p in range(6):
            agents, cands = inputs.gaussian_points(
                inputs.stream(seed, inputs.GAUSS_INSTANCE, p), self.n, self.m, self.g, self.sigma)
            path = os.path.join(workdir, f"smallk{p}.json")
            inputs.write_instance(path, agents, cands, self.k)
            sear = pa.run_sear(pa.Instance.euclidean(agents, cands, self.k)).to_dict()
            pool.append(dict(path=path, agents=agents, cands=cands, k=self.k,
                             selection=tuple(sorted(sear["selection"])),
                             setup_errors=checks.check_sear(agents, cands, self.k, sear)))
        return pool


class Sear:
    name = "sear"
    op_label = "sear_s: CLI sear (load, run_sear, emit the trace), one broad Gaussian cloud"
    n, m, k, g, sigma = 150, 100, 20, 1, 1.0

    def setup(self, pa, seed, workdir):
        pool = []
        for p in range(16):
            agents, cands = inputs.gaussian_points(
                inputs.stream(seed, inputs.GAUSS_INSTANCE, p), self.n, self.m, self.g, self.sigma)
            path = os.path.join(workdir, f"sear{p}.json")
            inputs.write_instance(path, agents, cands, self.k)
            pool.append(dict(path=path, agents=agents, cands=cands, k=self.k))
        return pool

    def run(self, pa, item, out):
        return pa.cli.main(["sear", item["path"], "--out", out])

    def check(self, pa, item, out, code):
        with open(out) as fh:
            result = json.load(fh)
        errs = [] if code == 0 else [f"exit {code}"]
        errs += checks.check_sear(item["agents"], item["cands"], item["k"], result)
        return errs, checks.digest(result), result

    def run_check(self, pa, item, result):
        """Once per run, outside timing: SEAR's selection passes the DC audit."""
        inst = pa.Instance.euclidean(item["agents"], item["cands"], item["k"])
        verdict = pa.verify_dc_mpjr_plus(inst, result["selection"])
        return [] if verdict.satisfied else ["SEAR's selection fails the DC audit"]


class Experiment:
    name = "experiment"
    op_label = "1/experiment_sel_per_s: run_experiment seconds per audited selection"
    n_values, g_values, k, selections = (20, 50, 80, 100), (4, 5, 6), 5, 10

    def config(self, pa, master_seed):
        return pa.ExperimentConfig(
            n_values=self.n_values, g_values=self.g_values, instances_per_cell=1,
            selections_per_instance=self.selections, k=self.k, master_seed=master_seed)

    def setup(self, pa, seed, workdir):
        seeds = inputs.stream(seed, inputs.EXPERIMENT).integers(0, 2**62, 6)
        return [dict(config=self.config(pa, int(s))) for s in seeds]

    def run(self, pa, item, out):
        return pa.run_experiment(item["config"], threads=1)

    def check(self, pa, item, out, report):
        cfg, errs = item["config"], []
        cells = {(r.n, r.g): {} for r in report.rows}
        for r in report.rows:
            cells[(r.n, r.g)][r.axiom] = r.satisfied
            if r.total != cfg.selections_per_instance or not 0 <= r.satisfied <= r.total:
                errs.append(f"row {(r.n, r.g, r.axiom)} counts {r.satisfied}/{r.total}")
        if len(cells) != len(self.n_values) * len(self.g_values):
            errs.append("grid cells missing")
        # anchored representation implies the default-coalitions audit
        if any(c.get("mpjr+", 0) > c.get("dc-mpjr+", 0) for c in cells.values()):
            errs.append("mpjr+ satisfied more often than dc-mpjr+ in a cell")
        return errs, checks.digest(report.to_csv(include_timing=False)), report

    def selections_per_op(self):
        return len(self.n_values) * len(self.g_values) * self.selections


WORKLOADS = {w.name: w for w in (DCSat(), DCViol(), SmallKSat(), Sear(), Experiment())}


# -- measurement ---------------------------------------------------------------

def measure_setup(workload, seed, workdir) -> list:
    """Set-up time of a fresh interpreter, once per repeat; each child
    sets up from scratch.  Returns per repeat the seconds from start to
    inputs ready split into start-up (interpreter and imports) and input
    generation (as the child times it), each scaled by its reference
    measured before and after the repeat."""
    times = []
    ref = hostref.start_reference(), hostref.reference()
    for i in range(SETUP_REPEATS):
        sub = os.path.join(workdir, f"setup{i}")
        os.makedirs(sub)
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, __file__, "--workload", workload,
                                 "--seed", str(seed), "--setup-only", sub],
                                stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline().split()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        if proc.wait() != 0 or line[:1] != ["ready"]:
            raise RuntimeError(f"set-up child exited {proc.returncode}")
        gen = float(line[1])
        after = hostref.start_reference(), hostref.reference()
        times.append(dict(
            raw=elapsed, start=elapsed - gen, gen=gen,
            start_ref=(ref[0] + after[0]) / 2, ref=(ref[1] + after[1]) / 2,
            scaled=(scaled(elapsed - gen, (ref[0] + after[0]) / 2, hostref.START_REF_S)
                    + scaled(gen, (ref[1] + after[1]) / 2))))
        ref = after
    return times


def warm_up(pa, w, pool, out):
    """Untimed ops over the pool for WARMUP_S (at least one op), since the
    first ops in a process pay one-off costs such as lazy imports and
    allocator growth."""
    t_end = time.perf_counter() + WARMUP_S
    i = 0
    while i == 0 or time.perf_counter() < t_end:
        try:
            w.run(pa, pool[i % len(pool)], out)
        except Exception:  # the timed ops will fail and be counted
            traceback.print_exc()
            return
        i += 1


def run_ops(pa, w, pool, seconds, tracer, workdir, golden):
    """Closed loop over the pool until `seconds` pass (and, when tracing,
    every mode has run at least once).  Returns the op records."""
    modes = ["plain"] if tracer is None else ["plain", "spans", "mem", "plain", "spans"]
    out = os.path.join(workdir, "out.json")
    ops = []
    ref = hostref.reference()
    t_end = time.perf_counter() + seconds
    while (time.perf_counter() < t_end or len(ops) < MIN_OPS
           or (tracer is not None and len(ops) < len(modes) - 2)):
        i = len(ops)
        p, mode = i % len(pool), modes[i % len(modes)]
        item = pool[p]
        if os.path.exists(out):
            os.remove(out)
        rec = dict(op=i, pool=p, mode=mode, errors=list(item.get("setup_errors", ())))
        try:
            if mode == "plain":
                t0 = time.perf_counter()
                result = w.run(pa, item, out)
                rec["s"] = time.perf_counter() - t0
            else:
                tracer.memory = mode == "mem"
                root = "bench.run_experiment" if w.name == "experiment" else "cli.main"
                t0 = time.perf_counter()
                result = tracer.op(i, root, w.run, pa, item, out)
                rec["s"] = time.perf_counter() - t0
            after = hostref.reference()
            rec["ref"], ref = (ref + after) / 2, after
            errors, rec["digest"], rec["output"] = w.check(pa, item, out, result)
            rec["errors"] += errors
            if golden is not None and golden[p] != rec["digest"]:
                rec["errors"].append(f"digest differs from golden.json (pool item {p})")
        except Exception:  # one failed op must not end the run
            rec["errors"].append(traceback.format_exc())
            rec.setdefault("s", float("nan"))
        for e in rec["errors"]:
            print(f"perfbench: op {i} (pool item {p}) failed: {e}", file=sys.stderr)
        ops.append(rec)
    return ops


def median(values):
    values = [v for v in values if v is not None and not math.isnan(v)]
    return statistics.median(values) if values else 0.0


def tail(values):
    """Highest of p90/p99 with at least ten samples beyond it, or None."""
    for q in (99, 90):
        if len(values) * (100 - q) / 100 >= 10:
            return q, float(np.percentile(values, q))
    return None


def scaled(seconds, ref, nominal=hostref.REF_S):
    """`seconds` as they would read on a host where the reference measured
    as `ref` takes `nominal`."""
    return seconds * nominal / ref


def end_to_end(w, ops, setup_times):
    per_op = w.selections_per_op() if w.name == "experiment" else 1
    plain = [r for r in ops if r["mode"] == "plain" and not math.isnan(r["s"])]
    raw = [r["s"] / per_op for r in plain]
    times = [scaled(r["s"], r["ref"]) / per_op for r in plain]
    op_s = median(times)
    lines = [f"  op_s        = {op_s:.6g} s  median of {len(times)} ops, scaled to "
             f"reference speed  [{w.op_label}]"]
    t = tail(times)
    lines.append(f"  op tail     = p{t[0]} {t[1]:.6g} s" if t else
                 "  op tail     = n/a (no percentile has ten samples beyond it)")
    lines.append(f"  op raw      = median {median(raw):.6g} s, p10 "
                 f"{float(np.percentile(raw, 10)) if raw else 0.0:.6g} s unscaled; reference loop "
                 f"median {median([r['ref'] for r in plain]):.6g} s (nominal {hostref.REF_S} s)")
    if w.name == "experiment" and op_s:
        lines.append(f"  experiment_sel_per_s = {1 / op_s:.6g} 1/s (from op_s)")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup = median([t["scaled"] for t in setup_times])
    metrics = {"op_s": {"value": op_s, "unit": "s"},
               "setup_s": {"value": setup, "unit": "s"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    lines.append(f"  setup_s     = {setup:.6g} s  median of {len(setup_times)} set-ups in fresh "
                 f"interpreters, scaled")
    for part, ref, nominal in (("start", "start_ref", hostref.START_REF_S), ("gen", "ref", hostref.REF_S)):
        lines.append(f"    {part:5s} unscaled median {median([t[part] for t in setup_times]):.6g} s, "
                     f"reference {median([t[ref] for t in setup_times]):.6g} s (nominal {nominal} s)")
    lines.append(f"  peak_rss_mb = {rss:.6g} MB  this process")
    return metrics, lines


def per_layer(w, pool, ops, tracer):
    """Per-layer metrics from the spans of traced ops; computed counts are
    derived from sizes and outputs.  A layer not on this workload's path
    reads 0."""
    own = tracer.self_times()
    mode = {r["op"]: r["mode"] for r in ops if not r["errors"]}
    spans = [dict(s, own=o) for s, o in zip(tracer.spans, own) if mode.get(s["op"]) in ("spans", "mem")]
    timed = [s for s in spans if mode[s["op"]] == "spans"]
    mem = [s for s in spans if mode[s["op"]] == "mem"]

    def per_op_sum(name):
        by_op = {}
        for s in timed:
            if s["name"] == name:
                by_op[s["op"]] = by_op.get(s["op"], 0.0) + s["own"]
        return median(list(by_op.values()))

    def calls(name, pool=timed, **match):
        return [s for s in pool if s["name"] == name and all(s.get(k) == v for k, v in match.items())]

    ok = [r for r in ops if not r["errors"]]
    plain = [r["s"] for r in ok if r["mode"] == "plain"]
    traced = [r["s"] for r in ok if r["mode"] == "spans"]
    roots = [s for s in timed if s["parent"] is None]
    dists = calls("core.dists")

    def smallk_sets(s):
        k = s["k"]
        if s["satisfied"]:
            return 2 ** k - 1
        return sum(math.comb(k, j) for j in range(s["level"] - 1)) + 1

    def dc_elems(r):
        v, it = r["output"], pool[r["pool"]]
        n, m, k = len(it["agents"]), len(it["cands"]), it["k"]
        if v["satisfied"]:
            return (m - k) * n * k
        c = v["witness"]["center"]
        return (c + 1 - sum(x <= c for x in it["selection"])) * n * k

    dc_ops = [r for r in ok if isinstance(r.get("output"), dict) and r["output"].get("axiom") == "dc-mpjr+"]
    sear_ops = [r for r in ok if w.name == "sear"]
    reports = [r["output"] for r in ok if r["mode"] == "plain" and w.name == "experiment"]

    def bench_ms(axiom):
        return median([sum(x.mean_ms * x.total for x in rep.rows if x.axiom == axiom)
                       / sum(x.total for x in rep.rows if x.axiom == axiom) for rep in reports])

    biggest = max(((s["n"], s["m"]) for s in dists), key=lambda nm: nm[0] * nm[1], default=(0, 0))
    values = {
        "cli.load_s": per_op_sum("cli.load_instance"),
        "cli.self_s": median([s["own"] for s in roots if s["name"] == "cli.main"]),
        "core.dists_s": per_op_sum("core.dists"),
        "core.dists_mb": biggest[0] * biggest[1] * 8 / 1e6,
        "verify.dc_sat_s": median([s["own"] for s in calls("verify.dc", satisfied=True)]),
        "verify.dc_viol_s": median([s["own"] for s in calls("verify.dc", satisfied=False)]),
        "verify.dc_peak_mb": median([s["peak_mb"] for s in calls("verify.dc", mem)]),
        "verify.dc_gather_elems": median([dc_elems(r) for r in dc_ops]),
        "verify.smallk_sat_s": median([s["own"] for s in calls("verify.smallk", satisfied=True)]),
        "verify.smallk_viol_s": median([s["own"] for s in calls("verify.smallk", satisfied=False)]),
        "verify.smallk_peak_mb": median([s["peak_mb"] for s in calls("verify.smallk", mem)]),
        "verify.smallk_sets": median([smallk_sets(s) for s in calls("verify.smallk")]),
        "sear.run_s": median([s["own"] for s in calls("sear.run_sear")]),
        "sear.peak_mb": median([s["peak_mb"] for s in calls("sear.run_sear", mem)]),
        "sear.radii_walked": median([checks.radii_walked(pool[r["pool"]]["agents"],
                                                         pool[r["pool"]]["cands"], r["output"])
                                     for r in sear_ops[:len(pool)]]),
        "sear.trace_charges": median([sum(len(s["charges"]) for s in r["output"]["trace"])
                                      for r in sear_ops]),
        "gen.instance_s": median([s["own"] for s in calls("gen.instance")]),
        "gen.selection_s": median([s["own"] for s in calls("gen.selection")]),
        "bench.mpjr_plus_ms": bench_ms("mpjr+") if reports else 0.0,
        "bench.dc_ms": bench_ms("dc-mpjr+") if reports else 0.0,
        "bench.self_share": median([s["own"] / (s["end"] - s["start"]) for s in roots
                                    if s["name"] == "bench.run_experiment"]),
        "trace.overhead": median(traced) / median(plain) - 1.0 if plain and traced else 0.0,
    }
    units = {"_s": "s", "_mb": "MB", "_ms": "ms", "share": "share", "overhead": "share"}
    metrics = {}
    for name, value in values.items():
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
        metrics[name] = {"value": float(value), "unit": unit}
    lines = [f"  {name:24s} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"  traced ops: {len(traced)} traced, {len(plain)} untraced, "
                 f"{sum(r['mode'] == 'mem' for r in ok)} with tracemalloc; "
                 f"absent names: {tracer.absent or 'none'}")
    return metrics, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=GOLDEN_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    pa = import_program()

    if args.setup_only:
        t0 = time.perf_counter()
        w.setup(pa, args.seed, args.setup_only)
        print("ready", time.perf_counter() - t0, flush=True)
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        setup_times = measure_setup(w.name, args.seed, str(workdir)) if not args.trace else []
        pool = w.setup(pa, args.seed, str(workdir))
        golden = None
        if args.seed == GOLDEN_SEED and GOLDEN.exists():
            golden = json.loads(GOLDEN.read_text()).get(w.name)
        warm_up(pa, w, pool, str(workdir / "warmup.json"))
        tracer = Tracer() if args.trace else None
        ops = run_ops(pa, w, pool, args.seconds, tracer, str(workdir), golden)
        if hasattr(w, "run_check"):
            first = next((r for r in ops if "output" in r), None)
            if first is not None:
                first["errors"] += w.run_check(pa, pool[first["pool"]], first["output"])
        failed = sum(bool(r["errors"]) for r in ops)
        if tracer is None:
            metrics, lines = end_to_end(w, ops, setup_times)
        else:
            metrics, lines = per_layer(w, pool, ops, tracer)
            spans = OUT_DIR / f"spans-{w.name}-seed{args.seed}.jsonl"
            tracer.write(spans)
            lines.append(f"  spans written to {spans.relative_to(ROOT)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"perfbench {w.name} seed={args.seed} trace={args.trace}: {len(ops)} ops "
          f"({len(pool)} inputs), {failed} failed"
          f"{', golden digests checked' if golden else ''}")
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
