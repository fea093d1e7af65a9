"""Self-tests of the benchmark's own generators and checks.

    python3 perfbench/selftest.py

* The satisfied-by-construction DC generator, at desk scale, against the
  brute-force `oracle_dc`: the cores pass, a selection that misses a
  cluster fails.
* The witness and SEAR-trace checks accept real outputs and reject
  tampered ones.
* The op loop counts a failed check and keeps running.
* The tracer reports a name the program lacks as absent and restores
  every name it wrapped.
Exits 0 when every test passes.
"""

from __future__ import annotations

import contextlib
import copy
import io
import os
import shutil
import sys

import checks
import inputs
import run
import spans

failures = []


def expect(cond, what):
    if not cond:
        failures.append(what)


def test_dc_generator(pa, draws=30):
    for d in range(draws):
        gen = inputs.stream(d, 99)
        g = int(gen.integers(1, 4))
        k = g * int(gen.integers(1, 3))
        n = g * int(gen.integers(2, 6))
        m = 2 * k + int(gen.integers(0, 4))
        inst = inputs.DCSatisfiedInstance(gen, n, m, k, g)
        model = pa.Instance.euclidean(inst.agents, inst.candidates, k)
        expect(pa.oracle_dc(model, inst.cores).satisfied,
               f"draw {d}: cores fail oracle_dc (n={n} m={m} k={k} g={g})")
        expect(pa.verify_dc_mpjr_plus(model, inst.cores).satisfied,
               f"draw {d}: cores fail verify_dc_mpjr_plus")
        viol = inst.violated_selection(gen)
        expect(not pa.oracle_dc(model, viol).satisfied,
               f"draw {d}: cluster-missing selection passes oracle_dc")


def _tampered(wit):
    """Witness variants that must each fail the check."""
    out = {}
    out["member dropped"] = dict(wit, coalition=wit["coalition"][1:])
    out["member repeated"] = dict(wit, coalition=wit["coalition"] * 2)
    out["radius shrunk"] = dict(wit, radius=wit["radius"] * 0.5)
    out["level raised"] = dict(wit, level=wit["level"] + 50)
    out["covered forged"] = dict(wit, covered=(wit["covered"] or []) + [-1])
    return out


def test_witness_checks(pa):
    gen = inputs.stream(7, 98)
    inst = inputs.DCSatisfiedInstance(gen, 60, 20, 4, 2)
    model = pa.Instance.euclidean(inst.agents, inst.candidates, 4)
    sel = inst.violated_selection(gen)
    wit = pa.verify_dc_mpjr_plus(model, sel).to_dict()["witness"]
    args = (inst.agents, inst.candidates, 4, sel)
    expect(checks.check_witness(*args, wit, dc=True) == [], "real DC witness rejected")
    for what, bad in _tampered(wit).items():
        expect(checks.check_witness(*args, bad, dc=True) != [], f"DC witness with {what} accepted")
    expect(checks.check_witness(*args, dict(wit, center=sel[0]), dc=True) != [],
           "witness anchored at a selected center accepted")
    expect(checks.check_witness(*args, None) != [], "missing witness accepted")

    agents, cands = inputs.gaussian_points(inputs.stream(3, 98), 40, 20, 4, 0.05)
    model = pa.Instance.euclidean(agents, cands, 5)
    found = 0
    for j in range(40):
        sel = tuple(sorted(int(c) for c in inputs.stream(j, 97).choice(20, 5, replace=False)))
        verdict = pa.verify_mpjr_plus_smallk(model, sel)
        if verdict.satisfied:
            continue
        found += 1
        wit = verdict.to_dict()["witness"]
        args = (agents, cands, 5, sel)
        expect(checks.check_witness(*args, wit) == [], f"real anchored witness rejected ({sel})")
        bad = _tampered(wit)
        for what in ("member repeated", "radius shrunk", "level raised", "covered forged"):
            expect(checks.check_witness(*args, bad[what]) != [], f"anchored witness with {what} accepted")
    expect(found > 0, "no violated anchored case drawn")


def test_sear_checks(pa):
    agents, cands = inputs.gaussian_points(inputs.stream(5, 98), 60, 30, 5, 0.1)
    out = pa.run_sear(pa.Instance.euclidean(agents, cands, 6)).to_dict()
    expect(checks.check_sear(agents, cands, 6, out) == [], "real SEAR trace rejected")
    bad = copy.deepcopy(out)
    bad["trace"][0]["charges"][0]["amount"] += 1
    expect(checks.check_sear(agents, cands, 6, bad) != [], "over-charging step accepted")
    bad = copy.deepcopy(out)
    bad["trace"][-1]["radius"] = 0.0
    expect(checks.check_sear(agents, cands, 6, bad) != [], "charge beyond the radius accepted")
    bad = copy.deepcopy(out)
    bad["selection"][0], bad["selection"][1] = bad["selection"][1], bad["selection"][0]
    expect(checks.check_sear(agents, cands, 6, bad) != [], "selection out of trace order accepted")
    bad = copy.deepcopy(out)
    for step in bad["trace"]:
        step["charges"] = [{"agent": 0, "amount": len(agents)}]
    expect(checks.check_sear(agents, cands, 6, bad) != [], "agent over budget accepted")
    expect(checks.digest(out) != checks.digest(bad), "digest ignores the trace")
    expect(checks.digest({"a": 1, "elapsed_ms": 2.0}) == checks.digest({"a": 1, "elapsed_ms": 3.0}),
           "digest depends on wall-clock time")


class _Flaky:
    """A workload whose every third op fails its check and every fifth raises."""
    name = "flaky"

    def run(self, pa, item, out):
        if item["i"] % 5 == 4:
            raise RuntimeError("op raised")
        return item["i"]

    def check(self, pa, item, out, result):
        return (["forged mismatch"] if result % 3 == 2 else []), str(result), result


def test_failures_counted(pa):
    pool = [{"i": i} for i in range(15)]
    golden = ["forged"] + [str(i) for i in range(1, 15)]
    workdir = run.OUT_DIR / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        with contextlib.redirect_stderr(io.StringIO()):    # the expected failure reports
            ops = run.run_ops(pa, _Flaky(), pool, 0.5, None, str(workdir), None)
            gold = run.run_ops(pa, _Flaky(), pool, 0.0, None, str(workdir), golden)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    expect(len(ops) > len(pool), "op loop stopped after failures")
    for r in ops:
        i = r["pool"]
        expect(bool(r["errors"]) == (i % 3 == 2 or i % 5 == 4),
               f"op {r['op']} (item {i}) failure not counted as expected")
    expect([bool(r["errors"]) for r in gold] == [True, False, True],
           "golden digest mismatch not counted")


def test_absent_name(pa):
    original = pa.cli.load_instance
    targets = spans.TARGETS + (("propaudit.cli", "no_such_name", "cli.gone", False),)
    tracer = spans.Tracer(targets)
    tracer.op(0, "root", lambda: None)
    expect(tracer.absent == ["cli.gone:no_such_name"], f"absent names reported as {tracer.absent}")
    expect(pa.cli.load_instance is original, "wrapped name not restored after the op")


def main() -> int:
    pa = run.import_program()
    for test in (test_dc_generator, test_witness_checks, test_sear_checks, test_failures_counted,
                 test_absent_name):
        before = len(failures)
        test(pa)
        print(f"{test.__name__}: {'ok' if len(failures) == before else 'FAILED'}")
    for f in failures:
        print("  " + f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
