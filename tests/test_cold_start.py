"""What ``import propaudit`` and each ``propaudit`` command load.

The package resolves its exported names on first access, and the CLI
imports each command's modules when the command runs.  Tests in this
process share every module other tests already imported, so a missing or
circular deferred import shows only in a new interpreter: these tests
start one per case.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import propaudit
from propaudit import ApprovalInstance, Instance, dump_instance, fixture_incomparability

SRC = os.path.dirname(os.path.dirname(propaudit.__file__))

EXPORTS = {
    "core": ("EUCLIDEAN", "EXPLICIT", "ConfigError", "InfeasibleLevel", "InputError",
             "Instance", "MetricCheck", "SizeError", "UnsupportedBackend", "Verdict",
             "Witness", "check_selection", "dump_instance", "load_instance",
             "validate_metric"),
    "approval": ("ApprovalInstance", "BipartiteGraph", "biclique_reduction",
                 "find_balanced_biclique_bruteforce", "pad_balanced",
                 "verify_fixed_ell_pjr_plus_bruteforce", "verify_pjr_bruteforce",
                 "verify_pjr_plus_sweep"),
    "embedding": ("embed_approval",),
    "verify": ("dc_violations", "verify_dc_mpjr_plus", "verify_fixed_ell_dc",
               "verify_mpjr_plus_smallk"),
    "oracle": ("SubmodularReport", "oracle_dc", "oracle_mpjr", "oracle_mpjr_plus",
               "oracle_mpjr_plus_fixed_ell", "submodular_min_check"),
    "sear": ("SearResult", "SearStep", "run_sear"),
    "gen": ("GaussianConfig", "box_muller", "fixture_incomparability",
            "fixture_objective_failure", "gen_gaussian_instance", "sample_selection",
            "substream"),
    "baselines": ("kmeans_cost", "kmeans_lloyd_snapped", "kmedian_cost",
                  "kmedian_exhaustive", "kmedian_local_search"),
    "bench": ("ExperimentConfig", "ExperimentReport", "ReportRow", "run_experiment"),
}
NAMES = [name for names in EXPORTS.values() for name in names]


def fresh(code, *argv):
    """Run `code` in a new interpreter with `argv`; returns the process."""
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=SRC))


def loaded_after(statement):
    code = (f"import json, sys; {statement}; print(json.dumps(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('propaudit', 'concurrent', 'multiprocessing'))))")
    proc = fresh(code)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def test_import_loads_no_submodule():
    assert loaded_after("import propaudit") == {"propaudit"}


def test_cli_import_loads_only_what_audit_and_sear_run():
    loaded = loaded_after("import propaudit.cli")
    assert {"propaudit.cli", "propaudit.core", "propaudit.verify",
            "propaudit.sear"} <= loaded
    for name in ("bench", "gen", "approval", "embedding", "baselines", "oracle"):
        assert f"propaudit.{name}" not in loaded
    assert "concurrent.futures.process" not in loaded
    assert "multiprocessing" not in loaded


def test_export_table():
    assert len(NAMES) == len(set(NAMES)) == 53
    assert sorted(propaudit.__all__) == sorted(NAMES)
    for module, names in EXPORTS.items():
        sub = importlib.import_module(f"propaudit.{module}")
        for name in names:
            assert getattr(propaudit, name) is getattr(sub, name), name
    assert set(NAMES) <= set(dir(propaudit))
    assert {"cli", "gen", "verify"} <= set(dir(propaudit))
    star = {}
    exec("from propaudit import *", star)
    assert set(NAMES) <= set(star)
    for name in star:
        if name != "__builtins__":
            assert star[name] is getattr(propaudit, name), name
    with pytest.raises(AttributeError, match="no_such_name"):
        propaudit.no_such_name
    with pytest.raises(ImportError):
        exec("from propaudit import no_such_name", {})


def test_export_table_in_a_fresh_interpreter():
    """Star import, every name and every submodule attribute resolve from
    a package that has loaded nothing yet."""
    code = ("import propaudit, sys; ns = {}; exec('from propaudit import *', ns); "
            "assert set(propaudit.__all__) <= set(ns); "
            "assert propaudit.gen.substream is propaudit.substream; "
            "assert propaudit.cli.main; print(len(propaudit.__all__))")
    proc = fresh(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "53"


# Runs the CLI as ``python -m propaudit.cli`` does, then writes the
# propaudit and multiprocessing modules it loaded as the last line of stderr.
RUN_CLI = """
import atexit, json, runpy, sys
atexit.register(lambda: print(json.dumps(sorted(
    m for m in sys.modules
    if m == 'multiprocessing' or m.split('.')[0] == 'propaudit')), file=sys.stderr))
sys.argv[0] = 'propaudit'
runpy.run_module('propaudit.cli', run_name='__main__', alter_sys=True)
"""

BASE = {"propaudit", "propaudit.core", "propaudit.verify", "propaudit.sear"}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cold")
    prop, _ = fixture_incomparability(2)
    dump_instance(prop, root / "prop3_2.json")
    two = Instance.euclidean([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]],
                             [[0.0, 0.0], [5.0, 5.0], [9.0, 0.0]], 2)
    dump_instance(two, root / "two.json")
    (root / "appr.json").write_text(json.dumps(
        ApprovalInstance([{0}, {0, 1}, {1}, {2}], 3, 2).to_dict()))
    return root


# (argv, documented exit code, modules loaded beyond BASE)
SMOKE = [
    (["audit", "{prop3_2}", "--selection", "1,2,3"], 1, set()),
    (["audit", "{two}", "--selection", "0,1", "--axiom", "mpjr+"], 0, set()),
    (["audit", "{prop3_2}", "--selection", "1,2,3", "--axiom", "mpjr-oracle"], 0,
     {"oracle", "approval"}),
    (["audit", "{prop3_2}", "--selection", "1,2,3", "--axiom", "fixed-ell-dc",
      "--ell", "2"], 1, set()),
    (["audit", "{two}", "--selection", "0,2", "--format", "text"], 1, set()),
    (["sear", "{two}"], 0, set()),
    (["generate", "--kind", "gaussian", "--n", "12", "--g", "2", "--k", "3"], 0, {"gen"}),
    (["generate", "--kind", "prop3-1"], 0, {"gen", "approval", "embedding"}),
    (["generate", "--kind", "prop3-2", "--out", "{out}"], 0,
     {"gen", "approval", "embedding"}),
    (["generate", "--kind", "fig2"], 0, {"gen"}),
    (["experiment", "--n-values", "10", "--g-values", "2", "--instances", "2",
      "--selections", "3", "--k", "2", "--threads", "1"], 0, {"bench", "gen"}),
    (["experiment", "--n-values", "10", "--g-values", "2", "--instances", "2",
      "--selections", "3", "--k", "2", "--threads", "2"], 0,
     {"bench", "gen", "multiprocessing"}),
    (["baseline", "{two}"], 0, {"baselines", "gen"}),
    (["embed", "{appr}"], 0, {"approval", "embedding"}),
    (["validate", "{two}", "--triangle"], 0, set()),
    (["audit", "{two}", "--selection", "0,0"], 2, set()),
]


@pytest.mark.parametrize("argv, code, extra", SMOKE,
                         ids=[f"{i}-{a[0]}" for i, (a, _, _) in enumerate(SMOKE)])
def test_command_in_a_fresh_interpreter(files, tmp_path, argv, code, extra):
    """Each command exits with its documented code in a new interpreter and
    loads only its own modules; its output parses as JSON (or text)."""
    paths = {p.stem: str(p) for p in files.iterdir()}
    paths["out"] = str(tmp_path / "out.json")
    proc = fresh(RUN_CLI, *(a.format(**paths) for a in argv))
    *err, last = proc.stderr.splitlines()
    assert proc.returncode == code, proc.stderr
    want = BASE | {m if m == "multiprocessing" else f"propaudit.{m}" for m in extra}
    assert set(json.loads(last)) == want
    if code == 2:
        assert err[-1].startswith("error:")
    elif "--format" in argv:
        assert proc.stdout.startswith("dc-mpjr+ gamma=1.0: VIOLATED (center=")
    elif argv[0] == "experiment":
        assert proc.stdout.startswith("n,g,axiom,gamma,satisfied,total,rate,mean_ms,seed\n")
    else:
        assert json.loads(proc.stdout)
