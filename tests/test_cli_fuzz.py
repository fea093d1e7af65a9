"""Property test of the CLI's exit codes.

Flag values for `audit`, `experiment`, `baseline` and `generate`, and
input files and output paths for `sear`, `embed` and `validate`, are
drawn on tiny fixtures.  Whatever the values, `main` must end with 0
(satisfied or done), 1 (violated) or 2 (bad input or usage) and let no
exception escape; a value known to be bad must give 2.  argparse's own
usage errors end in SystemExit(2), which counts as returning 2.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propaudit import dump_instance
from propaudit.cli import AUDIT_AXIOMS, main
from propaudit.gen import fixture_incomparability

FUZZ = settings(max_examples=60, deadline=None)

bad_real = st.sampled_from(["nan", "inf", "-inf", "-0.5"])
any_real = st.one_of(bad_real, st.sampled_from(["0", "1", "1.5", "3", "1e-9", "x"]))


@pytest.fixture(scope="module")
def fixture_path(tmp_path_factory):
    inst, _ = fixture_incomparability(2)
    path = tmp_path_factory.mktemp("fuzz") / "prop3_2.json"
    dump_instance(inst, path)
    return str(path)


def run(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:       # argparse usage error
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    return code


def in_range(text, low, strict):
    """Is `text` a finite number above `low` (or at it, unless strict)?"""
    try:
        value = float(text)
    except ValueError:
        return False
    return value == value and abs(value) != float("inf") and (
        value > low if strict else value >= low)


def bad_ints(text):
    """Does `text` have an entry that is not an integer?  An empty one counts."""
    return any(not tok.strip().lstrip("-").isdigit() for tok in text.split(","))


def given_as(text, value):
    """Is the optional flag value `text` given, and not a number equal to `value`?"""
    if text is None:
        return False
    try:
        return float(text) != value
    except ValueError:
        return True


@FUZZ
@given(axiom=st.sampled_from(AUDIT_AXIOMS),
       selection=st.one_of(
           st.lists(st.integers(-1, 5), max_size=4).map(
               lambda xs: ",".join(map(str, xs))),
           st.sampled_from(["1,a", "1,2,3", "1.5,2,3"])),
       gamma=st.none() | any_real, eps=st.none() | any_real,
       ell=st.none() | st.integers(-1, 4), all_witnesses=st.booleans())
def test_audit_exit_codes(fixture_path, axiom, selection, gamma, eps, ell,
                          all_witnesses):
    argv = ["audit", fixture_path, "--axiom", axiom, "--selection", selection]
    for flag, value in (("--gamma", gamma), ("--eps", eps), ("--ell", ell)):
        if value is not None:
            argv += [flag, str(value)]
    if all_witnesses:
        argv.append("--all-witnesses")
    code = run(argv)
    if (not in_range(gamma or "1", 0, True) or not in_range(eps or "0", 0, False)
            or bad_ints(selection)
            # flags the axiom ignores, and the level fixed-ell-dc needs
            or (axiom == "mpjr-oracle" and (given_as(gamma, 1) or given_as(eps, 0)))
            or (ell is not None) != (axiom == "fixed-ell-dc")
            or (all_witnesses and axiom != "dc-mpjr+")):
        assert code == 2


int_list = st.lists(st.integers(-1, 12), min_size=1, max_size=2).map(
    lambda xs: ",".join(map(str, xs)))


@FUZZ
@given(n_values=st.one_of(int_list, st.sampled_from(["a", "6,x", "6.5", ""])),
       g_values=st.one_of(int_list, st.sampled_from(["4,x", "b"])),
       instances=st.integers(-1, 1), selections=st.integers(-1, 2),
       k=st.integers(-1, 4), gamma=any_real)
def test_experiment_exit_codes(n_values, g_values, instances, selections, k, gamma):
    code = run(["experiment", "--n-values", n_values, "--g-values", g_values,
                "--instances", str(instances), "--selections", str(selections),
                "--k", str(k), "--gamma", gamma, "--threads", "1"])
    if (bad_ints(n_values) or bad_ints(g_values) or not in_range(gamma, 1, False)
            or min(instances, selections) < 1):
        assert code == 2


@FUZZ
@given(objective=st.sampled_from(["kmedian", "kmeans"]),
       restarts=st.integers(-1, 2), seed=st.integers(-3, 3),
       exhaustive=st.booleans())
def test_baseline_exit_codes(fixture_path, objective, restarts, seed, exhaustive):
    argv = ["baseline", fixture_path, "--objective", objective,
            "--restarts", str(restarts), "--seed", str(seed)]
    if exhaustive:
        argv.append("--exhaustive")
    code = run(argv)
    if restarts < 1 or (exhaustive and (objective != "kmedian" or restarts != 1
                                        or seed != 0)):
        assert code == 2


@FUZZ
@given(kind=st.sampled_from(["gaussian", "prop3-1", "prop3-2", "fig2"]),
       n=st.none() | st.integers(-1, 12), g=st.none() | st.integers(-1, 4),
       k=st.none() | st.integers(-1, 6), sigma=st.none() | any_real,
       seed=st.none() | st.integers(-3, 3))
def test_generate_exit_codes(kind, n, g, k, sigma, seed):
    argv = ["generate", "--kind", kind]
    for flag, value in (("--n", n), ("--g", g), ("--k", k), ("--sigma", sigma),
                        ("--seed", seed)):
        if value is not None:
            argv += [flag, str(value)]
    code = run(argv)
    if kind == "gaussian":
        bad = n is None or g is None or not in_range(sigma or "0.04", 0, False)
    else:   # a fixture reads none of the flags: each off its default is an error
        bad = (n is not None or g is not None or given_as(k, 5)
               or given_as(sigma, 0.04) or given_as(seed, 0))
    if bad:
        assert code == 2
    elif kind != "gaussian":
        assert code == 0


@pytest.fixture(scope="module")
def input_files(tmp_path_factory, fixture_path):
    """One file of each kind the file-reading commands may be given."""
    root = tmp_path_factory.mktemp("inputs")
    (root / "directory").mkdir()
    files = {"instance": fixture_path, "directory": str(root / "directory"),
             "missing": str(root / "missing.json")}
    contents = {
        "approval": json.dumps({"approvals": [[0], [1], [0, 1]], "candidates": 2, "k": 1}),
        "approval-bad-k": json.dumps({"approvals": [[0], [1]], "candidates": 2, "k": 1.7}),
        "not-json": "{",
        "not-utf8": b'{"metric": "caf\xe9"}',
    }
    for name, text in contents.items():
        path = root / f"{name}.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        files[name] = str(path)
    files["out"] = str(root / "out.json")
    files["out-missing-dir"] = str(root / "no-such-dir" / "out.json")
    return files


@FUZZ
@given(command=st.sampled_from(["sear", "embed", "validate"]),
       source=st.sampled_from(["instance", "approval", "approval-bad-k", "directory",
                               "missing", "not-json", "not-utf8"]),
       out=st.sampled_from([None, "out", "out-missing-dir"]),
       triangle=st.booleans())
def test_file_command_exit_codes(input_files, command, source, out, triangle):
    argv = [command, input_files[source]]
    if out:
        argv += ["--out", input_files[out]]
    if triangle and command == "validate":
        argv.append("--triangle")
    code = run(argv)
    readable = "approval" if command == "embed" else "instance"
    if source != readable or out == "out-missing-dir":
        assert code == 2
    else:
        assert code in (0, 1)
