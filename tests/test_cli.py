import csv
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from propaudit import Instance, dc_violations, dump_instance
from propaudit import cli
from propaudit.cli import console_main, main
from propaudit.core import Witness
from propaudit.gen import fixture_incomparability, sample_selection


@pytest.fixture
def prop3_2(tmp_path):
    inst, _ = fixture_incomparability(2)
    path = tmp_path / "prop3_2.json"
    dump_instance(inst, path)
    return str(path)


def read_json(capsys):
    return json.loads(capsys.readouterr().out)


class TestAudit:
    def test_dc_violation_exit_code_and_witness(self, prop3_2, capsys):
        code = main(["audit", prop3_2, "--selection", "1,2,3",
                     "--axiom", "dc-mpjr+"])
        out = read_json(capsys)
        assert code == 1
        assert out["satisfied"] is False
        assert out["witness"]["center"] == 0 and out["witness"]["level"] == 2

    def test_full_selection_exit_zero(self, tmp_path, capsys):
        d = np.array([[0.0, 1.0, 2.0],
                      [1.0, 0.0, 1.0],
                      [2.0, 1.0, 0.0]])
        inst = Instance.explicit(d, 1, 2)
        path = tmp_path / "full.json"
        dump_instance(inst, path)
        assert main(["audit", str(path), "--selection", "0,1",
                     "--axiom", "mpjr+"]) == 0

    def test_wrong_selection_size_exit_two(self, prop3_2, capsys):
        code = main(["audit", prop3_2, "--selection", "1,2"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--selection", "1,a"],
        ["--selection", "1,2,3", "--eps", "-1"],
        ["--selection", "1,2,3", "--eps", "nan"],
        ["--selection", "1,2,3", "--eps", "inf"],
        ["--selection", "1,2,3", "--gamma", "inf"],
        ["--selection", "1,2,3", "--gamma", "nan"],
    ])
    def test_bad_arguments_exit_two(self, prop3_2, argv, capsys):
        assert main(["audit", prop3_2] + argv) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("gamma", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("axiom", [
        ["--axiom", "dc-mpjr+"], ["--axiom", "dc-mpjr+", "--all-witnesses"],
        ["--axiom", "mpjr+"], ["--axiom", "fixed-ell-dc", "--ell", "2"],
        ["--axiom", "mpjr-oracle"],
    ], ids=["dc", "dc-all", "mpjr+", "fixed-ell-dc", "oracle"])
    def test_bad_gamma_exit_two(self, prop3_2, axiom, gamma, capsys):
        argv = ["audit", prop3_2, "--selection", "1,2,3", "--gamma", gamma]
        assert main(argv + axiom) == 2
        assert "gamma" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        {"centers": [1, 2, 3]},          # no "selection" key
        {"selection": [1, "2", 3]},
        {"selection": [1.0, 2, 3]},
        {"selection": "1,2,3"},
        7,
    ])
    def test_bad_selection_file_exit_two(self, prop3_2, tmp_path, content, capsys):
        path = tmp_path / "sel.json"
        path.write_text(json.dumps(content))
        assert main(["audit", prop3_2, "--selection-file", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_both_selection_sources_exit_two(self, prop3_2, tmp_path, capsys):
        # the file's selection is satisfied, the flag's violated: neither wins
        path = tmp_path / "sel.json"
        path.write_text(json.dumps([0, 1, 2]))
        assert main(["audit", prop3_2, "--selection", "1,2,3",
                     "--selection-file", str(path)]) == 2
        assert "--selection-file" in capsys.readouterr().err

    def test_selection_file_forms(self, prop3_2, tmp_path, capsys):
        path = tmp_path / "sel.json"
        for content in ({"selection": [1, 2, 3]}, [1, 2, 3]):
            path.write_text(json.dumps(content))
            assert main(["audit", prop3_2, "--selection-file", str(path)]) == 1

    def test_oracle_and_fixed_ell_paths(self, prop3_2, capsys):
        assert main(["audit", prop3_2, "--selection", "1,2,3",
                     "--axiom", "mpjr-oracle"]) == 0
        capsys.readouterr()
        assert main(["audit", prop3_2, "--selection", "1,2,3",
                     "--axiom", "fixed-ell-dc", "--ell", "2"]) == 1
        capsys.readouterr()
        assert main(["audit", prop3_2, "--selection", "1,2,3",
                     "--axiom", "fixed-ell-dc"]) == 2    # missing --ell

    def test_thin_adapter_matches_library(self, prop3_2, capsys):
        # identical inputs produce the library verdict verbatim (modulo timing)
        from propaudit import load_instance, verify_dc_mpjr_plus
        main(["audit", prop3_2, "--selection", "1,2,3", "--axiom", "dc-mpjr+"])
        out = read_json(capsys)
        lib = verify_dc_mpjr_plus(load_instance(prop3_2), (1, 2, 3)).to_dict()
        out.pop("elapsed_ms"), lib.pop("elapsed_ms")
        assert out == lib

    def test_text_format_and_all_witnesses(self, prop3_2, capsys):
        assert main(["audit", prop3_2, "--selection", "1,2,3",
                     "--format", "text"]) == 1
        assert "VIOLATED" in capsys.readouterr().out
        assert main(["audit", prop3_2, "--selection", "1,2,3",
                     "--all-witnesses"]) == 1
        out = read_json(capsys)
        assert out["witnesses"] and out["witnesses"][0]["center"] == 0

    def test_all_witnesses_streamed_bytes(self, tmp_path, rng, capsys):
        """The streamed --all-witnesses output is byte-equal to the JSON of
        the whole list, to --out and to stdout, on seeded cases with no
        witness, one, and many; an input error writes no file."""
        counts = set()
        for j in range(40):
            n, m = int(rng.integers(1, 30)), int(rng.integers(2, 10))
            k = int(rng.integers(1, m))
            pts = rng.integers(0, 4, (n + m, 2)).astype(float) if j % 2 else rng.random((n + m, 2))
            inst = Instance.euclidean(pts[:n], pts[n:], k)
            path = tmp_path / "inst.json"
            dump_instance(inst, path)
            X = sample_selection(m, k, rng)
            gamma, eps = (1.0, 0.0) if j % 3 else (1.5, 0.25)
            wits = dc_violations(inst, X, gamma, eps)
            want = json.dumps({"axiom": "dc-mpjr+", "gamma": gamma, "satisfied": not wits,
                               "witnesses": [w.to_dict() for w in wits]}, indent=2) + "\n"
            argv = ["audit", str(path), "--selection", ",".join(map(str, X)),
                    "--all-witnesses", "--gamma", repr(gamma), "--eps", repr(eps)]
            out = tmp_path / "out.json"
            assert main(argv + ["--out", str(out)]) == (1 if wits else 0)
            assert out.read_text() == want
            assert main(argv) == (1 if wits else 0)
            assert capsys.readouterr().out == want
            counts.add(min(len(wits), 2))
        assert counts == {0, 1, 2}
        out = tmp_path / "none.json"
        wrong = ",".join(map(str, range(k + 1)))        # k + 1 centers
        assert main(["audit", str(path), "--selection", wrong, "--all-witnesses",
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_witness_item_bytes(self, rng):
        """Each --all-witnesses entry is the indent=2 JSON of the witness's
        dict, indented into the list, on 1,500 random witnesses: index
        lists missing, empty, of one entry and of hundreds, radii zero,
        fractional, huge and infinite."""
        def index_set(j):
            size = (0, 1, int(rng.integers(2, 400)))[j % 3]
            return frozenset(rng.choice(100_000, size, replace=False).tolist())

        kinds = set()
        for j in range(1500):
            radius = (None, 0.0, float(rng.random()), 1e300 * rng.random(), math.inf)[j % 5]
            wit = Witness(center=None if j % 7 == 0 else int(rng.integers(0, 10**6)),
                          level=int(rng.integers(0, 30)), radius=radius,
                          coalition=None if j % 11 == 0 else index_set(j),
                          covered=None if j % 13 == 0 else index_set(j // 3))
            want = json.dumps(wit.to_dict(), indent=2).replace("\n", "\n    ")
            assert cli._witness_item(wit) == want
            kinds.update(None if s is None else min(len(s), 2)
                         for s in (wit.coalition, wit.covered))
        assert kinds == {None, 0, 1, 2}

    def test_text_format_writes_out(self, prop3_2, tmp_path, capsys):
        main(["audit", prop3_2, "--selection", "1,2,3", "--format", "text"])
        line = capsys.readouterr().out
        out = tmp_path / "out.txt"
        assert main(["audit", prop3_2, "--selection", "1,2,3", "--format", "text",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().out == ""
        assert out.read_text() == line


    @pytest.mark.parametrize("value", ["1,,2,3", "1,2,3,", ",1,2,3", "1, ,2,3", ","])
    def test_selection_empty_entry_exit_two(self, prop3_2, value, capsys):
        """Empty entries were dropped: "1,,2,3" and "1,2,3," ran as (1, 2, 3)."""
        assert main(["audit", prop3_2, "--selection", value]) == 2
        assert "--selection" in capsys.readouterr().err

    def test_selection_spaces_around_numbers(self, prop3_2, capsys):
        assert main(["audit", prop3_2, "--selection", "1,2,3"]) == 1
        want = read_json(capsys)
        assert main(["audit", prop3_2, "--selection", " 1, 2 ,3 "]) == 1
        got = read_json(capsys)
        want.pop("elapsed_ms"), got.pop("elapsed_ms")
        assert got == want

    @pytest.mark.parametrize("argv", [
        ["--axiom", "mpjr-oracle", "--gamma", "2.5"],
        ["--axiom", "mpjr-oracle", "--eps", "0.3"],
        ["--axiom", "dc-mpjr+", "--ell", "2"],
        ["--axiom", "mpjr+", "--ell", "2"],
        ["--axiom", "mpjr-oracle", "--ell", "2"],
        ["--axiom", "mpjr+", "--all-witnesses"],
        ["--axiom", "fixed-ell-dc", "--ell", "2", "--all-witnesses"],
        ["--axiom", "dc-mpjr+", "--all-witnesses", "--format", "text"],
        ["--axiom", "dc-mpjr+", "--max-k", "10"],
        ["--axiom", "mpjr+", "--max-agents", "10"],
    ])
    def test_flags_the_axiom_ignores_exit_two(self, prop3_2, argv, capsys):
        assert main(["audit", prop3_2, "--selection", "1,2,3"] + argv) == 2
        assert "error" in capsys.readouterr().err


class TestGenerateAndPipeline:
    def test_generate_then_oracle_audit(self, tmp_path, capsys):
        path = tmp_path / "p31.json"
        assert main(["generate", "--kind", "prop3-1", "--out", str(path)]) == 0
        summary = read_json(capsys)
        assert summary["selection"] == [2, 3, 4]
        assert main(["audit", str(path), "--selection", "2,3,4",
                     "--axiom", "mpjr-oracle"]) == 1

    def test_generate_gaussian(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        assert main(["generate", "--kind", "gaussian", "--n", "10", "--g", "2",
                     "--k", "2", "--seed", "3", "--out", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["metric"] == "euclidean" and len(data["agents"]) == 10

    def test_generate_requires_args(self, capsys):
        assert main(["generate", "--kind", "gaussian"]) == 2

    @pytest.mark.parametrize("kind", ["fig2", "prop3-1", "prop3-2"])
    @pytest.mark.parametrize("flag,value", [("--n", "3"), ("--g", "2"), ("--k", "7"),
                                            ("--sigma", "-1"), ("--seed", "1")])
    def test_generate_fixture_flags_exit_two(self, kind, flag, value, capsys):
        # a fixture is fixed: gaussian-only flags off their default are errors
        assert main(["generate", "--kind", kind, flag, value]) == 2
        assert flag in capsys.readouterr().err
        assert main(["generate", "--kind", kind, "--k", "5", "--seed", "0",
                     "--sigma", "0.04"]) == 0


class TestOtherCommands:
    def test_sear(self, prop3_2, capsys):
        assert main(["sear", prop3_2]) == 0
        out = read_json(capsys)
        assert len(out["selection"]) == 3
        assert all({"candidate", "radius", "charges"} <= set(s) for s in out["trace"])

    def test_experiment_grid_rows(self, tmp_path):
        out = tmp_path / "exp.csv"
        assert main(["experiment", "--instances", "1", "--selections", "2",
                     "--n-values", "20,50,80,100", "--g-values", "4,5,6",
                     "--seed", "5", "--threads", "1", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 24       # header + 4 n x 3 g x 2 axioms

    def test_experiment_nan_gamma_exit_two(self, capsys):
        assert main(["experiment", "--n-values", "20", "--g-values", "4",
                     "--instances", "1", "--selections", "2", "--threads", "1",
                     "--gamma", "nan"]) == 2
        assert "gamma" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_experiment_bad_threads_exit_two(self, threads, capsys):
        assert main(["experiment", "--n-values", "20", "--g-values", "4",
                     "--instances", "1", "--selections", "2",
                     "--threads", threads]) == 2
        assert "threads" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--n-values", "a"),
                                             ("--g-values", "4,x"),
                                             ("--n-values", "20,,50"),
                                             ("--n-values", "20,"),
                                             ("--n-values", ""),
                                             ("--g-values", ",4"),
                                             ("--g-values", "4, ,5")])
    def test_experiment_bad_list_exit_two(self, flag, value, capsys):
        argv = ["experiment", "--n-values", "20", "--g-values", "4",
                "--instances", "1", "--selections", "2", "--threads", "1"]
        argv[argv.index(flag) + 1] = value
        assert main(argv) == 2
        assert flag in capsys.readouterr().err

    def test_experiment_spaces_around_numbers(self, tmp_path):
        argv = ["experiment", "--instances", "1", "--selections", "2", "--threads", "1"]
        plain, spaced = tmp_path / "plain.csv", tmp_path / "spaced.csv"
        assert main(argv + ["--n-values", "20,30", "--g-values", "4",
                            "--out", str(plain)]) == 0
        assert main(argv + ["--n-values", " 20 ,30", "--g-values", "4 ",
                            "--out", str(spaced)]) == 0
        rows = [[dict(row, mean_ms=None) for row in csv.DictReader(path.open())]
                for path in (plain, spaced)]
        assert rows[0] == rows[1] and len(rows[0]) == 4

    @pytest.mark.parametrize("restarts", ["0", "-1"])
    def test_baseline_bad_restarts_exit_two(self, prop3_2, restarts, capsys):
        assert main(["baseline", prop3_2, "--restarts", restarts]) == 2
        assert "--restarts" in capsys.readouterr().err

    def test_baseline_exhaustive(self, tmp_path, capsys):
        inst_path = tmp_path / "fig2.json"
        main(["generate", "--kind", "fig2", "--out", str(inst_path)])
        capsys.readouterr()
        assert main(["baseline", str(inst_path), "--objective", "kmedian",
                     "--exhaustive"]) == 0
        out = read_json(capsys)
        assert out["selection"] == [0, 3, 4]

    @pytest.mark.parametrize("argv", [["--objective", "kmeans", "--exhaustive"],
                                      ["--exhaustive", "--restarts", "2"],
                                      ["--exhaustive", "--seed", "1"]])
    def test_baseline_exhaustive_misuse_exit_two(self, prop3_2, argv, capsys):
        assert main(["baseline", prop3_2] + argv) == 2
        assert "--exhaustive" in capsys.readouterr().err

    def test_embed_roundtrip(self, tmp_path, capsys):
        appr = tmp_path / "appr.json"
        appr.write_text(json.dumps(
            {"voters": 2, "candidates": 2, "approvals": [[0], [1]], "k": 1}))
        out = tmp_path / "emb.json"
        assert main(["embed", str(appr), "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["metric"] == "explicit"
        assert data["matrix"][0][2] == 1.0 and data["matrix"][0][3] == 2.0

    @pytest.mark.parametrize("change", [{"k": 1.7}, {"candidates": 2.0}, {"voters": 5}])
    def test_embed_bad_profile_exit_two(self, tmp_path, change, capsys):
        appr = tmp_path / "appr.json"
        appr.write_text(json.dumps(dict(
            {"voters": 2, "candidates": 2, "approvals": [[0], [1]], "k": 1}, **change)))
        assert main(["embed", str(appr)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["audit", "--selection", "0"], ["sear"],
                                      ["baseline"], ["validate"]])
    def test_overflowing_distances_exit_two(self, tmp_path, argv, capsys):
        path = tmp_path / "far.json"
        path.write_text(json.dumps({
            "metric": "euclidean", "dim": 2, "agents": [[1e308, 0], [-1e308, 0]],
            "candidates": [[0, 0], [1, 0]], "k": 1}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv[:1] + [str(path)] + argv[1:]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "distances must be finite" in captured.err

    def test_kmeans_cost_overflow_exit_two(self, tmp_path, capsys):
        # finite distances near 1e154 whose squares sum past the float range
        path = tmp_path / "far.json"
        path.write_text(json.dumps({
            "metric": "euclidean", "dim": 2, "agents": [[1e154, 0], [-1e154, 0]],
            "candidates": [[0, 0], [1, 0]], "k": 1}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["baseline", str(path), "--objective", "kmeans"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "k-means cost overflows" in captured.err

    @pytest.mark.parametrize("extra", [[], ["--exhaustive"]])
    def test_kmedian_cost_overflow_exit_two(self, tmp_path, extra, capsys):
        # finite distances of 1e308 whose sums over two agents are not
        far = 1e308
        path = tmp_path / "far.json"
        path.write_text(json.dumps({
            "metric": "explicit", "agents": ["a0", "a1"], "candidates": ["c0", "c1"],
            "matrix": [[0, 0, far, far], [0, 0, far, far],
                       [far, far, 0, 0], [far, far, 0, 0]], "k": 1}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["baseline", str(path)] + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "k-median cost overflows" in captured.err

    def test_validate_overflowing_agent_distances(self, tmp_path, capsys):
        # agent-candidate distances are finite, so audit accepts the file;
        # validate checks the full metric, where the agents' distance is not
        path = tmp_path / "far.json"
        path.write_text(json.dumps({
            "metric": "euclidean", "dim": 2, "agents": [[1e154, 0], [-1e154, 0]],
            "candidates": [[0, 0], [1, 0]], "k": 1}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["audit", str(path), "--selection", "0"]) == 0
            capsys.readouterr()
            assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "distances must be finite" in captured.err

    def test_experiment_verbose_progress(self, monkeypatch, capsys):
        # a clock that ticks per reading keeps mean_ms equal across the runs
        ticks = itertools.count()
        monkeypatch.setattr(time, "perf_counter", lambda: next(ticks) * 0.25)
        argv = ["experiment", "--n-values", "20,30", "--g-values", "4",
                "--instances", "2", "--selections", "3", "--threads", "1"]
        assert main(argv) == 0
        quiet = capsys.readouterr()
        assert main(argv + ["--verbose"]) == 0
        loud = capsys.readouterr()
        assert loud.out == quiet.out and quiet.err == ""
        lines = loud.err.splitlines()
        assert len(lines) == 4
        for done, line in enumerate(lines, 1):
            got = re.fullmatch(rf"{done}/4 instances audited, \d+\.\d s elapsed, "
                               r"(\d+\.\d\d) instances/s, (\d+\.\d) selections/s, "
                               r"ETA \d+\.\d s", line)
            assert got, line
            # three selections an instance, each rate rounded to its last digit
            assert abs(float(got[2]) - 3 * float(got[1])) <= 0.05 + 3 * 0.005
        assert lines[-1].endswith("ETA 0.0 s")

    def test_validate(self, prop3_2, tmp_path, capsys):
        assert main(["validate", prop3_2, "--triangle"]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "metric": "explicit", "agents": ["a"], "candidates": ["c1", "c2"],
            "matrix": [[0, 1, 9], [1, 0, 1], [9, 1, 0]], "k": 1}))
        capsys.readouterr()
        assert main(["validate", str(bad), "--triangle"]) == 1
        assert read_json(capsys)["violation"] == "triangle"

    def test_missing_file(self):
        assert main(["audit", "/nonexistent.json", "--selection", "0"]) == 2

    def test_unreadable_inputs_exit_two(self, prop3_2, tmp_path, capsys):
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes(b'{"metric": "caf\xe9"}')
        for argv in (["audit", str(tmp_path), "--selection", "0"],
                     ["audit", prop3_2, "--selection-file", str(tmp_path)],
                     ["sear", str(latin1)],
                     ["audit", prop3_2, "--selection-file", str(latin1)],
                     ["validate", str(tmp_path)],
                     ["embed", str(latin1)]):
            assert main(argv) == 2, argv
            assert capsys.readouterr().err.startswith("error: "), argv

    def test_out_in_missing_directory_exit_two(self, prop3_2, tmp_path, capsys):
        out = str(tmp_path / "missing" / "out.json")
        assert main(["audit", prop3_2, "--selection", "1,2,3", "--out", out]) == 2
        assert main(["sear", prop3_2, "--out", out]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_output_failures_are_not_input_errors(self, prop3_2, monkeypatch):
        # exit 2 means bad input or usage: a full disk or a closed pipe
        # while writing the result propagates instead
        for exc in (OSError(28, "No space left on device"), BrokenPipeError()):
            def fail(text, exc=exc):
                raise exc
            monkeypatch.setattr(sys.stdout, "write", fail)
            with pytest.raises(type(exc)):
                main(["audit", prop3_2, "--selection", "1,2,3"])
            monkeypatch.undo()

    def test_bad_instance_exit_two(self, prop3_2, tmp_path, capsys):
        data = json.loads(open(prop3_2).read())
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(data, k="x")))
        assert main(["audit", str(bad), "--selection", "1,2,3"]) == 2

    @pytest.mark.parametrize("change", [{"dim": 5}, {"agents": "ab"}],
                             ids=["dim", "agent-string"])
    def test_self_contradicting_instance_exit_two(self, tmp_path, change, capsys):
        """A Euclidean file with "dim": 5 and 2-D points audited with exit
        0, and "agents": "ab" was read as two agents named a and b."""
        if "dim" in change:
            inst = Instance.euclidean([[0.0, 0.0], [1.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]], 1)
        else:
            inst = Instance.explicit([[0, 1, 1], [1, 0, 1], [1, 1, 0]], 2, 1)
        path, out = tmp_path / "inst.json", tmp_path / "out.json"
        path.write_text(json.dumps(dict(inst.to_dict(), **change)))
        assert main(["audit", str(path), "--selection", "0", "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["audit", "--selection", "0"], ["sear"], ["baseline"],
                                      ["validate"]])
    @pytest.mark.parametrize("field", ["agents", "candidates", "matrix"])
    @pytest.mark.parametrize("bad", [True, False, "0.9", None, 10 ** 400],
                             ids=["true", "false", "str", "null", "huge"])
    def test_entries_that_are_not_numbers_exit_two(self, tmp_path, argv, field, bad,
                                                   capsys):
        """Bools and strings were read as floats (audit exited 0 or 1 and
        sear ran), and an integer past float range crashed with exit 3."""
        if field == "matrix":
            inst, _ = fixture_incomparability(2)
            data = inst.to_dict()
            data["matrix"][7][2] = bad
        else:
            data = Instance.euclidean([[0.0, 0.0], [1.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]],
                                      1).to_dict()
            data[field][1][0] = bad
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(data))
        assert console_main([argv[0], str(path)] + argv[1:]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("site", ["instance", "selection-file", "approval"])
    def test_deeply_nested_json_exit_two(self, prop3_2, tmp_path, site, capsys):
        # the parser recurses per level: 100,000 levels raise RecursionError
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        argv = {"instance": ["audit", str(deep), "--selection", "0"],
                "selection-file": ["audit", prop3_2, "--selection-file", str(deep)],
                "approval": ["embed", str(deep)]}[site]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "not readable JSON" in captured.err

    def test_crash_exits_three(self, prop3_2, monkeypatch, capsys):
        def crash(*args, **kwargs):
            raise RuntimeError("audit crashed")
        monkeypatch.setattr(cli, "verify_dc_mpjr_plus", crash)
        argv = ["audit", prop3_2, "--selection", "1,2,3"]
        with pytest.raises(RuntimeError):
            main(argv)
        assert console_main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("Traceback")
        assert captured.err.rstrip().endswith("RuntimeError: audit crashed")


# every numeric flag and list entry of these commands, with a command line
# that the value completes ("{inst}" is an instance file)
NUMERIC_FLAGS = (
    [("audit", f) for f in ("--selection", "--gamma", "--ell", "--eps", "--max-k",
                            "--max-agents")]
    + [("generate", f) for f in ("--n", "--g", "--sigma", "--seed", "--k")]
    + [("experiment", f) for f in ("--n-values", "--g-values", "--instances", "--selections",
                                   "--k", "--sigma", "--seed", "--gamma", "--threads")]
    + [("baseline", f) for f in ("--restarts", "--seed")])
BASE_ARGV = {
    "audit": ["audit", "{inst}", "--selection", "1,2,3"],
    "generate": ["generate", "--kind", "gaussian", "--n", "20", "--g", "2"],
    "experiment": ["experiment", "--n-values", "20", "--g-values", "4", "--instances", "1",
                   "--selections", "2", "--threads", "1"],
    "baseline": ["baseline", "{inst}"],
}


def run_main(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestStrictNumbers:
    """int() and float() read digit-group underscores and other scripts'
    digits: "--gamma 1_5" ran at gamma 15, "--ell ٢" at level 2, and
    "--selection 1_2,٣" as (12, 3)."""

    @pytest.mark.parametrize("value", ["1_0", "\u0661", "\uff11"],
                             ids=["underscore", "arabic-indic", "fullwidth"])
    @pytest.mark.parametrize("command, flag", NUMERIC_FLAGS)
    def test_rejected_with_exit_two_and_no_out_file(self, prop3_2, tmp_path, command, flag,
                                                    value, capsys):
        argv = [prop3_2 if a == "{inst}" else a for a in BASE_ARGV[command]]
        if flag in argv:
            argv[argv.index(flag) + 1] = value
        else:
            argv += [flag, value]
        out = tmp_path / "out"
        assert run_main(argv + ["--out", str(out)]) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["1_2,\u0663", "1,2,\u0663", "1,\uff12,3"])
    def test_list_entries(self, prop3_2, value, capsys):
        assert main(["audit", prop3_2, "--selection", value]) == 2
        assert "--selection" in capsys.readouterr().err

    def test_spaces_signs_and_exponents_still_read(self, prop3_2, capsys):
        outputs = []
        for gamma, eps, ell in (("1.5", "0.000000001", "2"), (" +1.5 ", "1e-9", " +2 "),
                                ("15e-1", "1E-9", "2")):
            assert main(["audit", prop3_2, "--selection", " +1,2, 3", "--axiom",
                         "fixed-ell-dc", "--gamma", gamma, "--eps", eps, "--ell", ell]) == 1
            outputs.append(read_json(capsys))
            outputs[-1].pop("elapsed_ms")
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0]["gamma"] == 1.5


def test_cli_import_loads_no_scipy():
    import propaudit
    src = os.path.dirname(os.path.dirname(propaudit.__file__))
    code = ("import sys, propaudit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "[]"


def test_one_parser_serves_many_commands(prop3_2, tmp_path, monkeypatch, capsys):
    """Commands run one after another through one ``main`` give the stdout,
    stderr, exit code and --out bytes (less the audit's time) of each run
    first in a fresh process, and ``main`` builds its parser once for all
    of them."""
    import propaudit
    sat = tmp_path / "sat.json"
    dump_instance(Instance.euclidean([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]],
                                     [[0.0, 0.0], [5.0, 5.0], [9.0, 0.0]], 2), sat)
    calls = [["audit", prop3_2, "--axiom", "nope"],                  # usage error
             ["audit", prop3_2, "--selection", "1,,3"],              # input error
             ["audit", "--help"],
             ["audit", prop3_2, "--selection", "1,2,3", "--out", "{out}"],
             ["audit", str(sat), "--selection", "0,1", "--axiom", "mpjr+",
              "--out", "{out}"],
             ["audit", prop3_2, "--selection", "1,2,3", "--format", "text"]]
    env = dict(os.environ, COLUMNS="80",
               PYTHONPATH=os.path.dirname(os.path.dirname(propaudit.__file__)))
    monkeypatch.setenv("COLUMNS", "80")         # help text wraps to this width

    def outcome(argv, out, fresh):
        argv = [out if a == "{out}" else a for a in argv]
        if fresh:
            proc = subprocess.run([sys.executable, "-m", "propaudit.cli"] + argv,
                                  capture_output=True, text=True, env=env)
            code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        else:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            stdout, stderr = capsys.readouterr()
        written = open(out, "rb").read() if os.path.exists(out) else None
        if written is not None:
            written = re.sub(rb'"elapsed_ms": [0-9.e-]+', b"", written)
        return code, stdout, stderr, written

    want = [outcome(argv, str(tmp_path / f"fresh{i}.out"), True)
            for i, argv in enumerate(calls)]
    assert [w[0] for w in want] == [2, 2, 0, 1, 0, 1]
    assert want[0][2].startswith("usage: propaudit audit")
    assert want[1][2].startswith("error: --selection")
    assert want[3][3] is not None and want[4][3] is not None
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    try:
        for rnd in range(2):
            for i, argv in enumerate(calls):
                got = outcome(argv, str(tmp_path / f"same{rnd}-{i}.out"), False)
                assert got == want[i], argv
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
