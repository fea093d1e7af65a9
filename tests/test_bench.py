import multiprocessing

import numpy as np
import pytest

from propaudit import (ConfigError, ExperimentConfig, Instance, SizeError, bench,
                       run_experiment, verify, verify_dc_mpjr_plus, verify_mpjr_plus_smallk)
from propaudit.gen import (GaussianConfig, gen_gaussian_instance, sample_selection,
                           substream)


def reference_csv(cfg):
    """``to_csv(include_timing=False)`` of the grid, audited one selection
    at a time by the public verifiers."""
    verify = {"dc-mpjr+": verify_dc_mpjr_plus, "mpjr+": verify_mpjr_plus_smallk}
    lines = ["n,g,axiom,gamma,satisfied,total,rate,seed"]
    for n in cfg.n_values:
        for g in cfg.g_values:
            sat = dict.fromkeys(cfg.axioms, 0)
            for idx in range(cfg.instances_per_cell):
                inst = gen_gaussian_instance(GaussianConfig(
                    n=n, g=g, sigma=cfg.sigma, k=cfg.k,
                    seed=bench._instance_seed(cfg.master_seed, n, g, idx)))
                for j in range(cfg.selections_per_instance):
                    X = sample_selection(inst.m, cfg.k, substream(
                        cfg.master_seed, "selection", n, g, idx, j))
                    for a in cfg.axioms:
                        sat[a] += verify[a](inst, X, cfg.gamma).satisfied
            total = cfg.instances_per_cell * cfg.selections_per_instance
            for a in sorted(cfg.axioms):
                lines.append(f"{n},{g},{a},{cfg.gamma!r},{sat[a]},{total},"
                             f"{sat[a] / total!r},{cfg.master_seed}")
    return "\n".join(lines) + "\n"


def tiny_config(**overrides):
    base = dict(n_values=(10, 15), g_values=(2, 3), instances_per_cell=3,
                selections_per_instance=20, k=2, sigma=0.04, master_seed=424242)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_defaults_match_reported_grid(self):
        cfg = ExperimentConfig(master_seed=1)
        assert cfg.n_values == (20, 50, 80, 100)
        assert cfg.g_values == (4, 5, 6)
        assert cfg.instances_per_cell == 50
        assert cfg.selections_per_instance == 1000
        assert cfg.k == 5 and cfg.sigma == 0.04 and cfg.gamma == 1.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            tiny_config(instances_per_cell=0)
        with pytest.raises(ConfigError):
            tiny_config(k=11)           # exceeds smallest n
        with pytest.raises(ConfigError):
            tiny_config(axioms=("ejr",))
        with pytest.raises(ConfigError):
            tiny_config(gamma=0.5)
        with pytest.raises(ConfigError):
            tiny_config(gamma=float("nan"))

    @pytest.mark.parametrize("change", [
        {"axioms": ("mpjr+", "mpjr+")}, {"axioms": ("dc-mpjr+", "mpjr+", "dc-mpjr+")},
        {"instances_per_cell": 1.5}, {"selections_per_instance": 2.0},
        {"k": 2.0}, {"k": True}, {"n_values": (10, 15.5)}, {"g_values": ("2",)},
        {"n_values": (10, 15, 10)}, {"g_values": (2, 2)},
    ])
    def test_rejects_duplicates_and_non_integer_counts(self, change):
        with pytest.raises(ConfigError):
            tiny_config(**change)

    @pytest.mark.parametrize("change", [
        {"n_values": 20}, {"g_values": 4}, {"axioms": None},
        {"sigma": float("nan")}, {"sigma": float("inf")}, {"sigma": -1.0},
        {"gamma": float("inf")}, {"gamma": "2"},
        {"g_values": (2, 11)},          # a cell with more clusters than agents
        {"k": 0},
        {"master_seed": 1.5}, {"master_seed": True}, {"master_seed": "1"},
    ])
    def test_rejects_before_any_run(self, change):
        with pytest.raises(ConfigError):
            tiny_config(**change)

    @pytest.mark.parametrize("threads", [0, -5, 1.5, "2", True])
    def test_bad_threads(self, threads):
        with pytest.raises(ConfigError):
            run_experiment(tiny_config(), threads=threads)


class TestRun:
    def test_single_audit_row_is_reproducible(self):
        cfg = ExperimentConfig(n_values=(10,), g_values=(2,), instances_per_cell=1,
                               selections_per_instance=1, k=2, master_seed=7)
        a = run_experiment(cfg, threads=1)
        b = run_experiment(cfg, threads=1)
        assert len(a.rows) == 2          # one row per axiom
        assert a.to_csv(include_timing=False) == b.to_csv(include_timing=False)

    def test_row_grid_and_totals(self):
        report = run_experiment(tiny_config(), threads=1)
        assert len(report.rows) == 2 * 2 * 2
        for row in report.rows:
            assert row.total == 3 * 20
            assert 0.0 <= row.rate <= 1.0
            assert row.seed == 424242

    def test_dc_rate_dominates_per_cell(self):
        report = run_experiment(tiny_config(), threads=1)
        for n in (10, 15):
            for g in (2, 3):
                assert report.rate(n, g, "dc-mpjr+") >= report.rate(n, g, "mpjr+")

    def test_parallel_agrees_with_serial(self):
        cfg = tiny_config(master_seed=99)
        serial = run_experiment(cfg, threads=1)
        parallel = run_experiment(cfg, threads=2)
        assert serial.to_csv(include_timing=False) == \
            parallel.to_csv(include_timing=False)

    def test_pool_closed_when_a_worker_raises(self, monkeypatch):
        def broken(cfg):
            raise RuntimeError("generator failed")

        monkeypatch.setattr(bench, "gen_gaussian_instance", broken)
        with pytest.raises(RuntimeError, match="generator failed") as caught:
            run_experiment(tiny_config(), threads=2)
        # `caught` keeps run_experiment's frame alive, as a caller holding the
        # error does, so the pool must be closed by then, not by collection
        assert caught.value.args == ("generator failed",)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("gamma", [1.0, 1.5])
    @pytest.mark.parametrize("axioms", [("dc-mpjr+",), ("mpjr+",), ("mpjr+", "dc-mpjr+")])
    def test_rows_match_per_selection_reference(self, axioms, gamma):
        cfg = tiny_config(n_values=(10, 20), axioms=axioms, gamma=gamma)
        assert run_experiment(cfg, threads=1).to_csv(include_timing=False) == \
            reference_csv(cfg)

    def test_implication_check_reads_the_batch(self, monkeypatch):
        cfg = tiny_config(n_values=(20,), g_values=(2,))
        report = run_experiment(cfg, threads=1)
        assert report.rate(20, 2, "mpjr+") > 0 and report.rate(20, 2, "dc-mpjr+") < 1
        with monkeypatch.context() as patch:
            patch.setattr(bench, "_dc_verdicts",
                          lambda inst, sels, gamma: np.zeros(len(sels), dtype=bool))
            with pytest.raises(AssertionError, match="implication breach"):
                run_experiment(cfg, threads=1)
        monkeypatch.setattr(bench, "_smallk_verdicts",
                            lambda inst, sels, gamma: np.ones(len(sels), dtype=bool))
        with pytest.raises(AssertionError, match="implication breach"):
            run_experiment(cfg, threads=1)

    def test_smallk_cap_still_raises(self):
        cfg = tiny_config(n_values=(30,), g_values=(2,), k=25, instances_per_cell=1,
                          selections_per_instance=2)
        with pytest.raises(SizeError, match="k=25 exceeds exhaustive cap 24"):
            run_experiment(cfg, threads=1)
        with pytest.raises(SizeError, match="k=25 exceeds exhaustive cap 24"):
            run_experiment(cfg, threads=2)

    def test_csv_header(self):
        report = run_experiment(tiny_config(), threads=1)
        head = report.to_csv().splitlines()[0]
        assert head == "n,g,axiom,gamma,satisfied,total,rate,mean_ms,seed"

    def test_plot_data_blocks(self):
        report = run_experiment(tiny_config(), threads=1)
        text = report.plot_data()
        assert "# g=2" in text and "# g=3" in text
        assert "n\tdc-mpjr+\tmpjr+" in text


def test_smallk_batch_matches_audit(monkeypatch, rng):
    """``_smallk_verdicts`` gives ``verify_mpjr_plus_smallk``'s verdict on
    10,000+ audits: k from 1 to 7, gamma 1, 1.5, 3 and 0.7 (where a
    selected anchor's own intervals are not empty), the harness's
    Gaussian model with one to four clusters (g = 1 included), points on a
    4 x 4 integer grid (duplicates), uniform points, and n drawn freely, so
    mostly not a multiple of k.  Eight selections an instance share
    centers, and the k=7 cases reach the pruned exclusion-set search."""
    audits = violated = uneven = 0
    for it in range(1300):
        k = int(rng.integers(1, 8))
        n = int(rng.integers(k, 41))
        if it % 3 == 0:
            inst = gen_gaussian_instance(GaussianConfig(
                n=n, g=int(rng.integers(1, min(n, 4) + 1)), sigma=0.04, seed=it, k=k))
        else:
            m = int(rng.integers(k, 16))
            pts = (rng.integers(0, 4, (n + m, 2)).astype(float) if it % 3 == 1
                   else rng.random((n + m, 2)))
            inst = Instance.euclidean(pts[:n], pts[n:], k)
        gamma = (1.0, 1.5, 3.0, 0.7)[it // 3 % 4]
        sels = [sample_selection(inst.m, k, rng) for _ in range(8)]
        expect = [verify_mpjr_plus_smallk(inst, X, gamma).satisfied for X in sels]
        assert verify._smallk_verdicts(inst, sels, gamma).tolist() == expect, (it, sels)
        audits, violated = audits + len(sels), violated + expect.count(False)
        uneven += n % k != 0
    assert audits >= 10000 and 1000 <= violated <= audits - 1000 and uneven >= 500
    # one or two rows a size-0 chunk (900 entries a row), the driver handed
    # at most the cap's (selection, center, agent) reach entries a call, at
    # least one selection (120 entries a selection), and k = m with no
    # anchor left
    inst = gen_gaussian_instance(GaussianConfig(n=30, g=3, sigma=0.04, seed=7, k=4))
    sels = [sample_selection(inst.m, 4, rng) for _ in range(12)]
    expect = [verify_mpjr_plus_smallk(inst, X).satisfied for X in sels]
    real, calls = verify._smallk_hits, []
    monkeypatch.setattr(verify, "_smallk_hits",
                        lambda L, G, skip: calls.append(len(G)) or real(L, G, skip))
    for cap, sizes in ((1, [1] * 12), (360, [3] * 4), (2000, [12])):
        calls.clear()
        monkeypatch.setattr(verify, "_BOUND_ELEMS", cap)
        assert verify._smallk_verdicts(inst, sels, 1.0).tolist() == expect
        assert calls == sizes
    assert 0 < expect.count(False) < len(sels)
    full = Instance.euclidean(rng.random((5, 2)), rng.random((3, 2)), 3)
    assert verify._smallk_verdicts(full, [(0, 1, 2)] * 2, 1.0).tolist() == [True, True]


@pytest.mark.parametrize("gamma", [1.0, 1.5])
@pytest.mark.parametrize("batch, audit", [("_smallk_verdicts", verify_mpjr_plus_smallk),
                                          ("_dc_verdicts", verify_dc_mpjr_plus)],
                         ids=["smallk", "dc"])
def test_batch_reaches_only_used_centers(monkeypatch, rng, gamma, batch, audit):
    """Each experiment batch runs ``_reach_radius`` once, on the rows of the
    centers its selections use (``_batch_rows``), and keeps the single
    audits' verdicts."""
    real, rows = verify._reach_radius, []
    monkeypatch.setattr(verify, "_reach_radius",
                        lambda v, g, e: rows.append(len(v)) or real(v, g, e))
    for seed in range(6):
        inst = gen_gaussian_instance(GaussianConfig(n=40, g=3, sigma=0.05, seed=seed, k=4))
        sels = [sample_selection(inst.m, 4, rng) for _ in range(5)]
        rows.clear()
        got = getattr(verify, batch)(inst, sels, gamma).tolist()
        assert rows == [len(set().union(*sels))] and rows[0] < inst.m
        with monkeypatch.context() as patch:
            patch.setattr(verify, "_reach_radius", real)
            assert got == [audit(inst, X, gamma).satisfied for X in sels]
