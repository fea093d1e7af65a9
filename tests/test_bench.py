import multiprocessing

import pytest

from propaudit import ConfigError, ExperimentConfig, bench, run_experiment


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

    def test_csv_header(self):
        report = run_experiment(tiny_config(), threads=1)
        head = report.to_csv().splitlines()[0]
        assert head == "n,g,axiom,gamma,satisfied,total,rate,mean_ms,seed"

    def test_plot_data_blocks(self):
        report = run_experiment(tiny_config(), threads=1)
        text = report.plot_data()
        assert "# g=2" in text and "# g=3" in text
        assert "n\tdc-mpjr+\tmpjr+" in text
