import json
import time
from collections import Counter

import numpy as np
import pytest

from propaudit import (ConfigError, GaussianConfig, Instance,
                       fixture_incomparability, fixture_objective_failure,
                       gen_gaussian_instance, sample_selection,
                       validate_metric)
from propaudit.gen import box_muller, reseed, substream


class TestGaussianModel:
    def test_shape_and_balanced_clusters(self):
        cfg = GaussianConfig(n=20, g=4, sigma=0.0, seed=5, k=5)
        inst = gen_gaussian_instance(cfg)
        assert inst.n == 20 and inst.m == 20 and inst.k == 5
        # sigma = 0 puts agents exactly on their latent centers
        pts = [tuple(p) for p in inst.to_dict()["agents"]]
        sizes = sorted(Counter(pts).values())
        assert sizes == [5, 5, 5, 5]

    def test_cluster_sizes_differ_by_at_most_one(self):
        cfg = GaussianConfig(n=23, g=4, sigma=0.0, seed=5, k=5)
        pts = [tuple(p) for p in gen_gaussian_instance(cfg).to_dict()["agents"]]
        sizes = sorted(Counter(pts).values())
        assert max(sizes) - min(sizes) <= 1 and sum(sizes) == 23

    def test_byte_identical_per_seed(self):
        cfg = GaussianConfig(n=20, g=4, sigma=0.04, seed=77, k=5)
        a = json.dumps(gen_gaussian_instance(cfg).to_dict())
        b = json.dumps(gen_gaussian_instance(cfg).to_dict())
        assert a == b
        other = GaussianConfig(n=20, g=4, sigma=0.04, seed=78, k=5)
        assert a != json.dumps(gen_gaussian_instance(other).to_dict())

    def test_all_coordinates_finite(self):
        cfg = GaussianConfig(n=100, g=6, sigma=0.04, seed=1, k=5)
        inst = gen_gaussian_instance(cfg)
        assert np.isfinite(inst.dists()).all()

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            GaussianConfig(n=3, g=4, sigma=0.04, seed=1, k=1)
        with pytest.raises(ConfigError):
            GaussianConfig(n=5, g=2, sigma=-0.1, seed=1, k=1)

    @pytest.mark.parametrize("change", [
        {"n": 10.5}, {"n": 10.0}, {"g": 2.5}, {"g": True}, {"k": 2.0}, {"k": "2"},
        {"sigma": float("nan")}, {"sigma": float("inf")}, {"sigma": "0.1"},
        {"seed": 1.5}, {"seed": 1.0}, {"seed": True}, {"seed": "1"},
    ])
    def test_config_rejects_non_integer_sizes_and_bad_sigma(self, change):
        with pytest.raises(ConfigError):
            GaussianConfig(**dict(dict(n=10, g=2, sigma=0.04, seed=1, k=2), **change))

    def test_box_muller_moments(self):
        z = box_muller(substream(9, "bm"), 200_000)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01


class TestFixtures:
    def test_instance1_distance_table(self):
        inst, X = fixture_incomparability(1)
        assert X == (2, 3, 4)
        close = [{0, 1, 2}] * 4 + [{0, 1, 3}, {0, 1, 4}]
        D = inst.dists()
        for i in range(6):
            for c in range(5):
                assert D[i, c] == (1.0 if c in close[i] else 2.0)

    def test_instance2_distance_table(self):
        inst, X = fixture_incomparability(2)
        assert X == (1, 2, 3)
        close = [{0, 1}] * 3 + [{0}, {2}, {3}]
        D = inst.dists()
        for i in range(6):
            for c in range(4):
                assert D[i, c] == (1.0 if c in close[i] else 2.0)

    def test_fixtures_are_metrics(self):
        for which in (1, 2):
            inst, _ = fixture_incomparability(which)
            assert validate_metric(inst, check_triangle=True).ok

    def test_objective_failure_scale_ordering(self):
        inst = fixture_objective_failure()
        assert inst.n == 30 and inst.m == 5 and inst.k == 3
        cands = np.asarray(inst.to_dict()["candidates"]).ravel()
        agents = np.asarray(inst.to_dict()["agents"]).ravel()
        compact = agents[agents < 100]
        b_region = agents[agents >= 100]
        assert len(compact) == 20 and len(b_region) == 10
        separation = b_region.min() - compact.max()
        spread = b_region.max() - b_region.min()
        diameter = max(compact.max() - compact.min(),
                       cands[cands < 100].max() - cands[cands < 100].min())
        assert separation >= 10 * spread >= 100 * diameter


class TestSelectionSampling:
    def test_full_set_when_k_equals_m(self):
        assert sample_selection(4, 4, 123) == (0, 1, 2, 3)

    def test_seed_determinism(self):
        assert sample_selection(10, 3, 5) == sample_selection(10, 3, 5)
        assert sample_selection(10, 3, 5) != sample_selection(10, 3, 6)

    def test_uniformity_chi_square(self):
        gen = substream(2024, "uniformity")
        counts = Counter(sample_selection(6, 3, gen) for _ in range(100_000))
        assert len(counts) == 20
        for subset, c in counts.items():
            assert abs(c / 100_000 - 0.05) <= 0.005, subset

    def test_k_larger_than_m_rejected(self):
        with pytest.raises(ConfigError):
            sample_selection(3, 4, 0)

    @pytest.mark.parametrize("k", [-1, 2.0, 1.5, True, "2"])
    def test_bad_k_rejected(self, k):
        with pytest.raises(ConfigError):
            sample_selection(5, k, 0)

    @pytest.mark.parametrize("seed", [1.5, 1.0, True, "1", None])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ConfigError):
            sample_selection(10, 3, seed)
        with pytest.raises(ConfigError):
            substream(seed, "selection")

    def test_empty_selection(self):
        assert sample_selection(5, 0, 0) == ()

    @pytest.mark.parametrize("m", [True, 5.0, "5", None])
    def test_non_integer_m_rejected(self, m):
        with pytest.raises(ConfigError, match="m must be an integer"):
            sample_selection(m, 1, 0)

    def test_huge_m_costs_only_k(self):
        """At m = 2^40 the draw holds only the moved positions: k distinct
        indices in milliseconds, those of the swap rule applied to the same
        stream's draws."""
        m, k = 2 ** 40, 25
        start = time.perf_counter()
        got = sample_selection(m, k, substream(3, "huge"))
        assert time.perf_counter() - start < 1.0
        draws = substream(3, "huge").integers(0, np.arange(m, m - k, -1)).tolist()
        # the shuffle on a list of the positions it touches
        touched = sorted(set(range(k)) | {i + d for i, d in enumerate(draws)})
        slot = {p: j for j, p in enumerate(touched)}
        idx = list(touched)
        for i, d in enumerate(draws):
            a, b = slot[i], slot[i + d]
            idx[a], idx[b] = idx[b], idx[a]
        assert got == tuple(sorted(idx[:k]))
        assert len(set(got)) == k and all(0 <= x < m for x in got)

    def test_m_past_int64_draws_rejected(self):
        """m = 2^63 is the largest m the int64 draws cover: it keeps its
        draws; one past it, and far past it, is a ConfigError."""
        got = sample_selection(2 ** 63, 2, 0)
        assert got == (5010179074970479715, 6795470815888760609)
        assert sample_selection(2 ** 63, 1, 0) == (6795470815888760609,)
        for m in (2 ** 63 + 1, 2 ** 64 - 1, 2 ** 70):
            with pytest.raises(ConfigError, match="int64"):
                sample_selection(m, 2, 0)
        assert sample_selection(2 ** 70, 0, 0) == ()


def scalar_draw_selection(m, k, gen):
    """Partial Fisher-Yates shuffle with one scalar draw a swap: the
    reference ``sample_selection``'s one array-bound draw must match."""
    idx = list(range(m))
    for i in range(k):
        j = i + int(gen.integers(0, m - i))
        idx[i], idx[j] = idx[j], idx[i]
    return tuple(sorted(idx[:k]))


def test_reseeded_sampler_matches_fresh_streams(rng):
    """One generator, reseeded per case and left with buffered 32-bit
    draws by the case before, gives the selection of a fresh ``substream``
    drawn one scalar at a time, on 12,000 (seed, m, k) cases with k = 0
    and k = m among them; both generators' next draws agree after it."""
    gen = substream(0, "reused")
    edges = 0
    for case in range(12_000):
        seed = int(rng.integers(-2**40, 2**62))
        m = int(rng.integers(1, 120 if case % 50 else 5000))
        k = (0, m, int(rng.integers(0, min(m, 30) + 1)))[case % 3]
        edges += k in (0, m)
        path = ("selection", m, k, case)
        got = sample_selection(m, k, reseed(gen, seed, *path))
        fresh = substream(seed, *path)
        assert got == scalar_draw_selection(m, k, fresh) == \
            sample_selection(m, k, substream(seed, *path)), (seed, m, k)
        assert gen.integers(0, 1000) == fresh.integers(0, 1000)
        assert gen.random() == fresh.random()
        gen.integers(0, 7, size=int(rng.integers(0, 3)))    # half-used 64-bit words
    assert edges >= 8000


def test_reseed_restarts_every_stream():
    gen = substream(1, "a")
    first = gen.random(5)
    assert (reseed(gen, 1, "a").random(5) == first).all()
    assert (reseed(gen, 2, "b").random(5) == substream(2, "b").random(5)).all()
    with pytest.raises(ConfigError):
        reseed(gen, 1.5, "a")
