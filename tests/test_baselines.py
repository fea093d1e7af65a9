import warnings

import numpy as np
import pytest

from propaudit import (InputError, Instance, SizeError, UnsupportedBackend,
                       baselines, kmeans_cost, kmedian_cost, kmedian_exhaustive,
                       kmedian_local_search, kmeans_lloyd_snapped,
                       verify_dc_mpjr_plus, verify_mpjr_plus_smallk)
from propaudit.gen import (GaussianConfig, fixture_incomparability,
                           fixture_objective_failure, gen_gaussian_instance)

from conftest import random_euclidean


class TestKMedian:
    def test_fixture_optimum(self):
        inst = fixture_objective_failure()
        assert kmedian_exhaustive(inst) == (0, 3, 4)         # {a0, b1, b2}

    def test_exhaustive_cap(self, rng):
        inst = random_euclidean(rng, 3, baselines._MAX_CANDIDATES + 1, 2)
        with pytest.raises(SizeError):
            kmedian_exhaustive(inst)

    def test_single_candidate(self):
        inst = Instance.euclidean([[0.0], [2.0]], [[1.0]], 1)
        assert kmedian_local_search(inst, seed=3) == (0,)

    def test_local_search_never_beats_exhaustive(self, rng):
        for trial in range(25):
            inst = random_euclidean(rng, int(rng.integers(2, 9)),
                                    int(rng.integers(2, 7)),
                                    int(rng.integers(1, 4)))
            if inst.k > inst.m:
                continue
            opt = kmedian_exhaustive(inst)
            local = kmedian_local_search(inst, seed=trial)
            assert kmedian_cost(inst, local) >= kmedian_cost(inst, opt) - 1e-12

    def test_bad_selections_rejected(self, rng):
        inst = random_euclidean(rng, 6, 5, 3)
        # a negative index would wrap to m-1; floats would be truncated
        for sel in ((-1, 0, 1), (0, 1, 5), (0.9, 1.2, 2), (0, 0, 1), (0, 1)):
            for cost in (kmedian_cost, kmeans_cost):
                with pytest.raises(InputError):
                    cost(inst, sel)
            with pytest.raises(InputError):
                kmedian_local_search(inst, seed=0, start=sel)

    def test_started_from_optimum_stays(self, rng):
        for trial in range(15):
            inst = random_euclidean(rng, 6, 5, 2)
            opt = kmedian_exhaustive(inst)
            assert kmedian_local_search(inst, seed=trial, start=opt) == opt

    def test_local_optimum_has_no_improving_swap(self, rng):
        inst = random_euclidean(rng, 8, 6, 3)
        local = kmedian_local_search(inst, seed=9)
        base = kmedian_cost(inst, local)
        for x in local:
            for c in range(inst.m):
                if c in local:
                    continue
                trial = tuple(sorted(set(local) - {x} | {c}))
                assert kmedian_cost(inst, trial) >= base - 1e-12


class TestKMeansSnapped:
    def test_fixture_violating_run(self):
        inst = fixture_objective_failure()
        sel = kmeans_lloyd_snapped(inst, seed=6)
        assert sel == (0, 3, 4)
        assert not verify_dc_mpjr_plus(inst, sel).satisfied

    def test_point_mass(self):
        inst = Instance.euclidean([[1.0, 1.0]] * 3, [[1.0, 1.0]], 1)
        assert kmeans_lloyd_snapped(inst, seed=0) == (0,)

    def test_zero_noise_clusters_reach_zero_cost(self):
        cfg = GaussianConfig(n=20, g=4, sigma=0.0, seed=31, k=4)
        inst = gen_gaussian_instance(cfg)
        sel = kmeans_lloyd_snapped(inst, seed=1)
        D2 = (inst.dists()[:, sorted(sel)] ** 2).min(axis=1)
        assert D2.sum() == 0.0

    def test_explicit_backend_rejected(self):
        inst, _ = fixture_incomparability(1)
        with pytest.raises(UnsupportedBackend):
            kmeans_lloyd_snapped(inst, seed=0)

    def test_cost_overflow_rejected(self):
        # each squared distance is about 1e308; their sum is not finite
        inst = Instance.euclidean([[1e154, 0.0], [-1e154, 0.0]], [[0.0, 0.0], [1.0, 0.0]], 1)
        assert kmedian_cost(inst, (0,)) == 2e154
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="overflows"):
                kmeans_cost(inst, (0,))

    def test_kmedian_overflow_rejected(self):
        # each distance is finite; both subsets' sums are not
        far = 1e308
        inst = Instance.explicit([[0, 0, far, far], [0, 0, far, far],
                                  [far, far, 0, 0], [far, far, 0, 0]], 2, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="k-median cost overflows"):
                kmedian_cost(inst, (0,))
            with pytest.raises(InputError, match="every k-median cost overflows"):
                kmedian_exhaustive(inst)
            assert kmedian_local_search(inst, seed=0) in ((0,), (1,))


class TestObjectiveFailureStory:
    def test_optimum_fails_both_audits_good_selection_passes(self):
        inst = fixture_objective_failure()
        opt = kmedian_exhaustive(inst)
        assert not verify_dc_mpjr_plus(inst, opt).satisfied
        assert not verify_mpjr_plus_smallk(inst, opt).satisfied
        good = (1, 2, 3)                                     # {a1, a2, b1}
        assert verify_dc_mpjr_plus(inst, good).satisfied
        assert verify_mpjr_plus_smallk(inst, good).satisfied
