"""propaudit: verify and compute proportional representation for
centroid clustering."""

from .core import (EUCLIDEAN, EXPLICIT, ConfigError, InfeasibleLevel,
                   InputError, Instance, MetricCheck, SizeError,
                   UnsupportedBackend, Verdict, Witness, check_selection,
                   dump_instance, load_instance, validate_metric)
from .approval import (ApprovalInstance, BipartiteGraph, biclique_reduction,
                       find_balanced_biclique_bruteforce, pad_balanced,
                       verify_fixed_ell_pjr_plus_bruteforce,
                       verify_pjr_bruteforce, verify_pjr_plus_sweep)
from .embedding import embed_approval
from .verify import (dc_violations, verify_dc_mpjr_plus, verify_fixed_ell_dc,
                     verify_mpjr_plus_smallk)
from .oracle import (SubmodularReport, oracle_dc, oracle_mpjr,
                     oracle_mpjr_plus, oracle_mpjr_plus_fixed_ell,
                     submodular_min_check)
from .sear import SearResult, SearStep, run_sear
from .gen import (GaussianConfig, box_muller, fixture_incomparability,
                  fixture_objective_failure, gen_gaussian_instance,
                  sample_selection, substream)
from .baselines import (kmeans_cost, kmeans_lloyd_snapped, kmedian_cost,
                        kmedian_exhaustive, kmedian_local_search)
from .bench import ExperimentConfig, ExperimentReport, ReportRow, run_experiment

__version__ = "0.1.0"
