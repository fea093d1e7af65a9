"""propaudit: verify and compute proportional representation for
centroid clustering.

``import propaudit`` imports none of its submodules.  Each exported name
is imported from its submodule in ``_EXPORTS`` on first access (a module
``__getattr__``, PEP 562), so a program loads only the modules it uses:
``propaudit.verify_dc_mpjr_plus`` loads ``core`` and ``verify``, and
``propaudit.run_experiment`` also ``bench`` and ``gen``.  Submodules are
attributes too (``propaudit.gen``).
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {name: module for module, names in {
    "core": """EUCLIDEAN EXPLICIT ConfigError InfeasibleLevel InputError Instance
               MetricCheck SizeError UnsupportedBackend Verdict Witness
               check_selection dump_instance load_instance validate_metric""",
    "approval": """ApprovalInstance BipartiteGraph biclique_reduction
                   find_balanced_biclique_bruteforce pad_balanced
                   verify_fixed_ell_pjr_plus_bruteforce verify_pjr_bruteforce
                   verify_pjr_plus_sweep""",
    "embedding": "embed_approval",
    "verify": """dc_violations verify_dc_mpjr_plus verify_fixed_ell_dc
                 verify_mpjr_plus_smallk""",
    "oracle": """SubmodularReport oracle_dc oracle_mpjr oracle_mpjr_plus
                 oracle_mpjr_plus_fixed_ell submodular_min_check""",
    "sear": "SearResult SearStep run_sear",
    "gen": """GaussianConfig box_muller fixture_incomparability
              fixture_objective_failure gen_gaussian_instance sample_selection
              substream""",
    "baselines": """kmeans_cost kmeans_lloyd_snapped kmedian_cost kmedian_exhaustive
                    kmedian_local_search""",
    "bench": "ExperimentConfig ExperimentReport ReportRow run_experiment",
}.items() for name in names.split()}
_MODULES = frozenset(_EXPORTS.values()) | {"cli"}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _MODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value             # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | _MODULES)
