"""Satisfaction-rate experiment over the synthetic Gaussian model.

For every (n, g) cell the harness generates instances, samples uniform
center selections, audits each under the configured axioms, and
aggregates satisfaction counts.  Work units are whole instances keyed by
(cell, instance index), and every random draw is reproducible from the
master seed alone, so results are identical no matter how the units are
scheduled across processes.  With ``threads=1`` they run in this
process, and ``concurrent.futures``' process pool (and with it
``multiprocessing``) is imported only when ``threads`` > 1.

Each instance's selections are drawn first, from one generator reset
to each selection's stream (``gen.reseed``), and its distance matrix is
computed once.  Their verdicts under each axiom come from one batch per
instance, which gathers its rows from that matrix:
``verify._smallk_verdicts`` for mpjr+, which builds the anchor rows of
all candidates once and runs the small-k search driver
(``verify._smallk_hits``) on the selections together, as many a call as
fit in its fixed scratch budget, and
``verify._dc_verdicts`` for dc-mpjr+, which computes the
selection-independent coverage radii once.  So a row's
``mean_ms`` is, for either axiom, the batch wall times of its cell summed
and divided by its selections; drawing and the distance matrix are not
in it.  Neither batch builds a witness.

Inside the harness, every audited selection is also checked for the
axiom implication (anchored representation implies the default-coalition
audit); a counterexample aborts the run with the offending seeds, since
it can only mean a verifier bug.
"""

from __future__ import annotations

import hashlib
import os
import time
from collections.abc import Sequence
from contextlib import ExitStack
from dataclasses import dataclass

from .core import ConfigError, is_finite, is_int
from .gen import GaussianConfig, gen_gaussian_instance, reseed, sample_selection, substream
from .verify import _dc_verdicts, _smallk_verdicts
# not called here: perfbench's tracer wraps this name of the module
from .verify import verify_mpjr_plus_smallk  # noqa: F401

AXIOMS = ("mpjr+", "dc-mpjr+")


@dataclass(frozen=True)
class ExperimentConfig:
    n_values: tuple = (20, 50, 80, 100)
    g_values: tuple = (4, 5, 6)
    instances_per_cell: int = 50
    selections_per_instance: int = 1000
    k: int = 5
    sigma: float = 0.04
    master_seed: int = 0
    axioms: tuple = AXIOMS
    gamma: float = 1.0

    def __post_init__(self):
        for name, known, what in (("axioms", AXIOMS.__contains__, f"one of {AXIOMS}"),
                                  ("n_values", is_int, "integers"),
                                  ("g_values", is_int, "integers")):
            values = getattr(self, name)
            if not isinstance(values, Sequence):
                raise ConfigError(f"{name} must be a sequence, got {values!r}")
            bad = [v for v in values if not known(v)]
            if bad:
                raise ConfigError(f"{name} must hold {what}, got {bad}")
            if len(set(values)) != len(values):
                raise ConfigError(f"duplicate {name}: {list(values)}")
        if not is_int(self.master_seed):
            raise ConfigError(f"master_seed must be an integer, got {self.master_seed!r}")
        counts = (self.instances_per_cell, self.selections_per_instance)
        if not all(is_int(v) and v >= 1 for v in counts):
            raise ConfigError(f"instance and selection counts must be integers >= 1, "
                              f"got {counts}")
        if not self.n_values or not self.g_values:
            raise ConfigError("need at least one n and one g value")
        for n in self.n_values:             # n, g, k and sigma, cell by cell
            for g in self.g_values:
                GaussianConfig(n=n, g=g, sigma=self.sigma, seed=0, k=self.k)
        if not (is_finite(self.gamma) and self.gamma >= 1.0):
            raise ConfigError(f"gamma must be a finite number >= 1, got {self.gamma!r}")


@dataclass(frozen=True)
class ReportRow:
    """One (n, g, axiom) cell.  ``mean_ms`` is the audit wall time per
    selection: the cell's per-instance batch times for the axiom summed and
    divided by its selections (the distance matrix, shared by both
    batches, is computed before either)."""

    n: int
    g: int
    axiom: str
    gamma: float
    satisfied: int
    total: int
    rate: float
    mean_ms: float
    seed: int


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple
    master_seed: int

    def rate(self, n: int, g: int, axiom: str) -> float:
        for row in self.rows:
            if (row.n, row.g, row.axiom) == (n, g, axiom):
                return row.rate
        raise KeyError((n, g, axiom))

    def rates(self, axiom: str) -> list:
        return [row.rate for row in self.rows if row.axiom == axiom]

    def to_csv(self, include_timing: bool = True) -> str:
        # timing is wall-clock and not reproducible; drop it for byte
        # comparisons
        lines = ["n,g,axiom,gamma,satisfied,total,rate,mean_ms,seed"
                 if include_timing else "n,g,axiom,gamma,satisfied,total,rate,seed"]
        for r in self.rows:
            cells = [str(r.n), str(r.g), r.axiom, repr(r.gamma), str(r.satisfied),
                     str(r.total), repr(r.rate)]
            if include_timing:
                cells.append(f"{r.mean_ms:.4f}")
            cells.append(str(r.seed))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def plot_data(self) -> str:
        """Tab-separated per-cell bars, one block per g value."""
        axioms = sorted({r.axiom for r in self.rows})
        ns = sorted({r.n for r in self.rows})
        blocks = []
        for g in sorted({r.g for r in self.rows}):
            lines = [f"# g={g}", "\t".join(["n"] + axioms)]
            for n in ns:
                vals = [f"{self.rate(n, g, a):.4f}" for a in axioms]
                lines.append("\t".join([str(n)] + vals))
            blocks.append("\n".join(lines))
        return "\n\n".join(blocks) + "\n"


def _instance_seed(master: int, n: int, g: int, idx: int) -> int:
    digest = hashlib.sha256(repr((int(master), "instance", n, g, idx)).encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _audit_instance(task) -> tuple:
    """Audit one generated instance under all configured axioms.

    The selections are drawn first, selection j from the stream
    ``substream(master, "selection", n, g, idx, j)`` starts, by reseeding
    one generator.  Then the distance matrix is computed, and each
    axiom's verdicts for all of them come from one batch
    (``_smallk_verdicts``, ``_dc_verdicts``), whose wall time is the
    instance's time for that axiom.  Returns (n, g, per-axiom satisfied
    counts, per-axiom elapsed ms, audits performed).
    """
    (n, g, idx, k, sigma, master, axioms, gamma, selections) = task
    cfg = GaussianConfig(n=n, g=g, sigma=sigma, seed=_instance_seed(master, n, g, idx), k=k)
    inst = gen_gaussian_instance(cfg)
    gen = substream(master, "selection", n, g, idx)       # reseeded per selection
    picks = [sample_selection(inst.m, k, reseed(gen, master, "selection", n, g, idx, j))
             for j in range(selections)]
    inst.dists()
    verdicts, ms = {}, {}
    for axiom, batch in (("mpjr+", _smallk_verdicts), ("dc-mpjr+", _dc_verdicts)):
        if axiom in axioms:
            t0 = time.perf_counter()
            verdicts[axiom] = batch(inst, picks, gamma).tolist()
            ms[axiom] = (time.perf_counter() - t0) * 1000.0
    if len(verdicts) == 2:
        for j, (mp, dc) in enumerate(zip(verdicts["mpjr+"], verdicts["dc-mpjr+"])):
            if mp and not dc:
                raise AssertionError(
                    "implication breach: mpjr+ satisfied but dc-mpjr+ violated at "
                    f"master_seed={master} cell=({n},{g}) instance={idx} selection={j}")
    sat = {a: sum(v) for a, v in verdicts.items()}
    return n, g, sat, ms, selections


def run_experiment(cfg: ExperimentConfig, threads=None, progress=None) -> ExperimentReport:
    if threads is None:
        threads = os.cpu_count() or 1
    elif not is_int(threads) or threads < 1:
        raise ConfigError(f"threads must be an integer >= 1, got {threads!r}")
    tasks = [(n, g, i, cfg.k, cfg.sigma, cfg.master_seed, tuple(cfg.axioms),
              cfg.gamma, cfg.selections_per_instance)
             for n in cfg.n_values for g in cfg.g_values
             for i in range(cfg.instances_per_cell)]
    sat = {(n, g, a): 0 for n in cfg.n_values for g in cfg.g_values for a in cfg.axioms}
    ms = dict.fromkeys(sat, 0.0)
    total = dict.fromkeys(sat, 0)
    with ExitStack() as stack:
        if threads == 1:
            outcomes = map(_audit_instance, tasks)
        else:
            from concurrent.futures import ProcessPoolExecutor
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=threads))
            outcomes = pool.map(_audit_instance, tasks, chunksize=4)
        for done, (n, g, s, t, audits) in enumerate(outcomes, 1):
            for a in cfg.axioms:
                sat[(n, g, a)] += s[a]
                ms[(n, g, a)] += t[a]
                total[(n, g, a)] += audits
            if progress:
                progress(done, len(tasks))
    rows = []
    for n in cfg.n_values:
        for g in cfg.g_values:
            for a in sorted(cfg.axioms):
                key = (n, g, a)
                rows.append(ReportRow(n, g, a, cfg.gamma, sat[key], total[key],
                                      sat[key] / total[key], ms[key] / total[key],
                                      cfg.master_seed))
    return ExperimentReport(tuple(rows), cfg.master_seed)
