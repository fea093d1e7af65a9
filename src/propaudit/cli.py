"""Command-line entry point.

Thin adapters only: every subcommand parses arguments, delegates to the
library, and serializes the result.  Audit exit codes are 0 when the
axiom is satisfied, 1 on a violation, and 2 on any input or usage error,
so shell pipelines can gate on proportionality.  The ``propaudit``
command (``console_main``) exits 3, with the traceback on stderr, when
any other exception escapes ``main``: a crash is never read as a verdict.

``main`` builds its parser (``build_parser``) on its first call and reads
every later command line with the same one, so a process that calls it
many times (a test suite, a benchmark, a script) builds it once.

At import the module loads only ``core``, ``verify`` and ``sear``, all
that ``audit`` and ``sear`` run.  Every other command imports its own
modules when it runs: ``generate`` ``gen`` (the two incomparability
fixtures also ``approval`` and ``embedding``), ``experiment`` ``bench``,
``baseline`` ``baselines``, ``embed`` ``approval`` and ``embedding``, and
``audit --axiom mpjr-oracle`` ``oracle``.  The audit and SEAR entry
points stay names of this module, where a caller (a test, a tracer) can
replace them.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import re
import sys
import time
import traceback
from collections.abc import Iterator

from .core import (ConfigError, InfeasibleLevel, InputError, SizeError,
                   UnsupportedBackend, Instance, check_eps, check_gamma,
                   dump_instance, load_instance, read_json, validate_metric)
from .sear import run_sear
from .verify import (_dc_witnesses, verify_dc_mpjr_plus, verify_fixed_ell_dc,
                     verify_mpjr_plus_smallk)

AUDIT_AXIOMS = ("dc-mpjr+", "mpjr+", "mpjr-oracle", "fixed-ell-dc")
# flag -> (default, the choices that read it): off its default for any
# other choice, a flag is an input error (``_check_flags``)
_AXIOM_FLAGS = {"gamma": (1.0, ("dc-mpjr+", "mpjr+", "fixed-ell-dc")),
                "eps": (0.0, ("dc-mpjr+", "mpjr+", "fixed-ell-dc")),
                "ell": (None, ("fixed-ell-dc",)),
                "max_k": (24, ("mpjr+",)),
                "max_agents": (16, ("mpjr-oracle",)),
                "all_witnesses": (False, ("dc-mpjr+",))}
_KIND_FLAGS = {flag: (default, ("gaussian",)) for flag, default in
               (("n", None), ("g", None), ("sigma", 0.04), ("seed", 0), ("k", 5))}


def _check_flags(args, table, choice):
    """Reject each flag of `table` off its default that `--choice` does not read."""
    value = getattr(args, choice)
    for flag, (default, readers) in table.items():
        if value not in readers and getattr(args, flag) != default:
            raise InputError(f"--{flag.replace('_', '-')} does not apply to "
                             f"--{choice} {value}")


def _strict(kind, body):
    """An argparse type: `kind` of a text that is `body`, with an optional
    sign and spaces around it, in ASCII alone, else ValueError."""
    pattern = re.compile(rf"\s*[+-]?(?:{body})\s*", re.ASCII | re.IGNORECASE)

    def read(text):
        if not pattern.fullmatch(text):
            raise ValueError(f"{text!r} is not an ASCII {kind.__name__}")
        return kind(text)
    read.__name__ = kind.__name__       # argparse says "invalid int value"
    return read


# int() and float() also read digit-group underscores and other scripts'
# digits: "1_0" as 10 and "\u0661" (Arabic-Indic one) as 1
_int = _strict(int, r"\d+")
_float = _strict(float, r"(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?|inf(?:inity)?|nan")


def _int_list(flag, text) -> tuple:
    """The comma-separated integers of `text`; an empty entry is an error."""
    try:
        return tuple(_int(tok) for tok in text.split(","))
    except ValueError:
        raise InputError(f"{flag} {text!r} is not a list of integers") from None


def _read_selection(args) -> tuple:
    if args.selection is not None and args.selection_file is not None:
        raise InputError("give --selection or --selection-file, not both")
    if args.selection_file:
        raw = read_json(args.selection_file)
        if isinstance(raw, dict):
            if "selection" not in raw:
                raise InputError(f"{args.selection_file} has no \"selection\" key")
            raw = raw["selection"]
    elif args.selection:
        raw = list(_int_list("--selection", args.selection))
    else:
        raise InputError("provide --selection or --selection-file")
    if not (isinstance(raw, list) and all(type(c) is int for c in raw)):
        raise InputError(f"selection {raw!r} is not a list of integers")
    return tuple(raw)


def _write(text, out=None):
    _write_chunks((text,), out)


def _write_chunks(chunks, out=None):
    if out:
        with open(out, "w") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _text(obj, pad) -> str:
    """``json.dumps(obj, indent=2)`` for a line indented by `pad`.  A
    list of ints, such as a witness's coalition, is json's one-line text
    with a line break after each comma: its C encoder writes the entries
    as the pure-Python indenting one does, several times as fast, and that
    one took most of an --all-witnesses run.  The check on the text keeps
    the shortcut to flat lists of numbers, bools and nulls."""
    if isinstance(obj, list) and obj and type(obj[0]) is int:
        text = json.dumps(obj)
        if '"' not in text and "{" not in text and text.count("[") == 1:
            inner = pad + "  "
            return f"[\n{inner}" + text[1:-1].replace(", ", f",\n{inner}") + f"\n{pad}]"
    if isinstance(obj, (dict, list, tuple)):
        return json.dumps(obj, indent=2).replace("\n", "\n" + pad)
    return json.dumps(obj)


def _json(obj, pad=""):
    """``_text(obj, pad)`` in pieces, with each iterator in `obj` written
    as a list: a dict a key at a time, and an iterator as it yields, so
    none is held."""
    if isinstance(obj, dict):
        items, ends = ((f"{json.dumps(key)}: ", val) for key, val in obj.items()), "{}"
    elif isinstance(obj, Iterator):
        items, ends = (("", val) for val in obj), "[]"
    else:
        yield _text(obj, pad)
        return
    inner = pad + "  "
    sep = f"{ends[0]}\n{inner}"
    for head, val in items:
        yield sep + head
        if isinstance(val, (dict, Iterator)):
            yield from _json(val, inner)
        else:
            yield _text(val, inner)
        sep = ",\n" + inner
    yield ends if sep[0] == ends[0] else f"\n{pad}{ends[1]}"


def _emit(obj, out=None):
    """Write ``json.dumps(obj, indent=2)`` and a newline: ``_json``'s
    pieces joined 256 at a time, the first join made before `out` is
    opened, so that output of one join (any but a long witness list) that
    fails to build leaves no file."""
    pieces = itertools.chain(_json(obj), "\n")
    batches = iter(lambda: "".join(itertools.islice(pieces, 256)), "")
    _write_chunks(itertools.chain((next(batches),), batches), out)


def _cmd_audit(args) -> int:
    check_gamma(args.gamma)
    check_eps(args.eps)
    _check_flags(args, _AXIOM_FLAGS, "axiom")
    if args.all_witnesses and args.format != "json":
        raise InputError("--all-witnesses writes JSON only")
    instance = load_instance(args.instance)
    selection = _read_selection(args)
    if args.axiom == "dc-mpjr+":
        if args.all_witnesses:
            wits = _dc_witnesses(instance, selection, args.gamma, args.eps)
            # the first witness is taken before --out is opened, so an input
            # error leaves no file
            first = next(wits, None)
            listed = itertools.chain(() if first is None else (first,), wits)
            _emit({"axiom": "dc-mpjr+", "gamma": args.gamma, "satisfied": first is None,
                   "witnesses": (w.to_dict() for w in listed)}, args.out)
            return 0 if first is None else 1
        verdict = verify_dc_mpjr_plus(instance, selection, args.gamma, args.eps)
    elif args.axiom == "mpjr+":
        verdict = verify_mpjr_plus_smallk(instance, selection, args.gamma,
                                          max_k=args.max_k, eps=args.eps)
    elif args.axiom == "mpjr-oracle":
        from .oracle import oracle_mpjr
        verdict = oracle_mpjr(instance, selection, max_agents=args.max_agents)
    elif args.axiom == "fixed-ell-dc":
        if args.ell is None:
            raise InputError("--ell is required for fixed-ell-dc")
        verdict = verify_fixed_ell_dc(instance, selection, args.ell, args.gamma,
                                      args.eps)
    else:
        raise InputError(f"unknown axiom {args.axiom!r}")
    if args.format == "json":
        _emit(verdict.to_dict(), args.out)
    else:
        wit = verdict.witness
        extra = ""
        if wit is not None:
            extra = (f" (center={wit.center}, level={wit.level},"
                     f" radius={wit.radius})")
        _write(f"{verdict.axiom} gamma={verdict.gamma}: {verdict.status}{extra}\n",
               args.out)
    return 0 if verdict.satisfied else 1


def _cmd_sear(args) -> int:
    result = run_sear(load_instance(args.instance))
    _emit(result.to_dict(), args.out)
    return 0


def _cmd_generate(args) -> int:
    from . import gen
    _check_flags(args, _KIND_FLAGS, "kind")
    if args.kind == "gaussian":
        if args.n is None or args.g is None:
            raise InputError("gaussian generation needs --n and --g")
        cfg = gen.GaussianConfig(n=args.n, g=args.g, sigma=args.sigma,
                                 seed=args.seed, k=args.k)
        instance, selection = gen.gen_gaussian_instance(cfg), None
    elif args.kind in ("prop3-1", "prop3-2"):
        instance, selection = gen.fixture_incomparability(int(args.kind[-1]))
    elif args.kind == "fig2":
        instance, selection = gen.fixture_objective_failure(), None
    else:
        raise InputError(f"unknown kind {args.kind!r}")
    if args.out:
        dump_instance(instance, args.out)
    else:
        _emit(instance.to_dict())
    summary = {"kind": args.kind, "out": args.out,
               "selection": list(selection) if selection else None}
    if args.out:
        _emit(summary)
    return 0


def _cmd_experiment(args) -> int:
    from . import bench
    cfg = bench.ExperimentConfig(
        n_values=_int_list("--n-values", args.n_values),
        g_values=_int_list("--g-values", args.g_values),
        instances_per_cell=args.instances,
        selections_per_instance=args.selections,
        k=args.k, sigma=args.sigma, master_seed=args.seed,
        axioms=tuple(args.axioms.split(",")), gamma=args.gamma)
    progress = None
    if args.verbose:
        start = time.perf_counter()

        def progress(done, total):
            elapsed = time.perf_counter() - start
            print(f"{done}/{total} instances audited, {elapsed:.1f} s elapsed, "
                  f"{done / elapsed:.2f} instances/s, "
                  f"{done * cfg.selections_per_instance / elapsed:.1f} selections/s, "
                  f"ETA {elapsed * (total - done) / done:.1f} s", file=sys.stderr)
    report = bench.run_experiment(cfg, threads=args.threads, progress=progress)
    _write(report.plot_data() if args.plot_data else report.to_csv(), args.out)
    return 0


def _cmd_baseline(args) -> int:
    from .baselines import (kmeans_cost, kmeans_lloyd_snapped, kmedian_cost,
                            kmedian_exhaustive, kmedian_local_search)
    if args.restarts < 1:
        raise InputError(f"--restarts must be >= 1, got {args.restarts}")
    if args.exhaustive and (args.objective, args.restarts, args.seed) != ("kmedian", 1, 0):
        raise InputError("--exhaustive takes --objective kmedian, no --restarts or --seed")
    instance = load_instance(args.instance)
    objective = kmedian_cost if args.objective == "kmedian" else kmeans_cost
    best, best_cost = None, None
    for restart in range(args.restarts):
        seed = args.seed + restart
        if args.exhaustive:
            sel = kmedian_exhaustive(instance)
        elif args.objective == "kmedian":
            sel = kmedian_local_search(instance, seed)
        else:
            sel = kmeans_lloyd_snapped(instance, seed)
        cost = objective(instance, sel)
        if best_cost is None or cost < best_cost:
            best, best_cost = sel, cost
    _emit({"objective": args.objective, "selection": list(best),
           "cost": best_cost}, args.out)
    return 0


def _cmd_embed(args) -> int:
    from .approval import ApprovalInstance
    from .embedding import embed_approval
    embedded = embed_approval(ApprovalInstance.from_dict(read_json(args.approval)))
    if args.out:
        dump_instance(embedded, args.out)
    else:
        _emit(embedded.to_dict())
    return 0


def _cmd_validate(args) -> int:
    check = validate_metric(load_instance(args.instance), check_triangle=args.triangle)
    _emit({"ok": check.ok, "violation": check.violation,
           "points": list(check.points) if check.points else None}, args.out)
    return 0 if check.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="propaudit",
        description="Audit center selections for proportional representation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("audit", help="verify a selection under one axiom")
    p.add_argument("instance")
    p.add_argument("--selection", help="comma-separated candidate indices")
    p.add_argument("--selection-file", help="JSON file with a selection array")
    p.add_argument("--axiom", choices=AUDIT_AXIOMS, default="dc-mpjr+")
    p.add_argument("--gamma", type=_float, default=_AXIOM_FLAGS["gamma"][0])
    p.add_argument("--ell", type=_int, default=None)
    p.add_argument("--eps", type=_float, default=_AXIOM_FLAGS["eps"][0])
    p.add_argument("--max-k", type=_int, default=_AXIOM_FLAGS["max_k"][0])
    p.add_argument("--max-agents", type=_int, default=_AXIOM_FLAGS["max_agents"][0])
    p.add_argument("--all-witnesses", action="store_true",
                   help="list every violating (center, level, radius) (dc-mpjr+, JSON)")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("sear", help="compute a proportional selection")
    p.add_argument("instance")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sear)

    p = sub.add_parser("generate", help="emit a benchmark instance")
    p.add_argument("--kind", choices=("gaussian", "prop3-1", "prop3-2", "fig2"),
                   required=True)
    p.add_argument("--n", type=_int, default=_KIND_FLAGS["n"][0])
    p.add_argument("--g", type=_int, default=_KIND_FLAGS["g"][0])
    p.add_argument("--sigma", type=_float, default=_KIND_FLAGS["sigma"][0])
    p.add_argument("--seed", type=_int, default=_KIND_FLAGS["seed"][0])
    p.add_argument("--k", type=_int, default=_KIND_FLAGS["k"][0])
    p.add_argument("--out")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("experiment", help="run the satisfaction-rate grid")
    p.add_argument("--n-values", default="20,50,80,100")
    p.add_argument("--g-values", default="4,5,6")
    p.add_argument("--instances", type=_int, default=50)
    p.add_argument("--selections", type=_int, default=1000)
    p.add_argument("--k", type=_int, default=5)
    p.add_argument("--sigma", type=_float, default=0.04)
    p.add_argument("--seed", type=_int, default=0)
    p.add_argument("--axioms", default="mpjr+,dc-mpjr+")
    p.add_argument("--gamma", type=_float, default=1.0)
    p.add_argument("--threads", type=_int, default=None)
    p.add_argument("--plot-data", action="store_true")
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("baseline", help="objective-driven selections")
    p.add_argument("instance")
    p.add_argument("--objective", choices=("kmedian", "kmeans"), default="kmedian")
    p.add_argument("--restarts", type=_int, default=1)
    p.add_argument("--seed", type=_int, default=0)
    p.add_argument("--exhaustive", action="store_true",
                   help="global k-median optimum (kmedian, one run)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("embed", help="approval profile to explicit metric instance")
    p.add_argument("approval")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("validate", help="check metric axioms of an instance")
    p.add_argument("instance")
    p.add_argument("--triangle", action="store_true",
                   help="include the cubic triangle-inequality scan")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_validate)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reads every command line with, built on first use."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, SizeError, InfeasibleLevel, UnsupportedBackend,
            ConfigError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main(argv=None) -> int:
    """``main``, but an exception that escapes it prints its traceback to
    stderr and gives exit code 3."""
    try:
        return main(argv)
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(console_main())
