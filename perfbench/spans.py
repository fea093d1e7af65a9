"""Spans recorded around calls into the program's public names.

The tracer replaces a module or class attribute with a wrapper for the
duration of one traced op and restores it afterwards, so untraced ops run
the original code.  Spans are kept in memory as dicts with name, start,
end, parent (index of the enclosing span), op id and optional fields.
A name that no longer exists in the program is listed in `absent`.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import tracemalloc

# (module, attribute path, span name, record tracemalloc peak)
TARGETS = (
    ("propaudit.cli", "load_instance", "cli.load_instance", False),
    ("propaudit.cli", "verify_dc_mpjr_plus", "verify.dc", True),
    ("propaudit.cli", "verify_mpjr_plus_smallk", "verify.smallk", True),
    ("propaudit.cli", "run_sear", "sear.run_sear", True),
    ("propaudit.core", "Instance.dists", "core.dists", False),
    ("propaudit.core", "Verdict.to_dict", "cli.verdict_to_dict", False),
    ("propaudit.sear", "SearResult.to_dict", "cli.sear_to_dict", False),
    ("propaudit.bench", "gen_gaussian_instance", "gen.instance", False),
    ("propaudit.bench", "sample_selection", "gen.selection", False),
    ("propaudit.bench", "verify_mpjr_plus_smallk", "verify.smallk", True),
)


def _summary(args, result) -> dict:
    """Sizes of the instance argument and the verdict, for computed counts."""
    info = {}
    inst = args[0] if args else None
    if hasattr(inst, "n") and hasattr(inst, "m"):
        info.update(n=inst.n, m=inst.m, k=inst.k)
    if hasattr(result, "satisfied"):
        info["satisfied"] = bool(result.satisfied)
        if result.witness is not None:
            info["level"] = result.witness.level
            info["center"] = result.witness.center
    return info


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list = []
        self.absent: list = []
        self.memory = False       # record tracemalloc peaks in this op
        self._stack: list = []
        self._saved: list = []
        self._op = None

    def install(self) -> None:
        for module, path, name, peak in self.targets:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            try:
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                if name + ":" + path not in self.absent:
                    self.absent.append(name + ":" + path)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, peak))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def op(self, op_id, name, fn, *args):
        """Run fn(*args) as the root span of op `op_id`, with every target
        wrapped; tracemalloc runs for the whole op when `memory` is set."""
        self._op = op_id
        self.install()
        if self.memory:
            tracemalloc.start()
        try:
            return self._wrap(fn, name, False)(*args)
        finally:
            if self.memory:
                tracemalloc.stop()
            self.uninstall()
            self._op = None

    def _wrap(self, fn, name, peak):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": name, "op": self._op,
                    "parent": self._stack[-1] if self._stack else None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            measure = peak and self.memory
            if measure:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            span["start"] = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span["end"] = time.perf_counter()
                if measure:
                    span["peak_mb"] = (tracemalloc.get_traced_memory()[1] - base) / 1e6
                span.update(_summary(args, result))
                self._stack.pop()
        return wrapper

    def self_times(self) -> list:
        """Each span's duration minus the time its direct children cover."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def write(self, path) -> None:
        own = self.self_times()
        with open(path, "w") as fh:
            for s, t in zip(self.spans, own):
                fh.write(json.dumps(dict(s, self_s=t)) + "\n")
