"""Spans around the library's public functions, patched in from outside.

The library is not changed.  :func:`install` wraps each function listed
in ``TRACED`` and rebinds the wrapper under every name that held the
original, in every ``bisyncgames`` module and in the function's own
module, so calls through ``module.attr`` and through names imported
with ``from ... import`` are both seen.  Spans stay in memory as
``[name, parent, start, end, extra]`` lists; ``parent`` indexes the
enclosing span (-1 at top level).  This module imports only the
standard library, so a fresh interpreter can load it before timing the
import of ``bisyncgames``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name).  Functions sharing a span name form one
# layer metric; a span nested in another of the same name is not timed twice.
TRACED = (
    ("bisyncgames.densities", "local_bisync_membership", "densities.membership"),
    ("bisyncgames.densities", "local_sync_membership", "densities.membership"),
    ("bisyncgames.densities", "mixture_density", "densities.check"),
    ("bisyncgames.densities", "response_mixture_density", "densities.check"),
    ("bisyncgames.densities", "separation_margins", "densities.check"),
    ("bisyncgames.densities", "validate", "densities.validate"),
    ("scipy.optimize", "linprog", "highs.linprog"),
    ("scipy.optimize", "nnls", "highs.nnls"),
    ("bisyncgames.qperm", "verify_system", "qperm.verify"),
    ("bisyncgames.qperm", "commutation_subspace", "qperm.commutation"),
    ("bisyncgames.qperm", "fixed_pattern_basis", "qperm.pattern"),
    ("bisyncgames.qperm", "induced_density", "qperm.induced"),
    ("bisyncgames.cpmaps", "kraus_from_choi", "cpmaps.kraus"),
    ("bisyncgames.cpmaps", "fixed_point_set", "cpmaps.fixed_point"),
    ("bisyncgames.cpmaps", "channel_report", "cpmaps.channel_report"),
    ("bisyncgames.cpmaps", "is_schur_closed", "cpmaps.schur"),
    ("bisyncgames.linalg", "nullspace", "linalg.nullspace"),
    ("bisyncgames.linalg", "hermitian_eig", "linalg.eig"),
    ("bisyncgames.linalg", "joint_commutant", "linalg.commutant"),
    ("bisyncgames.linalg", "orthonormal_span", "linalg.span"),
    ("bisyncgames.linalg", "span_containment_residual", "linalg.span"),
    ("bisyncgames.serialize", "load_json", "serialize.load"),
    ("bisyncgames.serialize", "dump_json", "serialize.dump"),
)

# The workload each layer is measured on (README: "Per-layer metrics").
HOME = {
    "densities": "decide", "highs": "decide",
    "qperm": "fixpoints", "cpmaps": "fixpoints", "linalg": "fixpoints",
    "cli": "cli", "serialize": "cli",
}


def _linprog_extra(args, kwargs, result) -> dict:
    # One LP column per atom plus the slack variable t of the sup-norm LP.
    c = args[0] if args else kwargs["c"]
    return {"columns": len(c) - 1, "nit": int(result.nit)}


_EXTRA = {"highs.linprog": _linprog_extra}


class Tracer:
    """Collects spans from the wrapped functions of one process."""

    def __init__(self):
        self.spans: list = []
        self._open: list = []

    def wrap(self, name, func):
        extra = _EXTRA.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [name, self._open[-1] if self._open else -1,
                    time.perf_counter(), None, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._open.pop()
            if extra is not None:
                span[4] = extra(args, kwargs, result)
            return result

        return traced


def install(tracer: Tracer, prefixes=("",)) -> None:
    """Wrap every ``TRACED`` function whose span name starts with one of ``prefixes``."""
    for module_name, attr, name in TRACED:
        if not name.startswith(tuple(prefixes)):
            continue
        original = getattr(importlib.import_module(module_name), attr)
        wrapped = tracer.wrap(name, original)
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "") or ""
            if mod_name != module_name and not mod_name.startswith("bisyncgames"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def _has_ancestor(spans, span, names) -> bool:
    parent = span[1]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][1]
    return False


def layer_totals(spans) -> tuple[dict, Counter, dict]:
    """Per span name: outermost busy seconds, call count, and summed extras."""
    busy: dict = defaultdict(float)
    calls: Counter = Counter()
    extras: dict = defaultdict(float)
    for span in spans:
        name = span[0]
        calls[name] += 1
        if not _has_ancestor(spans, span, (name,)):
            busy[name] += span[3] - span[2]
        for key, value in (span[4] or {}).items():
            extras[f"{name}.{key}"] += value
    solver = ("highs.linprog", "highs.nnls")
    inside = sum(s[3] - s[2] for s in spans
                 if s[0] in solver and not _has_ancestor(spans, s, solver)
                 and _has_ancestor(spans, s, ("densities.membership",)))
    busy["densities.self"] = busy["densities.membership"] - inside
    return busy, calls, extras


def layer_metrics(spans, verdicts: int) -> dict:
    """Per-verdict layer metrics of the library layers (not the CLI process)."""
    busy, calls, extras = layer_totals(spans)

    def ms(name):
        return 1000.0 * busy[name] / verdicts

    def per(count):
        return count / verdicts

    return {
        "densities.membership_ms": ms("densities.membership"),
        "densities.self_ms": ms("densities.self"),
        "densities.check_ms": ms("densities.check"),
        "densities.validate_calls": per(calls["densities.validate"]),
        "highs.linprog_ms": ms("highs.linprog"),
        "highs.nnls_ms": ms("highs.nnls"),
        "highs.linprog_calls": per(calls["highs.linprog"]),
        "highs.columns": per(extras["highs.linprog.columns"]),
        "highs.iterations": per(extras["highs.linprog.nit"]),
        "qperm.verify_calls": per(calls["qperm.verify"]),
        "qperm.verify_ms": ms("qperm.verify"),
        "qperm.commutation_ms": ms("qperm.commutation"),
        "qperm.pattern_ms": ms("qperm.pattern"),
        "qperm.induced_ms": ms("qperm.induced"),
        "cpmaps.kraus_calls": per(calls["cpmaps.kraus"]),
        "cpmaps.kraus_ms": ms("cpmaps.kraus"),
        "cpmaps.fixed_point_ms": ms("cpmaps.fixed_point"),
        "cpmaps.channel_report_ms": ms("cpmaps.channel_report"),
        "cpmaps.schur_ms": ms("cpmaps.schur"),
        "linalg.nullspace_calls": per(calls["linalg.nullspace"]),
        "linalg.nullspace_ms": ms("linalg.nullspace"),
        "linalg.eig_calls": per(calls["linalg.eig"]),
        "linalg.eig_ms": ms("linalg.eig"),
        "linalg.commutant_ms": ms("linalg.commutant"),
        "linalg.span_ms": ms("linalg.span"),
        "serialize.load_ms": ms("serialize.load"),
        "serialize.dump_ms": ms("serialize.dump"),
    }
