"""Spans around chaoslab's public layer functions, installed from outside.

``Tracer.install`` replaces each traced function wherever the package binds
it (a module attribute, a name imported into another module, or an entry of
``suites._SUITES``) and ``uninstall`` puts the originals back.  A span holds
its name, start, end (``perf_counter_ns``), parent span index and counts; the
spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np


def _rows(a) -> int:
    return np.asarray(a).shape[0]


def _is_pm1(a) -> bool:
    return bool(np.all(np.abs(np.asarray(a, dtype=np.float64)) == 1.0))


def _marc_grid(fn, args, kwargs, result) -> dict:
    """Points at which the functional evaluates phi, from its grid's definition:
    ``refine`` points per step plus the breakpoints (the steps alone if the
    function has no ``refine``)."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    steps = bound.arguments["r"].values.size
    refine = bound.arguments.get("refine")
    return {"grid_points": steps if refine is None else refine * steps + 1}


# (module, attribute, span name, counts(fn, args, kwargs, result) or None).
# A callable span name is applied to the call's arguments.
TARGETS = [
    ("dyadic", "full_sign_matrix", "dyadic.full_sign_matrix",
     lambda f, a, k, r: {"bytes": r.nbytes}),
    ("chaos", "eval_decoupled", "chaos.eval_decoupled",
     lambda f, a, k, r: {"atoms": r.values.size, "bytes": r.values.nbytes}),
    ("chaos", "eval_undecoupled", "chaos.eval_undecoupled",
     lambda f, a, k, r: {"atoms": r.values.size, "bytes": r.values.nbytes}),
    ("rearrange", "rearrangement", "rearrange.rearrangement",
     lambda f, a, k, r: {"atoms": a[0].flat_values().size, "steps": r.values.size}),
    ("rearrange", "distribution", "rearrange.distribution", None),
    ("rearrange", "equimeasurable", "rearrange.equimeasurable", None),
    ("rearrange", "log_distribution_L", "rearrange.log_distribution_L", None),
    ("spaces", "orlicz_exp_norm", "spaces.orlicz_exp_norm", None),
    ("spaces", "lorentz_norm", "spaces.lorentz_norm", None),
    ("spaces", "marcinkiewicz_norm", "spaces.marcinkiewicz_norm", _marc_grid),
    ("spaces", "lp_norm", "spaces.lp_norm", None),
    ("spaces", "exp_moment", "spaces.exp_moment", None),
    ("spaces", "quasinorm_phi_eps", "spaces.quasinorm_phi_eps", None),
    ("extremal", "sup_norm_decoupled",
     lambda a: "extremal.sup_norm_decoupled." + ("pm1" if _is_pm1(a[0]) else "real"),
     lambda f, a, k, r: {"masks": 2 ** (_rows(a[0]) - 1)}),
    ("extremal", "sup_norm_undecoupled", "extremal.sup_norm_undecoupled",
     lambda f, a, k, r: {"masks": 2 ** (_rows(a[0]) - 1)}),
    ("extremal", "exhaustive_inf", "extremal.exhaustive_inf",
     lambda f, a, k, r: {"matrices": r.samples}),
    ("extremal", "exact_average", "extremal.exact_average", None),
    ("extremal", "monte_carlo_average", "extremal.monte_carlo_average",
     lambda f, a, k, r: {"matrices": r.samples}),
    ("extremal", "walsh_sign_arrangement", "extremal.walsh_sign_arrangement", None),
    ("extremal", "sidon_defect", "extremal.sidon_defect", None),
    ("extremal", "theorem7_witness", "extremal.theorem7_witness", None),
    ("matio", "load_matrix", "matio.load_matrix", None),
    ("config", "load_config", "config.load_config", None),
    ("cli", "main", "cli.main", None),
]

SUITES = ("khinchin", "decoupling", "lemma2", "lemma3", "theorem5", "proposition",
          "theorem6", "theorem7", "orlicz", "clt")

LAYERS = ("dyadic", "chaos", "rearrange", "spaces", "extremal", "suites", "matio", "config")

# name -> (unit, better); the traced run prints every one of these.
PER_LAYER = {
    "dyadic.full_sign_matrix.ms": ("ms", "lower"),
    "dyadic.full_sign_matrix.bytes": ("bytes", "lower"),
    "chaos.eval_decoupled.ms": ("ms", "lower"),
    "chaos.eval_undecoupled.ms": ("ms", "lower"),
    "chaos.atoms": ("count", "lower"),
    "chaos.bytes": ("bytes", "lower"),
    "rearrange.rearrangement.ms": ("ms", "lower"),
    "rearrange.atoms_per_s": ("1/s", "higher"),
    "rearrange.steps": ("count", "lower"),
    "rearrange.distribution.ms": ("ms", "lower"),
    "rearrange.equimeasurable.ms": ("ms", "lower"),
    "rearrange.log_distribution_L.ms": ("ms", "lower"),
    "spaces.orlicz_exp_norm.ms": ("ms", "lower"),
    "spaces.lorentz_norm.ms": ("ms", "lower"),
    "spaces.marcinkiewicz_norm.ms": ("ms", "lower"),
    "spaces.marcinkiewicz_norm.grid_points": ("count", "lower"),
    "spaces.lp_norm.ms": ("ms", "lower"),
    "spaces.exp_moment.ms": ("ms", "lower"),
    "spaces.quasinorm_phi_eps.ms": ("ms", "lower"),
    "extremal.sup_norm_decoupled.pm1.ms": ("ms", "lower"),
    "extremal.sup_norm_decoupled.pm1.masks_per_s": ("1/s", "higher"),
    "extremal.sup_norm_decoupled.real.ms": ("ms", "lower"),
    "extremal.sup_norm_decoupled.real.masks_per_s": ("1/s", "higher"),
    "extremal.sup_norm_undecoupled.ms": ("ms", "lower"),
    "extremal.sup_norm_undecoupled.masks_per_s": ("1/s", "higher"),
    "extremal.exhaustive_inf.ms": ("ms", "lower"),
    "extremal.exhaustive_inf.matrices": ("count", "lower"),
    "extremal.exact_average.ms": ("ms", "lower"),
    "extremal.monte_carlo_average.ms": ("ms", "lower"),
    "extremal.monte_carlo_average.matrices_per_s": ("1/s", "higher"),
    "extremal.walsh_sign_arrangement.ms": ("ms", "lower"),
    "extremal.sidon_defect.ms": ("ms", "lower"),
    "extremal.theorem7_witness.ms": ("ms", "lower"),
    **{f"suites.{name}.ms": ("ms", "lower") for name in SUITES},
    "matio.load_matrix.ms": ("ms", "lower"),
    "config.load_config.ms": ("ms", "lower"),
    **{f"{layer}.self_ms": ("ms", "lower") for layer in LAYERS},
    "cli.startup_ms": ("ms", "lower"),
    "cli.self_ms": ("ms", "lower"),
    "cli.artifact_bytes": ("bytes", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

# throughput metric -> (span name, count)
_RATES = {
    "rearrange.atoms_per_s": ("rearrange.rearrangement", "atoms"),
    "extremal.sup_norm_decoupled.pm1.masks_per_s": ("extremal.sup_norm_decoupled.pm1", "masks"),
    "extremal.sup_norm_decoupled.real.masks_per_s": ("extremal.sup_norm_decoupled.real", "masks"),
    "extremal.sup_norm_undecoupled.masks_per_s": ("extremal.sup_norm_undecoupled", "masks"),
    "extremal.monte_carlo_average.matrices_per_s": ("extremal.monte_carlo_average", "matrices"),
}

# count metric -> (span names, count)
_COUNTS = {
    "dyadic.full_sign_matrix.bytes": (("dyadic.full_sign_matrix",), "bytes"),
    "chaos.atoms": (("chaos.eval_decoupled", "chaos.eval_undecoupled"), "atoms"),
    "chaos.bytes": (("chaos.eval_decoupled", "chaos.eval_undecoupled"), "bytes"),
    "rearrange.steps": (("rearrange.rearrangement",), "steps"),
    "spaces.marcinkiewicz_norm.grid_points": (("spaces.marcinkiewicz_norm",), "grid_points"),
    "extremal.exhaustive_inf.matrices": (("extremal.exhaustive_inf",), "matrices"),
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, fn, name, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name(args) if callable(name) else name,
                    "parent": self._stack[-1] if self._stack else None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter_ns()
                self._stack.pop()
            if counts is not None:
                span["counts"] = counts(fn, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "chaoslab" or n.startswith("chaoslab.")]
        for module, attr, name, counts in TARGETS:
            original = getattr(sys.modules[f"chaoslab.{module}"], attr)
            wrapper = self._wrap(original, name, counts)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._patches.append((m, key, original))
        suites = sys.modules["chaoslab.suites"]
        for name in SUITES:
            original = suites._SUITES[name]
            suites._SUITES[name] = self._wrap(original, f"suites.{name}", None)
            self._patches.append((suites._SUITES, name, original))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer metrics of one traced pass.

    ``<function>.ms`` is the wall time inside the function (children
    included); ``<layer>.self_ms`` is the time in the layer's spans not
    covered by a child span; ``cli.self_ms`` is that of ``cli.main``.
    """
    inclusive = defaultdict(float)
    self_ms = defaultdict(float)
    counts = defaultdict(int)
    child_ms = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_ms[span["parent"]] += (span["end"] - span["start"]) / 1e6
    for i, span in enumerate(spans):
        ms = (span["end"] - span["start"]) / 1e6
        inclusive[span["name"]] += ms
        self_ms[span["name"].split(".")[0]] += ms - child_ms[i]
        for key, value in span.get("counts", {}).items():
            counts[(span["name"], key)] += value
    metrics = {name: 0.0 for name in PER_LAYER}
    for name in PER_LAYER:
        if name.endswith(".ms"):
            metrics[name] = inclusive[name[: -len(".ms")]]
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = self_ms[layer]
    metrics["cli.self_ms"] = self_ms["cli"]
    for metric, (span, key) in _RATES.items():
        seconds = inclusive[span] / 1e3
        metrics[metric] = counts[(span, key)] / seconds if seconds > 0 else 0.0
    for metric, (names, key) in _COUNTS.items():
        metrics[metric] = sum(counts[(n, key)] for n in names)
    return metrics
