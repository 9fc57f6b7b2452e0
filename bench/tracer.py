"""Per-layer spans and counters, recorded from outside the program.

Each layer ``<module>.<stage>`` wraps one or more levyq functions, found by
name when the tracer is installed.  A wrapper is bound in place of the
original under every ``levyq.*`` module attribute that refers to it, so the
call is caught whichever module looks the name up (``inverse_fourier`` is
called through ``inversion`` and ``harness``, not through ``numerics``).
Wrappers return the original result, except that the curvature factories
hand back the same estimate with its ``eval`` wrapped, so the calls of that
callable are spanned too.  A site whose name no longer exists is listed as
absent instead of failing the run.

A layer's self time is its span time minus the time of spans nested in it.
Counter bookkeeping is timed separately (``tracer_s``) and excluded from
every span, so self times plus ``harness.other`` plus ``tracer_s`` add up to
the traced operation time.

LAYERS maps each layer to the sites it wraps and to the end-to-end metric
and workloads it should move.
"""
from __future__ import annotations

import dataclasses
import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter

import numpy as np

# layer -> (sites as (module, attribute, kind), end-to-end metric it moves).
# kind "call" spans the function; "factory" also spans calls of the
# callable estimate it returns.
LAYERS = {
    "options.pricing": (
        [("levyq.options", "option_function", "call")],
        "op_s mc_table; setup_s chain"),
    "options.spectra": (
        [("levyq.options", "compute_chain_spectra", "call"),
         ("levyq.options", "option_psi2", "factory")],
        "op_s chain, mc_table"),
    "numerics.fourier": (
        [("levyq.numerics", "inverse_fourier", "call")],
        "op_s chain, direct"),
    "inversion.tails": (
        [("levyq.inversion", "distribution_estimate", "call"),
         ("levyq.harness", "_batched_distributions", "call")],
        "op_s chain; peak_rss_mb mc_table"),
    "inversion.quantile": (
        [("levyq.inversion", "quantile_from_distribution", "call")],
        "op_s all"),
    "adaptive.screen": (
        [("levyq.adaptive", "build_grid", "call")],
        "op_s mc_table, chain"),
    "adaptive.sigma": (
        [("levyq.adaptive", "sigma_tilde", "call")],
        "op_s mc_table, chain"),
    "adaptive.select": (
        [("levyq.adaptive", "adaptive_quantile", "call")],
        "op_s mc_table, chain"),
    "models.truth": (
        [("levyq.models", "true_quantile", "call")],
        "op_s mc_table"),
    "increments.ecf": (
        [("levyq.increments", "psi2_from_increments", "factory")],
        "op_s direct"),
    "simulate.sampling": (
        [("levyq.simulate", "sample_increments", "call")],
        "op_s direct"),
}

# counter -> (numerator key, denominator key or None for a plain count)
COUNTERS = {
    "options.spectra.nodes": ("options.spectra.nodes", None),
    "options.spectra.trusted_frac": ("options.spectra.trusted",
                                     "options.spectra.nodes"),
    "increments.ecf.nodes": ("increments.ecf.nodes", None),
    "increments.ecf.trusted_frac": ("increments.ecf.trusted",
                                    "increments.ecf.nodes"),
    "adaptive.sigma.mask_frac": ("adaptive.sigma.mask",
                                 "adaptive.sigma.grid"),
    "inversion.quantile.clamped_frac": ("inversion.quantile.clamped",
                                        "inversion.quantile.calls"),
    "adaptive.screen.feasible_frac": ("adaptive.screen.feasible",
                                      "adaptive.screen.calls"),
    "adaptive.screen.bandwidths": ("adaptive.screen.bandwidths", None),
}


def _count_spectra(counts, bound, result):
    counts["options.spectra.nodes"] += int(result.trusted.size)
    counts["options.spectra.trusted"] += int(np.count_nonzero(result.trusted))


def _count_sigma(counts, bound, result):
    spectra, h = bound.arguments["spectra"], bound.arguments["h"]
    u = spectra.grid.u
    mask = spectra.trusted & (np.abs(u) <= 1.0 / h)
    counts["adaptive.sigma.mask"] += int(np.count_nonzero(mask))
    counts["adaptive.sigma.grid"] += int(u.size)


def _count_quantile(counts, bound, result):
    counts["inversion.quantile.clamped"] += int(bool(result.at_threshold))


def _count_screen(counts, bound, result):
    counts["adaptive.screen.feasible"] += int(bool(result.feasible))
    counts["adaptive.screen.bandwidths"] += int(np.size(result.values))


# (module, attribute) -> counter hook(counts, bound arguments, result)
_HOOKS = {
    ("levyq.options", "compute_chain_spectra"): _count_spectra,
    ("levyq.adaptive", "sigma_tilde"): _count_sigma,
    ("levyq.inversion", "quantile_from_distribution"): _count_quantile,
    ("levyq.adaptive", "build_grid"): _count_screen,
}


class Tracer:
    """Spans and counters for one traced operation."""

    def __init__(self):
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.tracer_s = 0.0
        self.absent: set = set()
        self._children: list = []   # per open span: time of nested spans
        self._patched: list = []    # (module, attribute, original)

    def _close(self, layer: str, started: float) -> None:
        total = perf_counter() - started
        nested = self._children.pop()
        self.self_s[layer] += total - nested
        self.calls[layer] += 1
        if self._children:
            self._children[-1] += total

    def _bookkeeping(self, started: float) -> None:
        spent = perf_counter() - started
        self.tracer_s += spent
        if self._children:
            self._children[-1] += spent

    def _span(self, layer, fn, hook=None, signature=None, post=None):
        def wrapper(*args, **kwargs):
            started = perf_counter()
            self._children.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(layer, started)
            if hook is not None or post is not None:
                started = perf_counter()
                if hook is not None:
                    try:
                        bound = signature.bind(*args, **kwargs) \
                            if signature is not None else None
                        hook(self.counts, bound, result)
                    except (KeyError, AttributeError, TypeError) as exc:
                        # a refactor renamed an argument or field: report
                        # the counter as unavailable, keep the run going
                        self.absent.add(f"counter of {layer}: {exc!r}")
                if post is not None:
                    result = post(result)
                self._bookkeeping(started)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _curvature_post(self, layer):
        """Wrap the eval of a returned curvature estimate in the layer."""

        def count_eval(counts, bound, values):
            counts[f"{layer}.nodes"] += int(np.size(values))
            counts[f"{layer}.trusted"] += int(np.count_nonzero(values))

        def post(estimate):
            if not (dataclasses.is_dataclass(estimate)
                    and hasattr(estimate, "eval")):
                return estimate
            inner = estimate.eval
            traced = self._span(layer, inner, count_eval)
            return dataclasses.replace(estimate, eval=traced)

        return post

    def install(self) -> None:
        """Bind a wrapper over every site that resolves; note the rest."""
        levyq_modules = [m for name, m in sys.modules.items()
                         if name == "levyq" or name.startswith("levyq.")]
        for layer, (sites, _) in LAYERS.items():
            for module_name, attr, kind in sites:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    module = None
                original = getattr(module, attr, None)
                if original is None:
                    self.absent.add(f"{module_name}.{attr}")
                    continue
                hook = _HOOKS.get((module_name, attr))
                signature = inspect.signature(original) if hook else None
                post = self._curvature_post(layer) \
                    if kind == "factory" else None
                wrapper = self._span(layer, original, hook, signature, post)
                for mod in levyq_modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def snapshot(self) -> dict:
        """Calls, self seconds and raw counts of this operation."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts), "tracer_s": self.tracer_s}


def absent_layers(absent_sites) -> list:
    """Layers none of whose sites resolved."""
    gone = set(absent_sites)
    return [layer for layer, (sites, _) in LAYERS.items()
            if all(f"{m}.{a}" in gone for m, a, _ in sites)]


def counter_values(counts: dict, calls: dict) -> dict:
    """Counter metrics of one op: name -> (value, unit), as counts and
    useful/attempted fractions."""
    merged = {**{f"{k}.calls": v for k, v in calls.items()}, **counts}
    out = {}
    for name, (num, den) in COUNTERS.items():
        top = merged.get(num, 0)
        if den is None:
            out[name] = (float(top), "count")
        else:
            bottom = merged.get(den, 0)
            out[name] = (top / bottom if bottom else 0.0, "ratio")
    return out
