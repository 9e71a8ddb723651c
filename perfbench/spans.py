"""Spans and counters recorded around cvpert's layers from outside the package.

A ``Tracer`` replaces the public entry points of each layer with wrappers
while it is active and puts the originals back when it exits.  A function is
wrapped where it is defined, and every ``cvpert`` module attribute that
aliases the same object is rebound too (``expansion.push_forward``,
``scenarios.residual_norm``, ``cvpert.build_lagrangian`` ...); otherwise a
call through the alias would go uncounted.  Modules that import a name at
call time (``from .el import grad_ell`` inside a function) pick up the
wrapper because they read the patched module attribute.

Spans are kept in memory as ``[name, start, end, parent, job]`` records and
written out once the run ends.  Hot scalar entry points that run up to
~300k times per pass get a call counter only, no span.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

# span name -> (module, attribute path where the function is defined)
SPANS = {
    "cli.run_config": ("cli", "run_config"),
    "scenarios.run_scenario": ("scenarios", "run_scenario"),
    "expansion.order_scaling_slope": ("expansion", "order_scaling_slope"),
    "expansion.expand_inhomogeneous": ("expansion", "expand_inhomogeneous"),
    "expansion.error_term": ("expansion", "error_term"),
    "expansion.reconstruct": ("expansion", "reconstruct"),
    "linops.assemble_delta": ("linops", "assemble_delta"),
    "linops.GreensOperator.init": ("linops", "GreensOperator.__post_init__"),
    "linops.GreensOperator.apply": ("linops", "GreensOperator.apply"),
    "linops.delta_ell_dual": ("linops", "delta_ell_dual"),
    "linops.delta_zero_dual": ("linops", "delta_zero_dual"),
    "el.ell_on_support": ("el", "ell_on_support"),
    "el.residual_norm": ("el", "residual_norm"),
    "el.calibrate_nu": ("el", "calibrate_nu"),
    "jets.TestBasis.full": ("jets", "TestBasis.full"),
    "measure.DiscreteMeasure": ("measure", "DiscreteMeasure.__init__"),
    "measure.push_forward": ("measure", "push_forward"),
    "fragmentation.FragmentedMeasure.as_measure": ("fragmentation",
                                                   "FragmentedMeasure.as_measure"),
    "fragmentation.wellposedness_check": ("fragmentation", "wellposedness_check"),
    "fragmentation.perturbed_laplacian_linF": ("fragmentation",
                                               "perturbed_laplacian_linF"),
    "mixing.minimize_mixing": ("mixing", "minimize_mixing"),
    "cfs.CfsChart.coords": ("cfs", "CfsChart.coords"),
    "lagrangian.build_lagrangian": ("lagrangian", "build_lagrangian"),
    # sympy.lambdify as called by the lagrangian layer; see Tracer._patch_lambdify
    "lagrangian.lambdify": ("lagrangian", "sp.lambdify"),
}

# counter name -> attribute paths whose calls it counts
CALL_COUNTERS = {
    "lagrangian.partial.calls": [("lagrangian", "PolynomialLagrangian.partial"),
                                 ("lagrangian", "NumericLagrangian.partial")],
    "lagrangian.eval.calls": [("lagrangian", "PolynomialLagrangian.__call__"),
                              ("lagrangian", "NumericLagrangian.__call__")],
    "linops.mixed_directional.calls": [("linops", "mixed_directional")],
    "el.grad_ell.calls": [("el", "grad_ell")],
    "mixing.mixing_functional.calls": [("mixing", "mixing_functional")],
    "mixing.expm.calls": [("mixing", "expm")],
    "cfs.causal_lagrangian.calls": [("cfs", "causal_lagrangian")],
}

# counters fed by a span's result rather than by its call count
VALUE_COUNTERS = ("measure.points_merged", "cli.report_bytes")

COUNTERS = tuple(CALL_COUNTERS) + VALUE_COUNTERS


class _SympyProxy:
    """Stands in for the ``sympy`` module inside ``cvpert.lagrangian`` so
    that only the layer's own ``lambdify`` calls are traced."""

    def __init__(self, module, lambdify):
        self._module = module
        self.lambdify = lambdify

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Records spans and counters while active (``with Tracer() as t:``).

    ``job`` is copied into every span opened while it is set, so spans of
    one job share an identifier.
    """

    def __init__(self):
        self.spans: list = []
        self.counts = {name: [0] for name in COUNTERS}
        self.job = None
        self._stack: list = []
        self._undo: list = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        cell = self.counts[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _add(self, name, value):
        self.counts[name][0] += value

    def _after_push_forward(self, args, kwargs, result):
        measure = args[0] if args else kwargs["measure"]
        self._add("measure.points_merged", measure.size - result.size)

    def _after_as_measure(self, args, kwargs, result):
        frag = args[0]
        self._add("measure.points_merged",
                  int((frag.weights() > 0.0).sum()) - result.size)

    def _after_run_config(self, args, kwargs, result):
        config = args[0] if args else kwargs["config"]
        out = kwargs.get("out", args[2] if len(args) > 2 else None)
        path = Path(out or config.get("out", "cvpert-out")) / "report.json"
        self._add("cli.report_bytes", path.stat().st_size)

    # -- patching ----------------------------------------------------------

    def _patch(self, module_name, path, make):
        module = importlib.import_module(f"cvpert.{module_name}")
        *owners, attr = path.split(".")
        owner = module
        for part in owners:
            owner = getattr(owner, part)
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._set(owner, attr, new)
        if owner is module:
            for mod in _cvpert_modules():
                for key, value in list(vars(mod).items()):
                    if value is raw and not (mod is module and key == attr):
                        self._set(mod, key, new)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _patch_lambdify(self):
        module = importlib.import_module("cvpert.lagrangian")
        sympy = module.sp
        self._set(module, "sp",
                  _SympyProxy(sympy, self._span("lagrangian.lambdify", sympy.lambdify)))

    def __enter__(self):
        after = {"cli.run_config": self._after_run_config,
                 "measure.push_forward": self._after_push_forward,
                 "fragmentation.FragmentedMeasure.as_measure": self._after_as_measure}
        try:
            for name, targets in CALL_COUNTERS.items():
                for module_name, path in targets:
                    self._patch(module_name, path,
                                lambda fn, name=name: self._counter(name, fn))
            for name, (module_name, path) in SPANS.items():
                if name == "lagrangian.lambdify":
                    self._patch_lambdify()
                    continue
                self._patch(module_name, path,
                            lambda fn, name=name: self._span(name, fn, after.get(name)))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- read-out ----------------------------------------------------------

    def snapshot(self) -> tuple:
        """Position marker: (number of spans, counter values)."""
        return len(self.spans), {name: cell[0] for name, cell in self.counts.items()}

    def profile(self, since: tuple, until: tuple) -> dict:
        """Per-layer metrics of the spans and counts between two snapshots."""
        return layer_metrics(self.spans[since[0]:until[0]], since[0],
                             {k: until[1][k] - since[1][k] for k in COUNTERS})

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans}, fh)


def unit(key: str) -> str:
    """Unit of a per-layer metric."""
    if key == "cli.report_bytes":
        return "bytes"
    return "s" if key.endswith((".s", ".self_s")) else "count"


def _cvpert_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "cvpert" or name.startswith("cvpert."))]


def layer_metrics(spans: list, offset: int, counts: dict) -> dict:
    """``<span>.s``, ``<span>.self_s`` and ``<span>.calls`` for every span
    name, plus the counters.

    ``spans[k]`` has index ``offset + k`` in the tracer's list; parents are
    given by that index.  Self time is a span's duration minus the time
    covered by its direct children, which lie inside it and do not overlap
    on one thread.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _job in spans:
        if parent >= offset:
            child_time[parent - offset] += end - start
    out = {}
    for name in SPANS:
        out[f"{name}.s"] = 0.0
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.calls"] = 0
    for k, (name, start, end, _parent, _job) in enumerate(spans):
        out[f"{name}.s"] += end - start
        out[f"{name}.self_s"] += end - start - child_time[k]
        out[f"{name}.calls"] += 1
    out.update(counts)
    return out
