"""Per-layer call tracing from outside the package.

A `Tracer` replaces public functions and methods of `homcrb` with
wrappers that count calls and accumulate self time: the span of a call
minus the spans of the traced calls made inside it. Counts that a layer
returns (lift iterations, scoring iterations, property checks, CSV
bytes) are read from the returned objects. Nothing inside the package is
edited; `uninstall` puts every original back.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

CS = ("calls", "self_s")
SUITES = ("psi", "fim_frames", "variance_invariance", "error_block", "sphere",
          "gradients")
MODEL_CLASSES = ("LandmarkModel", "NetworkModel", "SpdModel", "GaussianMeanModel")
MODEL_METHODS = ("fim_reduced", "total_grad_m", "total_loglik", "sample", "summarize")

# Module attributes: (module, attribute, layer name, reported metrics,
# counter read from the result as (suffix, unit, function)).
FUNCTIONS = [
    ("homcrb.groups", "exp", "groups.exp", CS, None),
    ("homcrb.groups", "log", "groups.log", CS, None),
    ("homcrb.groups", "adjoint_matrix", "groups.adjoint_matrix", CS, None),
    ("homcrb.groups", "ad_matrix", "groups.ad_matrix", CS, None),
    ("homcrb.groups", "psi_matrix", "groups.psi_matrix", CS, None),
    ("homcrb.groups", "livf_derivative", "groups.livf_derivative", CS, None),
    ("homcrb.groups", "rivf_derivative", "groups.rivf_derivative", CS, None),
    ("homcrb.groups", "product_group", "groups.product_group", CS, None),
    ("homcrb.groups", "polar_project", "groups.polar_project", ("calls",), None),
    ("homcrb.homspace", "coset_error", "homspace.coset_error", CS,
     ("lift_iterations", "count", lambda r: r.iterations)),
    ("homcrb.fisher", "fim", "fisher.fim", CS, None),
    ("homcrb.fisher", "verify_fim_properties", "fisher.verify_fim_properties",
     ("self_s",), None),
    ("homcrb.crb", "delta_matrix", "crb.delta_matrix", CS, None),
    ("homcrb.crb", "variance_bound", "crb.variance_bound", ("calls",), None),
    ("homcrb.scoring", "fisher_scoring", "scoring.fisher_scoring", CS,
     ("iterations", "count", lambda r: r.iterations_used)),
    ("homcrb.models", "network_fim", "models.network_fim", CS, None),
    ("homcrb.harness", "load_config", "harness.load_config", ("self_s",), None),
] + [
    ("homcrb.harness", f"run_{kind}_experiment", "harness.run", ("self_s",), None)
    for kind in ("landmark", "network", "spd")
] + [
    ("homcrb.harness.properties", f"suite_{name}", f"harness.suite_{name}",
     ("self_s",), ("checks", "count", lambda r: r[0]))
    for name in SUITES
]

# Methods: (module, class, method, layer name, reported metrics, counter).
METHODS = [
    ("homcrb.groups", "GroupElement", "__init__", "groups.GroupElement", CS, None),
    ("homcrb.harness.experiments", "MonteCarloReport", "to_csv_text",
     "harness.to_csv_text", ("self_s",), ("csv_bytes", "B", lambda r: len(r.encode()))),
] + [
    ("homcrb.models", cls, "__init__", "models.init", ("self_s",), None)
    for cls in MODEL_CLASSES
] + [
    ("homcrb.models", cls, meth, f"models.{meth}", CS, None)
    for cls in MODEL_CLASSES for meth in MODEL_METHODS
]


def metric_names() -> list[tuple[str, str]]:
    """(metric, unit) for every traced quantity, each once, in order."""
    out = {}
    for *_, name, reported, counter in FUNCTIONS + METHODS:
        for stat in reported:
            out[f"{name}.{stat}"] = "count" if stat == "calls" else "s"
        if counter is not None:
            out[f"{name}.{counter[0]}"] = counter[1]
    return list(out.items())


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._child_time = [0.0]  # per open span: traced time of its children
        self._restore = []

    def take(self) -> dict:
        """Totals since the last take, keyed by metric name; resets them."""
        out = {f"{k}.calls": v for k, v in self.calls.items()}
        out.update({f"{k}.self_s": v for k, v in self.self_s.items()})
        out.update(self.counts)
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()
        return out

    def _wrap(self, fn, name, counter):
        stack = self._child_time
        calls, self_s, counts = self.calls, self.self_s, self.counts

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - start
                children = stack.pop()
                stack[-1] += span
                calls[name] += 1
                self_s[name] += span - children
            if counter is not None:
                counts[f"{name}.{counter[0]}"] += counter[2](result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function in each homcrb module that holds it
        (modules import names from each other), and every traced method."""
        wrappers = {}
        for module, attr, name, _, counter in FUNCTIONS:
            fn = getattr(sys.modules[module], attr)
            wrappers[id(fn)] = (fn, self._wrap(fn, name, counter))
        for modname, mod in list(sys.modules.items()):
            if modname != "homcrb" and not modname.startswith("homcrb."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, value))
        # Look every method up before wrapping any, so a subclass that
        # inherits a method wraps the original, not another wrapper.
        methods = []
        for module, cls_name, meth, name, _, counter in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            methods.append((cls, meth, getattr(cls, meth), name, counter))
        for cls, meth, fn, name, counter in methods:
            own = vars(cls).get(meth)
            setattr(cls, meth, self._wrap(fn, name, counter))
            self._restore.append((cls, meth, own))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            if value is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)
        self._restore.clear()
