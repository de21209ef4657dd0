"""Span tracing of frailtykit's layer boundaries, from outside the package.

The package's modules import each other's functions by name
(``from .hazards import _hazard_array``), so a boundary function is looked
up in the namespace of its caller, not of its definer.  ``Tracer.install``
therefore replaces every reference to a traced function in every
``frailtykit`` module namespace (and methods on classes), and
``Tracer.uninstall`` puts the originals back.

Each call of a traced function is a span with a name, a layer and a parent
(the innermost open span).  A span's self time is its duration minus the
durations of its direct children.  Spans are not stored one by one: they are
aggregated on close into

* ``layer_self``: self time per layer;
* ``bucket_self``: self time per named bucket.  A span with no bucket of its
  own inherits the bucket of a parent in the same layer, so helpers count
  towards the function that called them (``_total_level_time`` towards
  ``model.segment_points``);
* ``counts``: work counters bumped at span entry;
* ``edges``: calls, total and self time per (parent span, span) pair, which
  is the span tree folded onto function names.

Counters and buckets are defined in ``BOUNDARIES`` below; the README maps
them to the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

class Tracer:
    def __init__(self):
        self.stack = []
        self._patches = []
        self.reset()

    def reset(self):
        self.layer_self = defaultdict(float)
        self.bucket_self = defaultdict(float)
        self.counts = defaultdict(int)
        self.edges = defaultdict(lambda: [0, 0.0, 0.0])

    # -- spans -------------------------------------------------------------

    def traced(self, fn, name, layer, bucket=None, on_enter=None):
        """Wrap ``fn`` so each call records a span.

        ``on_enter(tracer, entry, parent, args, kwargs)`` runs before the
        call and may return replacement ``(args, kwargs)``; ``entry`` is True
        when the caller is outside ``layer``.
        """
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            same_layer = parent is not None and parent[1] == layer
            if bucket is not None:
                span_bucket = bucket
            elif same_layer:
                span_bucket = parent[2]
            else:
                span_bucket = layer + ".other"
            if on_enter is not None:
                replaced = on_enter(tracer, not same_layer, parent, args,
                                    kwargs)
                if replaced is not None:
                    args, kwargs = replaced
            frame = [name, layer, span_bucket, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                own = duration - frame[3]
                if parent is not None:
                    parent[3] += duration
                tracer.layer_self[layer] += own
                tracer.bucket_self[span_bucket] += own
                edge = tracer.edges[(parent[0] if parent else "", name)]
                edge[0] += 1
                edge[1] += duration
                edge[2] += own

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self, package):
        """Patch every boundary in ``BOUNDARIES`` into the loaded package."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, *_ in BOUNDARIES:
            importlib.import_module(f"{package}.{module_name}")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        for module_name, attr, layer, bucket, on_enter in BOUNDARIES:
            module = sys.modules[f"{package}.{module_name}"]
            owner_name, _, method = attr.partition(".")
            if method:
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                wrapper = self.traced(original, f"{layer}.{method}", layer,
                                      bucket, on_enter)
                self._patches.append((owner, method, original))
                setattr(owner, method, wrapper)
                continue
            original = getattr(module, attr)
            wrapper = self.traced(original, f"{layer}.{attr}", layer, bucket,
                                  on_enter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    # -- reporting ---------------------------------------------------------

    def snapshot(self):
        return {
            "layer_self": dict(self.layer_self),
            "bucket_self": dict(self.bucket_self),
            "counts": dict(self.counts),
            "edges": [
                {"parent": p, "span": s, "calls": v[0], "total_s": v[1],
                 "self_s": v[2]}
                for (p, s), v in sorted(self.edges.items())
            ],
        }


# -- counters bumped at span entry -------------------------------------------


def _size(value):
    return int(np.size(value))


def _count(name):
    """Count every call, nested or not."""
    def on_enter(tracer, entry, parent, args, kwargs):
        tracer.counts[name] += 1
        return None
    return on_enter


def _layer_entry(prefix, arg_index):
    """Count calls into a layer from outside it, and the elements passed."""
    def on_enter(tracer, entry, parent, args, kwargs):
        if entry:
            tracer.counts[prefix + ".calls"] += 1
            if len(args) > arg_index:
                tracer.counts[prefix + ".elements"] += _size(args[arg_index])
        return None
    return on_enter


def _hazard_entry(inverse=False):
    base = _layer_entry("hazards", 1)

    def on_enter(tracer, entry, parent, args, kwargs):
        base(tracer, entry, parent, args, kwargs)
        if inverse and entry:
            tracer.counts["hazards.inverse_calls"] += 1
        if parent is not None and parent[0] == "simulate._invert_total_load":
            tracer.counts["simulate.load_evals"] += 1
        return None
    return on_enter


def _quad_entry(tracer, entry, parent, args, kwargs):
    """Count a call into the quadrature layer and trace its integrand.

    The integrand is a closure of ``model._cause_curves``; wrapping it at the
    layer entry makes ``quad.self_s`` the time in ``integrate`` that is not
    spent in the integrand.  Nested calls (``integrate`` inside
    ``integrate_power_substituted``) get the already wrapped integrand.
    """
    if not entry:
        return None
    tracer.counts["quad.integrate_calls"] += 1
    integrand = tracer.traced(args[0], "model.integrand", "model",
                              "model.tables")
    return (integrand,) + tuple(args[1:]), kwargs


def _objective_entry(tracer, entry, parent, args, kwargs):
    """Trace the optimizer's objective closure as its own span."""
    objective = tracer.traced(args[0], "identifiability.objective",
                              "identifiability", "identifiability.objective",
                              _count("identifiability.objective_evals"))
    return (objective,) + tuple(args[1:]), kwargs


def _invert_entry(tracer, entry, parent, args, kwargs):
    tracer.counts["simulate.invert_elements"] += _size(args[2])
    return None


# (module, attribute or Class.method, layer, bucket, on_enter)
BOUNDARIES = (
    ("_incgamma", "series_lower_sum", "incgamma", None,
     _layer_entry("incgamma", 1)),
    ("_incgamma", "cf_upper_sum", "incgamma", None,
     _layer_entry("incgamma", 1)),
    ("_incgamma", "gammainc_upper", "incgamma", None,
     _layer_entry("incgamma", 1)),
    ("_incgamma", "log_gammainc_upper", "incgamma", None,
     _layer_entry("incgamma", 1)),

    ("hazards", "_hazard_array", "hazards", None, _hazard_entry()),
    ("hazards", "_cumulative_array", "hazards", None, _hazard_entry()),
    ("hazards", "hazard_rate", "hazards", None, _hazard_entry()),
    ("hazards", "cumulative_hazard", "hazards", None, _hazard_entry()),
    ("hazards", "inverse_cumulative_hazard", "hazards", "hazards.inverse",
     _hazard_entry(inverse=True)),
    ("hazards", "_inverse_gamma_scalar", "hazards", None, None),

    ("_quad", "integrate", "quad", None, _quad_entry),
    ("_quad", "integrate_power_substituted", "quad", None, _quad_entry),
    ("_quad", "gk15", "quad", None, _count("quad.panels")),

    ("model", "_cause_curves", "model", "model.tables",
     _count("model.tables")),
    ("model", "sub_distribution_table", "model", "model.tables", None),
    ("model", "_segment_points", "model", "model.segment_points", None),
    ("model", "_total_level_time", "model", None,
     _count("model.level_solves")),
    ("model", "joint_sub_distribution_grid", "model", "model.F_grid",
     _count("model.F_grid_calls")),
    ("model", "joint_sub_density_grid", "model", "model.f_grid", None),
    ("model", "joint_sub_density", "model", None,
     _count("model.density_calls")),
    ("model", "joint_sub_distribution", "model", None, None),
    ("model", "joint_survival", "model", None, None),
    ("model", "survival_load_vector", "model", None, None),
    ("model", "marginal_sub_distribution", "model", None, None),
    ("model", "marginal_sub_density", "model", None, None),
    ("model", "time_horizon", "model", None, None),
    ("model", "model_from_dict", "model", None, None),
    ("model", "model_to_dict", "model", None, None),

    ("frailty", "lst", "frailty", "frailty.lst", _count("frailty.lst_calls")),
    ("frailty", "tilted_mean", "frailty", None, None),
    ("frailty", "coordinate_means", "frailty", None, None),
    ("frailty", "normalize_to_unit_mean", "frailty", None, None),
    ("frailty", "canonicalize", "frailty", None, None),
    ("frailty", "expanded_matrix", "frailty", None, None),
    ("frailty", "frailty_from_dict", "frailty", None, None),
    ("frailty", "frailty_to_dict", "frailty", None, None),

    ("simulate", "simulate_table", "simulate", "simulate.table", None),
    ("simulate", "_simulate_shard", "simulate", "simulate.shard",
     _count("simulate.shards")),
    ("simulate", "_invert_total_load", "simulate", "simulate.invert",
     _invert_entry),
    ("simulate", "write_dataset_csv", "simulate", "simulate.csv_write", None),
    ("simulate", "_format_rows", "simulate", None, None),
    ("simulate", "read_dataset_csv", "simulate", "simulate.csv_read", None),

    ("identifiability", "_restarted_simplex", "identifiability",
     "identifiability.optimizer", _objective_entry),
    ("identifiability", "_Parametrization.unpack", "identifiability",
     "identifiability.unpack", None),
    ("identifiability", "_Parametrization.pack", "identifiability",
     "identifiability.unpack", None),
    ("identifiability", "_log_likelihood", "identifiability",
     "identifiability.loglik", None),
    ("identifiability", "_dataset_arrays", "identifiability", None, None),
    ("identifiability", "default_probe_grid", "identifiability",
     "identifiability.probe_grid", None),
    ("identifiability", "lst_sequence_test", "identifiability",
     "identifiability.lst_sequence", None),
    ("identifiability", "probe_models", "identifiability", None, None),
    ("identifiability", "per_pair_distances", "identifiability", None, None),
    ("identifiability", "recover_from_model", "identifiability", None, None),
    ("identifiability", "recover_parameters", "identifiability", None, None),
    ("identifiability", "fit_mle", "identifiability", None, None),
    ("identifiability", "scale_confounding_transform", "identifiability",
     None, None),

    ("cli", "run", "cli", None, None),
)


def per_layer_values(snapshot):
    """Map one round's trace snapshot onto the per-layer metric names."""
    counts = snapshot["counts"]
    layer = snapshot["layer_self"]
    bucket = snapshot["bucket_self"]

    def c(name):
        return int(counts.get(name, 0))

    def b(name):
        return float(bucket.get(name, 0.0))

    return {
        "incgamma.calls": c("incgamma.calls"),
        "incgamma.elements": c("incgamma.elements"),
        "incgamma.self_s": float(layer.get("incgamma", 0.0)),
        "hazards.calls": c("hazards.calls"),
        "hazards.elements": c("hazards.elements"),
        "hazards.self_s": float(layer.get("hazards", 0.0)),
        "hazards.inverse_calls": c("hazards.inverse_calls"),
        "hazards.inverse_s": b("hazards.inverse"),
        "quad.integrate_calls": c("quad.integrate_calls"),
        "quad.panels": c("quad.panels"),
        "quad.self_s": float(layer.get("quad", 0.0)),
        "model.tables": c("model.tables"),
        "model.tables_s": b("model.tables"),
        "model.segment_points_s": b("model.segment_points"),
        "model.level_solves": c("model.level_solves"),
        "model.F_grid_calls": c("model.F_grid_calls"),
        "model.F_grid_s": b("model.F_grid"),
        "model.f_grid_s": b("model.f_grid"),
        "model.density_calls": c("model.density_calls"),
        "frailty.lst_calls": c("frailty.lst_calls"),
        "frailty.lst_s": b("frailty.lst"),
        "simulate.shards": c("simulate.shards"),
        "simulate.shard_s": b("simulate.shard"),
        "simulate.invert_s": b("simulate.invert"),
        "simulate.invert_elements": c("simulate.invert_elements"),
        "simulate.load_evals": c("simulate.load_evals"),
        "simulate.csv_write_s": b("simulate.csv_write"),
        "simulate.csv_read_s": b("simulate.csv_read"),
        "identifiability.objective_evals": c("identifiability.objective_evals"),
        "identifiability.objective_s": b("identifiability.objective"),
        "identifiability.optimizer_self_s": b("identifiability.optimizer"),
        "identifiability.unpack_s": b("identifiability.unpack"),
        "identifiability.loglik_s": b("identifiability.loglik"),
        "identifiability.probe_grid_s": b("identifiability.probe_grid"),
        "identifiability.lst_sequence_s": b("identifiability.lst_sequence"),
        "cli.self_s": float(layer.get("cli", 0.0)),
    }
