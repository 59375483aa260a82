"""Span tracer installed from outside the g2twistor package.

`install()` replaces each function or method named in TARGETS, and every
alias of it that a g2twistor module imported by name (for example
`twistor.christoffel` or `pointwise.transform`), with a wrapper that records
one span per call: (id, parent id, name, start, end).  Spans stay in memory;
`layer_metrics` turns the spans of one campaign into per-layer counts and
self times, and `dump` writes them out when the run ends.

Only the traced benchmark child imports this module, so untraced runs carry
no wrapper at all.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict

# span name -> attribute path below the g2twistor package
TARGETS = {
    "cli.run_campaign": "cli.run_campaign",
    "cli.write_reports": "cli.write_reports",
    "sampling.torus_points": "sampling.torus_points",
    "sampling.sphere_bundle_samples": "sampling.sphere_bundle_samples",
    "fields.point_data": "fields.StructureField.point_data",
    "fields.rho": "fields.StructureField.rho",
    "fields.christoffel": "fields.christoffel",
    "fields.levi_civita": "fields.levi_civita",
    "fields.exterior_derivative": "fields.exterior_derivative",
    "fields.calibrate_integrability": "fields.calibrate_integrability",
    "pointwise.G2Point.from_rho": "pointwise.G2Point.from_rho",
    "pointwise.su3_structure": "pointwise.su3_structure",
    "pointwise.lambda2_projectors": "pointwise.G2Point.lambda2_projectors",
    "forms.transform": "forms.transform",
    "forms.hodge_star": "forms.hodge_star",
    "forms.wedge": "forms.wedge",
    "forms.annihilator_basis": "forms.annihilator_basis",
    "twistor.twistor_point": "twistor.twistor_point",
    "twistor.frobenius_bracket": "twistor.frobenius_bracket",
    "twistor.involutivity_residual": "twistor.involutivity_residual",
    "twistor.vertical_curvature_obstruction": "twistor.vertical_curvature_obstruction",
    "twistor.omega_closure_residual": "twistor.omega_closure_residual",
    "twistor.flat_noise_floor": "twistor.flat_noise_floor",
    "instanton.cr_holomorphicity_residual": "instanton.cr_holomorphicity_residual",
    "instanton.is_g2_instanton": "instanton.is_g2_instanton",
}

# spans reported as inclusive seconds, under the metric name given; the
# outermost of them are the fixed cost that cli.sample_loop.s leaves out
INCLUSIVE = {
    "twistor.flat_noise_floor": "twistor.flat_noise_floor.s",
    "fields.calibrate_integrability": "fields.calibrate_integrability.s",
    "cli.write_reports": "cli.write_reports.s",
    "sampling.torus_points": "sampling.s",
    "sampling.sphere_bundle_samples": "sampling.s",
}
# spans reported with calls and self time: all but the root and INCLUSIVE
LAYERS = [name for name in TARGETS if name != "cli.run_campaign" and name not in INCLUSIVE]
# a cached call missed when its span has a child of the named kind
MISS_CHILD = {
    "fields.point_data": "pointwise.G2Point.from_rho",
    "fields.christoffel": "fields.point_data",
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches = []

    def wrap(self, name, fn):
        spans, local, ids, clock = self.spans, self._local, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else -1
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))

        return traced

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "g2twistor" or n.startswith("g2twistor.")]
        for name, path in TARGETS.items():
            mod_name, *owner_path, attr = path.split(".")
            owner = importlib.import_module(f"g2twistor.{mod_name}")
            for part in owner_path:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(owner, attr, classmethod(self.wrap(name, raw.__func__)))
            elif isinstance(raw, property):
                self._set(owner, attr, property(self.wrap(name, raw.fget)))
            elif owner_path:
                self._set(owner, attr, self.wrap(name, raw))
            else:
                wrapped = self.wrap(name, raw)
                # the defining module and every module that imported it by name
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            self._set(mod, key, wrapped)
        return self

    def restore(self):
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    def take(self):
        """The spans recorded since the last take, oldest end first."""
        out = self.spans[:]
        del self.spans[: len(out)]
        return out


def install():
    return Tracer().install()


def dump(spans, path):
    """Write spans as a tab-separated table: id, parent, name, start, end."""
    with open(path, "w") as fh:
        fh.write("id\tparent\tname\tstart\tend\n")
        for sid, parent, name, start, end in spans:
            fh.write(f"{sid}\t{parent}\t{name}\t{start!r}\t{end!r}\n")


def layer_metrics(spans):
    """Per-layer metrics of the spans of one campaign run.

    Self time is a span's duration minus the durations of its direct
    children.  `cli.sample_loop.s` is the run_campaign span minus the
    outermost calibration, sampling and report spans inside it.
    """
    by_id = {s[0]: s for s in spans}
    child_time = defaultdict(float)
    child_names = defaultdict(set)
    for sid, parent, name, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
            child_names[parent].add(name)

    calls = Counter()
    self_s = defaultdict(float)
    misses = Counter()
    inclusive = defaultdict(float)
    campaign_s = 0.0
    fixed_s = 0.0
    for sid, parent, name, start, end in spans:
        calls[name] += 1
        self_s[name] += (end - start) - child_time[sid]
        if MISS_CHILD.get(name) in child_names[sid]:
            misses[name] += 1
        if name == "cli.run_campaign" and parent < 0:
            campaign_s += end - start
        if name in INCLUSIVE:
            inclusive[INCLUSIVE[name]] += end - start
            if not _has_ancestor_in(by_id, parent, INCLUSIVE):
                fixed_s += end - start

    out = {}
    for name in LAYERS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
        if name in MISS_CHILD:
            out[f"{name}.misses"] = misses[name]
            out[f"{name}.hit_ratio"] = 1.0 - misses[name] / calls[name] if calls[name] else 0.0
    for metric in INCLUSIVE.values():
        out[metric] = inclusive[metric]
    out["cli.sample_loop.s"] = campaign_s - fixed_s
    return out


def _has_ancestor_in(by_id, sid, names):
    while sid >= 0:
        _, parent, name, _, _ = by_id[sid]
        if name in names:
            return True
        sid = parent
    return False
