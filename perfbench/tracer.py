"""Spans and counts around osctomo's public functions, installed from outside.

``Tracer.install`` replaces each traced function at every place the
package binds it (``solve_epsilon`` lives in ``dynamics`` but is also a
global of ``propagators``, ``cli``, ``selftest`` and the package root)
and each traced method on its class.  ``uninstall`` puts the originals
back.  No source file of the package is touched.

A span is ``(id, parent, name, start, end, request, nested)``: ``nested``
is true when a span of the same name encloses it, so busy time is not
counted twice.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import osctomo
from osctomo import cli, dynamics, figures, invariants, propagators, states, transforms


def _bound(fn, args, kwargs):
    try:
        return inspect.signature(fn).bind(*args, **kwargs).arguments
    except TypeError:
        return {}


def _count_steps(fn, args, kwargs, result, counts):
    a = _bound(fn, args, kwargs)
    if "t_end" in a and "step" in a:
        counts["dynamics.solve_epsilon.steps"] += max(1, round(a["t_end"] / a["step"]))
    drift = float(getattr(result, "max_wronskian_drift", 0.0))
    counts["dynamics.max_wronskian_drift"] = max(counts["dynamics.max_wronskian_drift"], drift)


def _count_grid_nodes(fn, args, kwargs, result, counts):
    traj = _bound(fn, args, kwargs).get("traj")
    if traj is not None:
        counts["dynamics.beta_shift.grid_nodes"] += len(traj.t)


def _points(name):
    def count(fn, args, kwargs, result, counts):
        counts[name + ".points"] += np.size(result)

    return count


def _count_kernel(fn, args, kwargs, result, counts):
    rho = _bound(fn, args, kwargs).get("rho")
    if rho is not None:
        counts["transforms.mdf_from_density.kernel_elements"] += rho.n**2


def _count_tomogram_points(fn, args, kwargs, result, counts):
    a = _bound(fn, args, kwargs)
    quad = a.get("quad") or transforms.QuadratureSpec()
    counts["transforms.density_grid_from_mdf.tomogram_points"] += (
        a.get("n", 0) * quad.mu_count * quad.y_count
    )


def _count_bytes(fn, args, kwargs, result, counts):
    counts["figures.write_figure.bytes"] += sum(Path(p).stat().st_size for p in result)


def targets():
    """(owner, attribute, span name, counter) for every traced callable."""
    prop = propagators.ClassicalPropagator
    return [
        (cli, "main", "cli.main", None),
        (dynamics, "solve_epsilon", "dynamics.solve_epsilon", _count_steps),
        (dynamics, "beta_shift", "dynamics.beta_shift", _count_grid_nodes),
        (dynamics.EpsilonTrajectory, "__call__", "dynamics.EpsilonTrajectory.call", None),
        (invariants, "linear_invariant", "invariants.linear_invariant", None),
        (prop, "frame_map", "propagators.frame_map", None),
        (prop, "evolve", "propagators.evolve", None),
        (propagators, "quantum_propagator", "propagators.quantum_propagator", None),
        (propagators, "green_driven", "propagators.green_driven", None),
        (states, "coherent_mdf", "states.coherent_mdf", _points("states.coherent_mdf")),
        (states, "fock_mdf", "states.fock_mdf", _points("states.fock_mdf")),
        (
            states,
            "coherent_wavefunction",
            "states.coherent_wavefunction",
            _points("states.coherent_wavefunction"),
        ),
        (transforms, "mdf_from_density", "transforms.mdf_from_density", _count_kernel),
        (transforms, "mdf_from_wigner", "transforms.mdf_from_wigner", None),
        (
            transforms,
            "density_grid_from_mdf",
            "transforms.density_grid_from_mdf",
            _count_tomogram_points,
        ),
        (transforms, "density_from_mdf", "transforms.density_from_mdf", None),
        (transforms.DensityGrid, "__post_init__", "transforms.grid_validation", None),
        (transforms.WignerGrid, "__post_init__", "transforms.grid_validation", None),
        (figures, "figure_table", "figures.figure_table", None),
        (figures, "gaussian_slice_residual", "figures.validation", None),
        (figures, "count_near_zero_minima", "figures.validation", None),
        (figures, "time_independence_residual", "figures.validation", None),
        (figures, "write_figure", "figures.write_figure", _count_bytes),
    ]


COUNTERS = (
    "dynamics.solve_epsilon.steps",
    "dynamics.max_wronskian_drift",
    "dynamics.beta_shift.grid_nodes",
    "states.coherent_mdf.points",
    "states.fock_mdf.points",
    "states.coherent_wavefunction.points",
    "transforms.mdf_from_density.kernel_elements",
    "transforms.density_grid_from_mdf.tomogram_points",
    "figures.write_figure.bytes",
)


def zero_metrics() -> dict[str, float]:
    """Every name summary() can report, at zero: what a run that never calls a layer shows."""
    names = {name for _, _, name, _ in targets()}
    out = {f"{name}.{q}": 0.0 for name in names for q in ("calls", "busy_s", "self_s")}
    out.update({f"{name.split('.')[0]}.self_share": 0.0 for name in names})
    out.update(dict.fromkeys(COUNTERS, 0.0))
    return out


def _package_modules():
    prefix = osctomo.__name__ + "."
    return [m for name, m in list(sys.modules.items()) if name == osctomo.__name__ or name.startswith(prefix)]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.request = 0
        self._stack: list[int] = []
        self._depth: defaultdict[str, int] = defaultdict(int)
        self._next_id = 1
        self._patches: list[tuple] = []

    def _open(self, name):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else 0
        nested = self._depth[name] > 0
        self._stack.append(sid)
        self._depth[name] += 1
        return sid, parent, nested, time.perf_counter()

    def _close(self, name, sid, parent, nested, start):
        end = time.perf_counter()
        self._stack.pop()
        self._depth[name] -= 1
        self.spans.append((sid, parent, name, start, end, self.request, nested))

    def request_span(self, request_id: int, fn):
        """Run fn() inside a root span named 'request'."""
        self.request = request_id
        token = self._open("request")
        try:
            return fn()
        finally:
            self._close("request", *token)

    def _wrap(self, name, fn, counter):
        tracer = self

        def traced(*args, **kwargs):
            token = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, *token)
            if counter is not None:
                counter(fn, args, kwargs, result, tracer.counts)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = _package_modules()
        for owner, attr, name, counter in targets():
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original, counter)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def summary(self, wall_s: float) -> dict[str, float]:
        """Per-span-name calls, busy and self time, per-layer self share."""
        child_time: defaultdict[int, float] = defaultdict(float)
        for sid, parent, name, start, end, _, _ in self.spans:
            child_time[parent] += end - start
        out: defaultdict[str, float] = defaultdict(float)
        layer_self: defaultdict[str, float] = defaultdict(float)
        top = 0.0
        request_ids = {s[0] for s in self.spans if s[2] == "request"}
        for sid, parent, name, start, end, _, nested in self.spans:
            if name == "request":
                continue
            dur = end - start
            self_time = dur - child_time[sid]
            out[name + ".calls"] += 1
            if not nested:
                out[name + ".busy_s"] += dur
            out[name + ".self_s"] += self_time
            layer_self[name.split(".")[0]] += self_time
            if parent in request_ids:
                top += dur
        for layer, value in layer_self.items():
            out[layer + ".self_share"] = value / wall_s
        out["trace.top_span_share"] = top / wall_s
        out["trace.spans"] = len(self.spans)
        out.update(self.counts)
        return dict(out)

    def write(self, path: Path):
        with open(path, "w") as fh:
            for sid, parent, name, start, end, request, nested in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                            "request": request,
                            "nested": nested,
                        }
                    )
                    + "\n"
                )
