"""Spans around isoppp's layer boundaries, recorded from outside the package.

``Tracer.install()`` replaces the names each calling module resolves at call
time (for example ``analytic.arctan_kernel`` or ``mcsim.truncation_radius``)
with wrappers that record a span: layer name, start, end and the index of
the enclosing span.  Shape and fading callables cannot be patched on a
module, so the public entry points swap them for wrapped copies made with
``dataclasses.replace``.  A wrapper called while a span of the same name is
open calls straight through, so nested calls are counted once.

Spans are appended to in-memory arrays while the workload runs and
aggregated (or written to disk) only after it ends.
"""

from __future__ import annotations

import dataclasses
import time
from array import array

import numpy as np

from isoppp import analytic, applications, bounds, cli, mcsim, outage, shapes

TAIL_NAMES = {
    shapes.TailKind.COMPACT_SUPPORT: "compact",
    shapes.TailKind.EXPONENTIAL_DECAY: "exponential",
    shapes.TailKind.POWER_DECAY: "power",
    shapes.TailKind.NON_DECAYING: "non_decaying",
    shapes.TailKind.LOG_DECAY: "log",
}

# the public functions the workloads (and the CLI commands they run) call
_ENTRY_POINTS = {
    "outage": (outage, ("outage_exact",)),
    "applications": (
        applications,
        ("local_transmission_capacity", "fh_ds_gain", "csma_accuracy_loss",
         "csma_large_scale_density"),
    ),
    "bounds": (bounds, ("subharmonic_region", "lower_tail_bound", "markov_upper_tail")),
}
# other modules that resolve the same entry points under their own names
_ENTRY_ALIASES = ((applications, "outage_exact", "outage"),)
_DRIVING_USERS = (analytic, applications, bounds, mcsim)
_QUAD_USERS = (
    (analytic, "integrate_semi_infinite"),
    (bounds, "integrate_interval"),
    (bounds, "integrate_semi_infinite"),
    (mcsim, "integrate_interval"),
    (mcsim, "integrate_semi_infinite"),
)


class Tracer:
    """Records spans; ``install``/``uninstall`` patch and restore isoppp."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.points = array("q")  # array size, evaluations or trials, per span
        self.flag = array("b")  # 1 marks an unconverged quadrature
        self._stack: list[int] = []
        self._open_names: dict[int, int] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._wrapped: dict[int, tuple[object, object]] = {}  # id(original) -> (original, copy)
        self._copies: set[int] = set()

    # -- span recording -------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str, fn, *args, count=None, **kwargs):
        """Call fn inside a span; ``count(args, result)`` sets its point count."""
        nid = self._id(name)
        if self._open_names.get(nid):
            return fn(*args, **kwargs)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.points.append(0)
        self.flag.append(0)
        self._stack.append(idx)
        self._open_names[nid] = 1
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()
            self._open_names[nid] = 0
        if count is not None:
            self.points[idx], self.flag[idx] = count(args, result)
        return result

    # -- wrappers -------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _timed(self, name: str, fn, count=None):
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, count=count, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def shape(self, shape):
        """Copy of ``shape`` whose F and f evaluations record spans."""
        hit = self._wrapped.get(id(shape))
        if hit is not None:
            return hit[1]
        if id(shape) in self._copies:
            return shape
        traced = dataclasses.replace(
            shape,
            eval_f=self._timed("shapes.eval", shape.eval_f, _size_count),
            eval_deriv=self._timed("shapes.eval", shape.eval_deriv, _size_count),
        )
        return self._remember(shape, traced)

    def channel(self, channel):
        """Copy of ``channel`` whose fading sampler records spans."""
        hit = self._wrapped.get(id(channel))
        if hit is not None:
            return hit[1]
        if channel.fading.sampler is None or id(channel) in self._copies:
            return channel
        fading = dataclasses.replace(
            channel.fading, sampler=self._timed("mcsim.fading", channel.fading.sampler)
        )
        traced = dataclasses.replace(channel, fading=fading)
        return self._remember(channel, traced)

    def _remember(self, original, copy):
        # holding the original keeps its id from being reused by a new object
        self._wrapped[id(original)] = (original, copy)
        self._copies.add(id(copy))
        return copy

    def _swap_args(self, args, kwargs):
        def swap(v):
            if isinstance(v, shapes.ShapeFunction):
                return self.shape(v)
            if isinstance(v, analytic.ChannelModel):
                return self.channel(v)
            return v

        return [swap(a) for a in args], {k: swap(v) for k, v in kwargs.items()}

    def _entry(self, name: str, fn):
        def wrapper(*args, **kwargs):
            args, kwargs = self._swap_args(args, kwargs)
            return self.span(name, fn, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _driving(self, fn):
        def wrapper(shape, *args, **kwargs):
            shape = self.shape(shape)
            return self.span("analytic.driving." + TAIL_NAMES[shape.tail.kind], fn, shape,
                             *args, **kwargs)

        return wrapper

    def _sampler_class(self, cls):
        tracer = self

        def build(*args, **kwargs):
            sampler = tracer.span("mcsim.sampler_build", cls, *args, **kwargs)
            sampler.sample = tracer._timed("mcsim.sample", sampler.sample, _sample_count)
            return sampler

        return build

    def install(self) -> None:
        for layer, (module, names) in _ENTRY_POINTS.items():
            for fname in names:
                self._patch(module, fname, self._entry(layer, getattr(module, fname)))
        for module, fname, layer in _ENTRY_ALIASES:
            self._patch(module, fname, getattr(_ENTRY_POINTS[layer][0], fname))
        for module in (analytic, cli):
            self._patch(module, "mean_interference",
                        self._entry("analytic.entry", module.mean_interference))
        self._patch(mcsim, "simulate", self._entry("mcsim.simulate", mcsim.simulate))
        self._patch(cli, "shapes", _ShapesProxy(self))
        self._patch(applications, "csma_shape",
                    lambda *a, _f=applications.csma_shape: self.shape(_f(*a)))
        driving = self._driving(analytic.interference_driving)
        for module in _DRIVING_USERS:
            self._patch(module, "interference_driving", driving)
        for kname in ("arctan_kernel", "asinh_kernel"):
            self._patch(analytic, kname,
                        self._timed("numerics.kernel", getattr(analytic, kname), _size_count))
        for module, fname in _QUAD_USERS:
            self._patch(module, fname,
                        self._timed("numerics.quad", getattr(module, fname), _quad_count))
        self._patch(mcsim, "truncation_radius",
                    self._timed("mcsim.truncation", mcsim.truncation_radius))
        self._patch(mcsim, "PointProcessSampler", self._sampler_class(mcsim.PointProcessSampler))
        self._patch(np.random, "default_rng", self._timed("mcsim.rng_init", np.random.default_rng))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        self._wrapped.clear()
        self._copies.clear()

    # -- aggregation ----------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays: name ids, parents, durations, self times,
        point counts and flags."""
        n = len(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int32)[:n].astype(np.int64)
        start = np.frombuffer(self.start, dtype=np.float64)[:n]
        dur = np.frombuffer(self.end, dtype=np.float64)[:n] - start
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return (
            np.frombuffer(self.name_id, dtype=np.int32)[:n],
            parent,
            dur,
            dur - child,
            np.frombuffer(self.points, dtype=np.int64)[:n],
            np.frombuffer(self.flag, dtype=np.int8)[:n],
        )

    def save(self, path) -> None:
        name_id, parent, _, _, points, flag = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=name_id,
            parent=parent,
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            points=points,
            flag=flag,
        )


class _ShapesProxy:
    """Stands in for the ``shapes`` module inside ``cli`` so the shapes the
    CLI builds from descriptors are traced."""

    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(shapes, name)

    def from_descriptor(self, descriptor):
        return self._tracer.shape(shapes.from_descriptor(descriptor))


def _size_count(args, result):
    return int(np.size(args[0])), 0


def _quad_count(args, result):
    return int(result.evaluations), int(not result.converged)


def _sample_count(args, result):
    return int(result[0].size), 0


# per-layer metric name -> (span name prefix, statistic, unit)
_LAYER_STATS = {
    "shapes.eval_calls": ("shapes.eval", "calls", "count"),
    "shapes.eval_points": ("shapes.eval", "points", "count"),
    "shapes.eval_s": ("shapes.eval", "s", "s"),
    "numerics.kernel_calls": ("numerics.kernel", "calls", "count"),
    "numerics.kernel_points": ("numerics.kernel", "points", "count"),
    "numerics.kernel_s": ("numerics.kernel", "s", "s"),
    "numerics.quad_calls": ("numerics.quad", "calls", "count"),
    "numerics.quad_evals": ("numerics.quad", "points", "count"),
    "numerics.quad_s": ("numerics.quad", "s", "s"),
    "numerics.quad_self_s": ("numerics.quad", "self_s", "s"),
    "numerics.quad_unconverged": ("numerics.quad", "flags", "count"),
    "analytic.driving_calls": ("analytic.driving.", "calls", "count"),
    "analytic.driving_s": ("analytic.driving.", "s", "s"),
    "analytic.driving_self_s": ("analytic.driving.", "self_s", "s"),
    **{
        f"analytic.driving_s.{tail}": (f"analytic.driving.{tail}", "s", "s")
        for tail in ("compact", "exponential", "power", "non_decaying")
    },
    **{
        f"{layer}.{stat}": (layer, stat, "count" if stat == "calls" else "s")
        for layer in ("outage", "applications", "bounds")
        for stat in ("calls", "self_s")
    },
    "mcsim.truncation_calls": ("mcsim.truncation", "calls", "count"),
    "mcsim.truncation_s": ("mcsim.truncation", "s", "s"),
    "mcsim.sampler_builds": ("mcsim.sampler_build", "calls", "count"),
    "mcsim.sampler_build_s": ("mcsim.sampler_build", "s", "s"),
    "mcsim.rng_inits": ("mcsim.rng_init", "calls", "count"),
    "mcsim.rng_init_s": ("mcsim.rng_init", "s", "s"),
    "mcsim.sample_calls": ("mcsim.sample", "calls", "count"),
    "mcsim.sample_points": ("mcsim.sample", "points", "count"),
    "mcsim.sample_s": ("mcsim.sample", "s", "s"),
    "mcsim.fading_calls": ("mcsim.fading", "calls", "count"),
    "mcsim.fading_s": ("mcsim.fading", "s", "s"),
    "mcsim.simulate_self_s": ("mcsim.simulate", "self_s", "s"),
}


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Totals per layer over every recorded span: {metric: (value, unit)}."""
    name_id, _, dur, self_t, points, flag = tracer.arrays()
    out = {}
    for metric, (prefix, stat, unit) in _LAYER_STATS.items():
        ids = [i for i, n in enumerate(tracer.names)
               if n == prefix or (prefix.endswith(".") and n.startswith(prefix))]
        mask = np.isin(name_id, ids)
        value = {
            "calls": lambda: int(mask.sum()),
            "points": lambda: int(points[mask].sum()),
            "flags": lambda: int(flag[mask].sum()),
            "s": lambda: float(dur[mask].sum()),
            "self_s": lambda: float(self_t[mask].sum()),
        }[stat]()
        out[metric] = (value, unit)
    calls = out["mcsim.sample_calls"][0]
    out["mcsim.points_per_trial"] = (
        out["mcsim.sample_points"][0] / calls if calls else 0.0, "points/trial")
    return out
