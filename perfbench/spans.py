"""Tracing from outside the program: spans around the public functions of
each latdisc layer, rebound at the module attribute their callers use.

A span records its name, start, end and parent. Counts (points, samples,
evaluations, failures) are derived from each call's arguments and return
value. Spans stay in memory; `layer_metrics` turns them into the per-layer
metrics once the traced repetitions are done. Self time is a span's
duration minus the durations of its direct children; the program is
single-threaded at one worker, so children never overlap.

The layers have no queue, so there is no waiting time to report.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict

from latdisc import convex, discrepancy, distance, harness

LAYERS = ("lattice", "reduction", "discrepancy", "distance", "convex", "montecarlo", "harness")
WITNESS_FAMILIES = ("dual-slab", "halfspace", "ball", "hull")
BODY_KINDS = {"Ball": "ball", "AxisBox": "box", "HPolytope": "hpoly", "VPolytope": "hull"}
BODY_KIND_DIMS = {"ball": (2, 3, 4), "box": (2, 3, 4), "hpoly": (2, 3, 4), "hull": (2, 3)}


def _metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    m: list[tuple[str, str]] = []

    def add(prefix: str, *stats: str) -> None:
        for s in stats:
            m.append((f"{prefix}.{s}", "s" if s.endswith("_s") else "count"))

    add("lattice.enumerate_points", "calls", "points", "self_s")
    add("reduction.spectral_test", "calls", "self_s")
    add("reduction.hyperplane_family", "self_s")
    add("reduction.shortest_dual_vectors", "self_s")
    for f in ("verify_thm1", "isotropic_lower_bound", "slab_witness"):
        add(f"discrepancy.{f}", "self_s")
    for f in ("count_points", "count_points_slab"):
        add(f"discrepancy.{f}", "calls", "self_s")
    for fam in WITNESS_FAMILIES:
        add(f"discrepancy.witness.{fam}", "attempted", "certified")
    m.append(("discrepancy.witness.certified_frac", "frac"))
    for f in ("box_fraction", "box_fractions_multi"):
        add(f"montecarlo.{f}", "calls", "samples", "self_s")
    for f in ("verify_prop1", "slab_union_volume"):
        add(f"distance.{f}", "self_s")
    add("distance.distance_norms", "calls", "self_s", "grid_cells", "mc_samples")
    add("distance.distance_norm", "calls")
    add("distance.covering_radius", "calls", "self_s", "evals", "unconverged")
    for kind in BODY_KIND_DIMS:
        add(f"convex.random_body.{kind}", "self_s")
    for kind, dims in BODY_KIND_DIMS.items():
        for d in dims:
            add(f"convex.offset_volumes.{kind}-d{d}", "self_s", "samples")
    for cls, dims in (("HPolytope", (2, 3, 4)), ("VPolytope", (2, 3))):
        for d in dims:
            add(f"convex.{cls}.dist_many_capped.d{d}", "calls", "points", "self_s", "failed")
    for f in ("steiner_volume", "parallel_volume_derivative_check"):
        add(f"convex.{f}", "self_s")
    add("harness.task", "count", "self_s", "max_s")
    add("harness.brute_force_min_dual_norm_sq", "self_s")
    add("harness.write_artifacts", "self_s")
    for layer in LAYERS:
        m.append((f"{layer}.self_s", "s"))
    m.append(("trace.overhead_frac", "frac"))
    return m


METRICS = _metric_names()


class Tracer:
    """In-memory spans; `install` rebinds the traced functions, `uninstall`
    puts the originals back."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []  # traced names the program no longer has

    # -- spans ---------------------------------------------------------
    def _start(self, name: str) -> dict:
        span = {
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def _end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._open.pop()

    def _current(self) -> str | None:
        return self.spans[self._open[-1]]["name"] if self._open else None

    def wrap(self, fn, name, counts=None, skip_inside: str | None = None):
        """`fn` timed as span `name` (a string, or a function of the call's
        arguments). `counts(args, kwargs, result)` returns the span's work
        counts: a plain key like "points" becomes "<span name>.points", a
        dotted key is a full metric name. Calls made from inside a
        `skip_inside` span pass through untraced."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if skip_inside is not None and (tracer._current() or "").startswith(skip_inside):
                return fn(*args, **kwargs)
            span = tracer._start(name if isinstance(name, str) else name(args, kwargs))
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._end(span)
            if counts is not None:
                try:
                    span["counts"] = counts(args, kwargs, out)
                except (AttributeError, IndexError, KeyError, TypeError):
                    tracer.missing.append(f"counts of {span['name']}")
            return out

        return traced

    def rebind(self, owner, attr: str, name, counts=None, skip_inside=None) -> None:
        """Replace `owner.attr` with its traced version. A function the
        program no longer has is listed in `missing`; its metrics read 0."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        self._saved.append((owner, attr, fn))
        setattr(owner, attr, self.wrap(fn, name, counts, skip_inside))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    # -- wiring --------------------------------------------------------
    def install(self) -> None:
        """Rebind every traced function where its callers look it up."""
        r = self.rebind
        for mod in (harness, discrepancy, distance):
            r(mod, "enumerate_points", "lattice.enumerate_points",
              lambda a, k, out: {"points": out.n})
            r(mod, "spectral_test", "reduction.spectral_test")
        for mod in (discrepancy, distance):
            r(mod, "hyperplane_family", "reduction.hyperplane_family")
        r(discrepancy, "shortest_dual_vectors", "reduction.shortest_dual_vectors")

        r(harness, "verify_thm1", "discrepancy.verify_thm1")
        r(discrepancy, "isotropic_lower_bound", "discrepancy.isotropic_lower_bound", _witness_counts)
        r(discrepancy, "slab_witness", "discrepancy.slab_witness")
        r(discrepancy, "count_points", "discrepancy.count_points")
        r(discrepancy, "count_points_slab", "discrepancy.count_points_slab")

        samples = lambda a, k, out: {"samples": out[1]}  # noqa: E731
        for mod in (discrepancy, convex):
            r(mod, "box_fraction", "montecarlo.box_fraction", samples)
        r(convex, "box_fractions_multi", "montecarlo.box_fractions_multi", samples)

        r(harness, "verify_prop1", "distance.verify_prop1")
        r(distance, "slab_union_volume", "distance.slab_union_volume")
        r(distance, "distance_norms", "distance.distance_norms", _norm_counts)
        r(harness, "distance_norm", "distance.distance_norm")
        r(distance, "covering_radius", "distance.covering_radius",
          lambda a, k, out: {"evals": out.n_evals, "unconverged": int(not out.converged)})

        r(harness, "random_body",
          lambda a, k: f"convex.random_body.{a[2] if len(a) > 2 else k['kind']}")
        r(harness, "offset_volumes",
          lambda a, k: f"convex.offset_volumes.{BODY_KINDS[type(a[0]).__name__]}-d{a[0].dim}",
          lambda a, k, out: {"samples": out[0].n_samples if out else 0})
        for cls in (convex.VPolytope, convex.HPolytope):
            # a hull measures its distances through its H-form; count them once, as the hull's
            r(cls, "dist_many_capped",
              lambda a, k, cls=cls.__name__: f"convex.{cls}.dist_many_capped.d{a[0].dim}",
              lambda a, k, out: {"points": len(a[1]), "failed": int(out[1])},
              skip_inside="convex.VPolytope.dist_many_capped")
        r(harness, "steiner_volume", "convex.steiner_volume")
        r(harness, "parallel_volume_derivative_check", "convex.parallel_volume_derivative_check")

        for task in ("run_lattice_task", "run_body_task", "run_thm2_task"):
            r(harness, task, "harness.task")
        r(harness, "brute_force_min_dual_norm_sq", "harness.brute_force_min_dual_norm_sq")
        r(harness, "write_artifacts", "harness.write_artifacts")

    # -- aggregation ---------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded so far; every name in
        METRICS is present, 0 where the workload never reached it."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        raw: dict[str, float] = defaultdict(float)
        task_max = 0.0
        for i, s in enumerate(self.spans):
            name, dur = s["name"], s["end"] - s["start"]
            self_s = dur - child_time[i]
            raw[f"{name}.calls"] += 1
            raw[f"{name}.self_s"] += self_s
            raw[f"{name.split('.')[0]}.self_s"] += self_s
            for key, value in s["counts"].items():
                raw[key if "." in key else f"{name}.{key}"] += value
            if name == "harness.task":
                task_max = max(task_max, dur)
        raw["harness.task.count"] = raw["harness.task.calls"]
        raw["harness.task.max_s"] = task_max
        attempted = sum(raw[f"discrepancy.witness.{f}.attempted"] for f in WITNESS_FAMILIES)
        certified = sum(raw[f"discrepancy.witness.{f}.certified"] for f in WITNESS_FAMILIES)
        raw["discrepancy.witness.certified_frac"] = certified / attempted if attempted else 0.0
        return {name: float(raw.get(name, 0.0)) for name, _ in METRICS if name != "trace.overhead_frac"}


def _witness_counts(args, kwargs, out) -> dict[str, int]:
    _, witnesses = out
    counts: dict[str, int] = defaultdict(int)
    for w in witnesses:
        counts[f"discrepancy.witness.{w.family}.attempted"] += 1
        counts[f"discrepancy.witness.{w.family}.certified"] += int(w.certified)
    return counts


def _norm_counts(args, kwargs, out) -> dict[str, int]:
    d = args[0].dim
    finite = [r for g, r in out.items() if not math.isinf(g)]
    grid = next((r for r in finite if r.method == "grid"), None)
    return {
        "grid_cells": grid.resolution**d if grid else 0,
        "mc_samples": finite[0].n_samples if finite else 0,
    }
