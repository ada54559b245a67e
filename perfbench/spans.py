"""Span recording for the traced run, from outside the library.

Each layer's public functions are replaced by recorders in every module
namespace that binds them (``verify``, ``solutions`` and ``cli`` import
``mc_mean``, ``a_norm``, ``domain_from_json`` and the like by name, so
patching only the defining module would miss those calls).
``SolutionField.__call__`` is timed at class level, and ``Domain.indicator``
by wrapping the domains that the public constructors return.

A span records its name, start, end, parent and invocation id, plus
counts taken from the wrapped call's arguments and return value.  Spans
stay in memory until the run ends.  ``layer_metrics`` turns them into the
per-layer metrics; a span's self time is its duration minus the part of
its interval that its children cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

VERIFY_CHECKS = (
    "make_problem", "default_family", "check_mean_value_formula", "check_identity",
    "check_size_condition", "characterize", "proof_discrepancy", "membrane_counterexample",
    "kuran_limit_check", "flux_identity_check", "theorem1_identity_check",
)
DOMAIN_CONSTRUCTORS = ("ball", "box", "difference", "translate", "custom_domain")
SOLUTION_FUNCTIONS = ("solution_from_json", "plane_wave", "radial_solution",
                      "modified_radial_solution", "membrane_eigenfunction")
SERIES_CUTOFF = 12.0  # specfun switches from the power series to recurrence above max(12, m)


class Span:
    __slots__ = ("name", "start", "end", "parent", "invocation", "error", "counts")

    def __init__(self, name, parent, invocation, counts):
        self.name, self.parent, self.invocation, self.counts = name, parent, invocation, counts
        self.start = self.end = 0.0
        self.error = False

    def to_dict(self, index: int) -> dict:
        return {"id": index, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "invocation": self.invocation, "error": self.error,
                "counts": self.counts}


class _Counted:
    """Integrand proxy that counts the points a quadrature rule evaluates."""

    __slots__ = ("fn", "n")

    def __init__(self, fn):
        self.fn, self.n = fn, 0

    def __call__(self, pts):
        self.n += 1 if np.ndim(pts) == 1 else len(pts)
        return self.fn(pts)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.invocation = -1
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, before=None, after=None):
        """Recorder around fn.  before(counts, args, kwargs) may return
        replacement (args, kwargs); after(counts, result) reads the result."""
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            counts: dict = {}
            if before is not None:
                args, kwargs = before(counts, args, kwargs) or (args, kwargs)
            span = Span(name, stack[-1] if stack else None, self.invocation, counts)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if after is not None:
                after(counts, result)
            return result

        return recorded

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, modules, original, replacement):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)

    def install(self, package: str = "helmholtz_means"):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        mod = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        cli, verify, quad = mod["cli"], mod["verify"], mod["quadrature"]
        geom, sol, spec = mod["geometry"], mod["solutions"], mod["specfun"]

        def rebind(module, fname, name, before=None, after=None):
            original = getattr(module, fname)
            self._rebind(modules, original, self.wrap(name, original, before, after))

        rebind(cli, "main", "cli.main")
        for fname in VERIFY_CHECKS:
            rebind(verify, fname, f"verify.{fname}", after=_count_reports(verify))

        for fname in ("mc_mean", "mc_integral"):
            rebind(quad, fname, f"quadrature.{fname}", *_mc_counters(getattr(quad, fname), fname))
        for fname in ("ball_mean", "box_mean", "surface_flux", "surface_flux_error"):
            rebind(quad, fname, f"quadrature.{fname}", *_integrand_counters())

        for fname in DOMAIN_CONSTRUCTORS:
            original = getattr(geom, fname)
            self._rebind(modules, original, self._recording_constructor(original))
        rebind(geom, "domain_from_json", "geometry.domain_from_json")
        rebind(geom, "volume", "geometry.volume", before=_volume_counter(geom.volume))
        for fname in ("equivalent_radius", "circumradius_about", "exact_circumradius"):
            rebind(geom, fname, f"geometry.{fname}")

        field_call = sol.SolutionField.__call__
        self._set(sol.SolutionField, "__call__",
                  self.wrap("solutions.eval", field_call, before=_field_points))
        for fname in SOLUTION_FUNCTIONS:
            rebind(sol, fname, f"solutions.{fname}")

        for fname in ("a_norm", "b_norm"):
            rebind(spec, fname, f"specfun.{fname}", before=_kernel_points)
        for fname in ("bessel_j", "bessel_i"):
            rebind(spec, fname, f"specfun.{fname}", before=_bessel_points)
        rebind(spec, "bessel_zero", "specfun.bessel_zero")

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _recording_constructor(self, constructor):
        """Domain constructor whose domains record their indicator calls."""
        @functools.wraps(constructor)
        def build(*args, **kwargs):
            d = constructor(*args, **kwargs)
            object.__setattr__(d, "indicator", self.wrap(
                "geometry.indicator", d.indicator, before=_indicator_points))
            return d
        return build

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps(span.to_dict(i), default=repr) + "\n")


# ---------------------------------------------------------------------------
# counters: each reads only the wrapped call's arguments and result


def _count_reports(verify):
    report_type = verify.VerificationReport

    def after(counts, result):
        items = result if isinstance(result, list) else [result]
        counts["reports"] = sum(isinstance(r, report_type) for r in items)
    return after


def _mc_counters(fn, fname):
    sig = inspect.signature(fn)

    def before(counts, args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        counts["drawn"] = int(bound.arguments["samples"])
        lo, hi = bound.arguments["d"].bounding_box
        counts["box_volume"] = float(np.prod(hi - lo))

    def after(counts, result):
        if fname == "mc_mean":
            counts["accepted"] = int(result.samples_or_nodes)
        else:  # (integral, error, volume, volume error): volume = box volume * accepted / drawn
            counts["accepted"] = round(result[2] / counts["box_volume"] * counts["drawn"])
    return before, after


def _integrand_counters():
    def before(counts, args, kwargs):
        proxy = _Counted(args[0])
        counts["proxy"] = proxy
        return (proxy,) + tuple(args[1:]), kwargs

    def after(counts, result):
        counts["evals"] = counts.pop("proxy").n
    return before, after


def _indicator_points(counts, args, kwargs):
    counts["points"] = len(args[0])


def _volume_counter(fn):
    sig = inspect.signature(fn)

    def before(counts, args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        d = bound.arguments["d"]
        counts["mc"] = d.analytic_volume is None
        desc = json.dumps(d.description, sort_keys=True) if d.description else f"id:{id(d)}"
        counts["key"] = [desc, int(bound.arguments["samples"]), int(bound.arguments["seed"])]
    return before


def _field_points(counts, args, kwargs):
    pts = args[1] if len(args) > 1 else kwargs["points"]
    counts["points"] = 1 if np.ndim(pts) <= 1 else len(pts)


def _kernel_points(counts, args, kwargs):
    m = args[0] if args else kwargs["m"]
    t = np.asarray(args[1] if len(args) > 1 else kwargs["t"], dtype=float)
    counts["points"] = int(t.size)
    counts["series"] = int(np.count_nonzero(t <= max(SERIES_CUTOFF, float(m))))


def _bessel_points(counts, args, kwargs):
    t = args[1] if len(args) > 1 else kwargs["t"]
    counts["points"] = int(np.size(t))


# ---------------------------------------------------------------------------
# per-layer metrics


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals
    (clipped to the span)."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted((max(spans[c].start, s.start), min(spans[c].end, s.end))
                             for c in children[i]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics over every span recorded (see the package README)."""
    selfs = self_times(spans)
    m: dict[str, float] = defaultdict(float)

    def under(i: int, name: str) -> bool:
        p = spans[i].parent
        while p is not None:
            if spans[p].name == name:
                return True
            p = spans[p].parent
        return False

    seen_volumes = set()
    for i, s in enumerate(spans):
        name, c, own = s.name, s.counts, selfs[i]
        dur = s.end - s.start
        layer = name.split(".", 1)[0]
        parent_name = spans[s.parent].name if s.parent is not None else ""
        if name == "cli.main":
            m["cli.self_s"] += own
        elif layer == "verify":
            m["verify.calls"] += 1
            m["verify.reports"] += c.get("reports", 0)
            m["verify.errors"] += s.error
            m["verify.self_s"] += own
        elif name == "quadrature.mc_mean":
            m["quadrature.mc_calls"] += 1
            m["quadrature.mc_points_drawn"] += c["drawn"]
            m["quadrature.mc_points_accepted"] += c.get("accepted", 0)
            m["quadrature.mc_self_s"] += own
        elif name == "quadrature.mc_integral":
            m["quadrature.mc_integral_points_drawn"] += c["drawn"]
            m["mc_integral_accepted"] += c.get("accepted", 0)
            m["quadrature.mc_integral_self_s"] += own
        elif name in ("quadrature.ball_mean", "quadrature.box_mean"):
            m["quadrature.spectral_calls"] += 1
            m["quadrature.spectral_evals"] += c.get("evals", 0)
            m["quadrature.spectral_self_s"] += own
        elif name in ("quadrature.surface_flux", "quadrature.surface_flux_error"):
            m["quadrature.flux_evals"] += c.get("evals", 0)
            m["quadrature.flux_self_s"] += own
        elif name == "geometry.indicator":
            if parent_name != "geometry.indicator":
                m["geometry.indicator_points"] += c["points"]
            m["geometry.indicator_self_s"] += own
        elif name in ("geometry.volume", "geometry.equivalent_radius"):
            m["geometry.volume_self_s"] += own
            if name == "geometry.volume" and c["mc"]:
                m["geometry.volume_mc_calls"] += 1
                key = (s.invocation, json.dumps(c["key"]))
                m["geometry.volume_mc_repeats"] += key in seen_volumes
                seen_volumes.add(key)
        elif name == "geometry.circumradius_about":
            m["geometry.circumradius_sampled_s"] += dur
        elif name == "solutions.eval":
            m["solutions.eval_points"] += c["points"]
            m["solutions.eval_self_s"] += own
        elif name in ("specfun.a_norm", "specfun.b_norm"):
            m["specfun.kernel_calls"] += 1
            m["specfun.kernel_points"] += c["points"]
            m["specfun.series_points"] += c["series"]
            m["specfun.recurrence_points"] += c["points"] - c["series"]
            m["specfun.kernel_self_s"] += own
            m["kernel_inclusive_s"] += dur
        elif name in ("specfun.bessel_j", "specfun.bessel_i"):
            m["specfun.bessel_self_s"] += own
            if name == "specfun.bessel_j" and under(i, "specfun.bessel_zero"):
                m["specfun.zero_bessel_calls"] += 1
        elif name == "specfun.bessel_zero":
            m["specfun.zero_calls"] += 1
            m["specfun.zero_s"] += dur
        if (layer == "specfun" and name != "specfun.bessel_zero"
                and not parent_name.startswith("specfun.") and c.get("points") == 1):
            m["specfun.scalar_calls"] += 1

    m["quadrature.mc_accept_ratio"] = _ratio(
        m["quadrature.mc_points_accepted"], m["quadrature.mc_points_drawn"])
    m["quadrature.mc_integral_accept_ratio"] = _ratio(
        m.pop("mc_integral_accepted", 0.0), m["quadrature.mc_integral_points_drawn"])
    m["geometry.indicator_ns_per_point"] = 1e9 * _ratio(
        m["geometry.indicator_self_s"], m["geometry.indicator_points"])
    m["solutions.eval_ns_per_point"] = 1e9 * _ratio(
        m["solutions.eval_self_s"], m["solutions.eval_points"])
    m["specfun.kernel_ns_per_point"] = 1e9 * _ratio(
        m.pop("kernel_inclusive_s", 0.0), m["specfun.kernel_points"])
    return {k: float(m[k]) for k in METRIC_NAMES}


# name -> unit, in BENCHMARK.json order (trace.overhead_frac is added by the child)
METRIC_NAMES = {
    "cli.self_s": "s",
    "verify.calls": "count",
    "verify.reports": "count",
    "verify.errors": "count",
    "verify.self_s": "s",
    "quadrature.mc_calls": "count",
    "quadrature.mc_points_drawn": "count",
    "quadrature.mc_points_accepted": "count",
    "quadrature.mc_accept_ratio": "ratio",
    "quadrature.mc_self_s": "s",
    "quadrature.mc_integral_points_drawn": "count",
    "quadrature.mc_integral_accept_ratio": "ratio",
    "quadrature.mc_integral_self_s": "s",
    "quadrature.spectral_calls": "count",
    "quadrature.spectral_evals": "count",
    "quadrature.spectral_self_s": "s",
    "quadrature.flux_evals": "count",
    "quadrature.flux_self_s": "s",
    "geometry.indicator_points": "count",
    "geometry.indicator_self_s": "s",
    "geometry.indicator_ns_per_point": "ns/point",
    "geometry.volume_mc_calls": "count",
    "geometry.volume_mc_repeats": "count",
    "geometry.volume_self_s": "s",
    "geometry.circumradius_sampled_s": "s",
    "solutions.eval_points": "count",
    "solutions.eval_self_s": "s",
    "solutions.eval_ns_per_point": "ns/point",
    "specfun.kernel_calls": "count",
    "specfun.kernel_points": "count",
    "specfun.series_points": "count",
    "specfun.recurrence_points": "count",
    "specfun.scalar_calls": "count",
    "specfun.kernel_self_s": "s",
    "specfun.kernel_ns_per_point": "ns/point",
    "specfun.bessel_self_s": "s",
    "specfun.zero_calls": "count",
    "specfun.zero_bessel_calls": "count",
    "specfun.zero_s": "s",
}
