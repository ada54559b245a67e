"""The mean-value identities and the ball-characterization test as
executable checks.

Every check returns a VerificationReport (or a list of them for the
composite bundles) with lhs, rhs, residual = lhs - rhs, a tolerance, an
error bar for the quadrature noise, a three-valued verdict, and a
diagnostics dict recording seeds, methods and resolutions.  Verdicts
never let sampling noise masquerade as a theorem violation: when the
error bar exceeds the tolerance the verdict is "inconclusive" rather
than "fail".

Topological hypotheses (connectedness of the complement) are not
computable here and are recorded as "assumed" in diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    Domain,
    _radius_of_volume,
    _require_counts,
    ball,
    box,
    circumradius_about,
    difference,
    exact_circumradius,
)
from .quadrature import (
    MONTE_CARLO,
    MeanRule,
    SampleRule,
    ball_mean,
    box_mean,
    mc_integral,
    mean_rule,
    surface_flux,
    surface_flux_error,
)
from .solutions import (
    HELMHOLTZ,
    MODIFIED_HELMHOLTZ,
    SolutionField,
    membrane_eigenfunction,
    modified_radial_solution,
    plane_wave,
    radial_solution,
)
from .specfun import a_norm, b_norm, bessel_zero

__all__ = [
    "VerificationReport",
    "CharacterizationProblem",
    "PASS",
    "FAIL",
    "INCONCLUSIVE",
    "derive_verdict",
    "make_problem",
    "check_mean_value_formula",
    "check_identity",
    "check_size_condition",
    "characterize",
    "default_family",
    "proof_discrepancy",
    "membrane_counterexample",
    "kuran_limit_check",
    "flux_identity_check",
    "theorem1_identity_check",
    "report_to_dict",
    "reports_to_csv",
]

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

IDENTITY_TOL_SPECTRAL = 1e-8
FLUX_REL_TOL = 1e-5


@dataclass
class VerificationReport:
    name: str
    lhs: float
    rhs: float
    residual: float
    tolerance: float
    error_bar: float
    verdict: str
    diagnostics: dict = field(default_factory=dict)


def derive_verdict(residual: float, tolerance: float, error_bar: float) -> str:
    """Pure verdict rule: inconclusive when noise exceeds the tolerance,
    otherwise pass iff |residual| <= tolerance + error_bar."""
    if error_bar > tolerance:
        return INCONCLUSIVE
    return PASS if abs(residual) <= tolerance + error_bar else FAIL


def _report(name, lhs, rhs, tolerance, error_bar, diagnostics, verdict=None) -> VerificationReport:
    residual = float(lhs) - float(rhs)
    if verdict is None:
        verdict = derive_verdict(residual, tolerance, error_bar)
    return VerificationReport(
        name=name,
        lhs=float(lhs),
        rhs=float(rhs),
        residual=residual,
        tolerance=float(tolerance),
        error_bar=float(error_bar),
        verdict=verdict,
        diagnostics=diagnostics,
    )


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x]
    if isinstance(x, (np.bool_, bool)):
        return bool(x)
    return x


def report_to_dict(r: VerificationReport) -> dict:
    return {
        "name": r.name,
        "lhs": r.lhs,
        "rhs": r.rhs,
        "residual": r.residual,
        "tolerance": r.tolerance,
        "error_bar": r.error_bar,
        "verdict": r.verdict,
        "diagnostics": _jsonable(r.diagnostics),
    }


def csv_table(header, rows) -> str:
    """CSV text with repr() for floats and str() for everything else."""
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else str(v) for v in row])
    return buf.getvalue()


def reports_to_csv(reports) -> str:
    """Flatten reports to CSV; diagnostics scalars become extra columns."""
    reports = list(reports)
    diag_keys = sorted(
        {
            k
            for r in reports
            for k, v in r.diagnostics.items()
            if isinstance(v, (int, float, str, bool, np.floating, np.integer))
        }
    )
    return csv_table(
        ["name", "lhs", "rhs", "residual", "tolerance", "error_bar", "verdict"] + diag_keys,
        (
            [r.name, r.lhs, r.rhs, r.residual, r.tolerance, r.error_bar, r.verdict]
            + [_jsonable(r.diagnostics.get(k, "")) for k in diag_keys]
            for r in reports
        ),
    )


# ---------------------------------------------------------------------------
# problem setup


@dataclass(frozen=True, eq=False)
class CharacterizationProblem:
    """Domain, wavenumber, candidate center, the volume-equivalent radius
    r (always recomputed from |D|), and the critical radius r0 with
    lambda * r0 = j_{m/2,1}.

    rules memoises the domain's mean rules by resolution; on a domain
    without an analytic volume it starts with the Monte Carlo rule whose
    draw gave |D|.  Problems made together share it.
    """

    domain: Domain
    lam: float
    x0: np.ndarray
    r: float
    r0: float
    volume: float
    volume_error: float
    seed: int = 0
    samples: int = 2_000_000
    rules: dict = field(default_factory=dict, repr=False)

    def rule(self, nodes, angular, box_nodes, samples, seed) -> MeanRule:
        """The domain's mean rule at this resolution, built once."""
        rule = mean_rule(self.domain, nodes, angular, box_nodes, samples, seed)
        return self.rules.setdefault(rule.resolution, rule)


def make_problem(domain: Domain, lam: float, x0, samples: int = 2_000_000, seed: int = 0) -> CharacterizationProblem:
    return _problems(domain, [lam], x0, samples, seed)[0]


def _problems(domain: Domain, lambdas, x0, samples: int, seed: int) -> list[CharacterizationProblem]:
    """One problem per wavenumber, sharing one |D| estimate and one j_{m/2,1}."""
    _require_counts(samples=samples)
    lambdas = [float(lam) for lam in lambdas]
    for lam in lambdas:
        if lam <= 0.0:
            raise ValueError(f"lambda must be > 0, got {lam}")
    m = domain.dimension
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (m,):
        raise ValueError(f"x0 must have shape ({m},), got {x0.shape}")
    if not domain.contains(x0):
        raise ValueError("x0 must lie inside the domain")
    rules = {}
    if domain.analytic_volume is None:
        mc = SampleRule(domain, samples, seed)
        rules[mc.resolution] = mc
        vol, verr = mc.volume()
    else:
        vol, verr = float(domain.analytic_volume), 0.0
    r = _radius_of_volume(vol, m)
    j = bessel_zero(0.5 * m, 1)
    return [
        CharacterizationProblem(domain=domain, lam=lam, x0=x0, r=r, r0=j / lam, volume=vol,
                                volume_error=verr, seed=seed, samples=samples, rules=rules)
        for lam in lambdas
    ]


# ---------------------------------------------------------------------------
# single-identity checks


def check_mean_value_formula(
    u: SolutionField,
    x,
    r: float,
    radial_nodes: int = 64,
    angular_resolution: int = 64,
    tolerance: float = IDENTITY_TOL_SPECTRAL,
) -> VerificationReport:
    """a_norm(m, lambda r) * u(x) against the volume mean of u over B_r(x)."""
    if u.equation != HELMHOLTZ:
        raise ValueError("the mean value formula applies to Helmholtz fields")
    x = np.asarray(x, dtype=float)
    est = ball_mean(u, x, r, radial_nodes=radial_nodes, angular_resolution=angular_resolution)
    lhs = a_norm(u.dimension, u.wavenumber * r) * u(x)
    return _report(
        "mean_value_formula",
        lhs,
        est.value,
        tolerance,
        est.abs_error_estimate,
        {
            "m": u.dimension,
            "lambda": u.wavenumber,
            "r": r,
            "lambda_r": u.wavenumber * r,
            "field": u.kind,
            "method": est.method,
            "nodes": est.samples_or_nodes,
        },
    )


def check_identity(
    u: SolutionField,
    p: CharacterizationProblem,
    nodes: int = 64,
    angular: int = 64,
    box_nodes: int = 32,
    samples: int = 2_000_000,
    seed: int = 0,
    tolerance: float | None = None,
) -> VerificationReport:
    """u(x0) * a_norm(m, lambda r) against M(u, D), on the problem's
    shared rule for this resolution.

    The error bar is the mean's (|fine - coarse|, or 3 sigma for Monte
    Carlo) plus, linearly since |D| comes from the same draw, the shift
    of the lhs under the |D| error bar through r = (|D| / omega_m)^(1/m):
    |u(x0)| |t a_norm(m+2, t) / (m+2)| lambda r volume_error / (m |D|),
    t = lambda r.  Spectral/Gauss paths default to tolerance 1e-8; Monte
    Carlo paths to the error bar, with inconclusive rather than fail when
    the bar dominates.
    """
    _require_counts(samples=samples)
    if u.equation != HELMHOLTZ:
        raise ValueError("identity (volume-mean form) applies to Helmholtz fields")
    if abs(u.wavenumber - p.lam) > 1e-12 * max(1.0, p.lam):
        raise ValueError(
            f"field wavenumber {u.wavenumber} differs from the problem's lambda {p.lam}"
        )
    est = p.rule(nodes, angular, box_nodes, samples, seed).mean(u)
    m, t = p.domain.dimension, p.lam * p.r
    u0 = u(p.x0)
    volume_term = (abs(u0) * abs(t * a_norm(m + 2, t) / (m + 2)) * p.lam * p.r
                   * p.volume_error / (m * p.volume))
    error_bar = est.abs_error_estimate + volume_term
    if tolerance is None:
        tolerance = error_bar if est.method == MONTE_CARLO else IDENTITY_TOL_SPECTRAL
    return _report(
        "identity",
        u0 * a_norm(m, t),
        est.value,
        tolerance,
        error_bar,
        {
            "m": m,
            "lambda": p.lam,
            "r": p.r,
            "field": u.kind,
            "method": est.method,
            "nodes_or_samples": est.samples_or_nodes,
            "volume_error_term": volume_term,
            "seed": est.seed,
            "volume_seed": p.seed,
            "domain_kind": p.domain.kind,
            "hypotheses": "complement connectedness assumed, not verified",
        },
    )


def check_size_condition(
    p: CharacterizationProblem, budget: int = 1_000_000, seed: int = 0
) -> VerificationReport:
    """Containment D within B_{r0}(x0), lambda r0 = j_{m/2,1}.

    Uses exact corner/center arithmetic for balls, boxes and their
    translates.  Otherwise an upper bound on the enclosing radius (a
    difference is bounded by its minuend) certifies a pass when it is
    <= r0, with nothing sampled; failing that, the sampled sup of
    |y - x0|, which converges from below (a fail is then certain, a pass
    is up to sampling slack).
    """
    _require_counts(budget=budget)
    circ = exact_circumradius(p.domain, p.x0)
    upper = p.domain.circumradius_upper(p.x0)
    if circ is not None:
        method, err = "exact", 0.0
    elif upper is not None and upper <= p.r0:
        circ, method, err = upper, "upper_bound", 0.0
    else:
        circ = circumradius_about(p.domain, p.x0, budget=budget, seed=seed)
        method, err = "sampled_sup", 2e-3 * circ
    residual = circ - p.r0
    if residual <= 0.0:
        verdict = PASS
    elif residual <= err:
        verdict = INCONCLUSIVE
    else:
        verdict = FAIL
    return _report(
        "size_condition",
        circ,
        p.r0,
        0.0,
        err,
        {
            "m": p.domain.dimension,
            "lambda": p.lam,
            "lambda_times_enclosing_radius": p.lam * circ,
            "j_half_m_1": p.lam * p.r0,
            "method": method,
            "budget": budget if method == "sampled_sup" else 0,
            "seed": seed if method == "sampled_sup" else None,
            "one_sided": "sampled sup converges from below",
        },
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# the characterization battery


def default_family(p: CharacterizationProblem, seed: int = 0, n_random: int = 8):
    """Radial field at x0, two phases of each axis-aligned plane wave,
    and seeded random-direction plane waves, all at the problem's
    wavenumber."""
    m = p.domain.dimension
    fields = [radial_solution(m, p.lam, p.x0)]
    for i in range(m):
        e = np.zeros(m)
        e[i] = 1.0
        fields.append(plane_wave(m, p.lam, e, 0.0))
        fields.append(plane_wave(m, p.lam, e, 0.5 * math.pi))
    rng = np.random.default_rng(seed)
    for _ in range(n_random):
        v = rng.normal(size=m)
        v /= np.linalg.norm(v)
        fields.append(plane_wave(m, p.lam, v, float(rng.uniform(0.0, 2.0 * math.pi))))
    return fields


def characterize(
    p: CharacterizationProblem,
    family=None,
    tolerance: float | None = None,
    nodes: int = 64,
    angular: int = 64,
    box_nodes: int = 32,
    samples: int = 2_000_000,
    seed: int = 0,
    budget: int = 1_000_000,
) -> VerificationReport:
    """Run the identity over a family of solutions plus the radial field,
    gate on the size condition, and summarize.  Every member is
    evaluated on the same rule (one node set, or one seeded sample), so
    member residuals share their quadrature or sampling error.

    Conclusions (in diagnostics["conclusion"], mapped onto the verdict):
    "consistent with D = B_r(x0)"  -> pass   (all identities hold, size holds)
    "not a ball centered at x0"    -> fail   (size holds, some identity fails;
                                              the witness field is reported)
    "outside theorem scope"        -> inconclusive (size condition fails)

    A finite family can only ever certify the negative direction; the
    "consistent" wording is deliberate.
    """
    _require_counts(samples=samples, budget=budget)
    if family is None:
        family = default_family(p, seed=seed)
    fields = list(family)
    if not any(f.kind == "radial" for f in fields):
        fields.insert(0, radial_solution(p.domain.dimension, p.lam, p.x0))
    for f in fields:
        if abs(f.wavenumber - p.lam) > 1e-12 * max(1.0, p.lam):
            raise ValueError("all family members must share the problem's wavenumber")

    member_reports = [
        check_identity(
            f, p, nodes=nodes, angular=angular, box_nodes=box_nodes,
            samples=samples, seed=seed, tolerance=tolerance,
        )
        for f in fields
    ]
    size_rep = check_size_condition(p, budget=budget, seed=seed)

    failing = [(f, r) for f, r in zip(fields, member_reports) if r.verdict == FAIL]
    inconclusive = [r for r in member_reports if r.verdict == INCONCLUSIVE]
    worst = max(member_reports, key=lambda r: abs(r.residual))

    if size_rep.verdict != PASS:
        conclusion, verdict, witness = "outside theorem scope", INCONCLUSIVE, None
    elif failing:
        radial_fail = next((fr for fr in failing if fr[0].kind == "radial"), None)
        witness_field, witness_rep = radial_fail if radial_fail else failing[0]
        conclusion, verdict = "not a ball centered at x0", FAIL
        witness = {
            "kind": witness_field.kind,
            "params": _jsonable(witness_field.params),
            "residual": witness_rep.residual,
        }
        worst = witness_rep
    elif inconclusive:
        conclusion, verdict, witness = "error bars dominate", INCONCLUSIVE, None
    else:
        conclusion, verdict, witness = "consistent with D = B_r(x0)", PASS, None

    members = [
        {"field": f.kind, "residual": r.residual, "error_bar": r.error_bar, "verdict": r.verdict}
        for f, r in zip(fields, member_reports)
    ]
    return _report(
        "characterize",
        worst.lhs,
        worst.rhs,
        worst.tolerance,
        worst.error_bar,
        {
            "conclusion": conclusion,
            "witness": witness,
            "family_size": len(fields),
            "members": members,
            "size_condition": {
                "verdict": size_rep.verdict,
                "enclosing_radius": size_rep.lhs,
                "r0": size_rep.rhs,
            },
            "r": p.r,
            "lambda": p.lam,
            "seed": seed,
            "hypotheses": "complement connectedness assumed, not verified",
        },
        verdict=verdict,
    )


def proof_discrepancy(
    p: CharacterizationProblem,
    samples: int = 4_000_000,
    seed: int = 0,
    equation: str = HELMHOLTZ,
) -> VerificationReport:
    """The sign functional from the contradiction argument.

    Splits the symmetric difference into G_i = D \\ closure(B_r(x0)) and
    G_e = B_r(x0) \\ closure(D) and Monte Carlo integrates the radial
    field over both.  When the size condition holds, |G_i| = |G_e| and
    the radial field decreases with distance from x0, so

        int_{G_i} U - int_{G_e} U < 0   whenever D != B_r(x0).

    With equation="modified_helmholtz" the monotone-increasing kernel is
    used instead and the predicted sign flips to positive.

    Verdict: pass when the predicted strict sign is resolved beyond the
    combined 3-sigma bar, inconclusive when the difference is within
    noise (e.g. D = B_r(x0), where both sets are empty), fail when the
    sign contradicts the prediction.
    """
    _require_counts(samples=samples)
    m = p.domain.dimension
    if equation == HELMHOLTZ:
        u = radial_solution(m, p.lam, p.x0)
        expected_sign = -1.0
    elif equation == MODIFIED_HELMHOLTZ:
        u = modified_radial_solution(m, p.lam, p.x0)
        expected_sign = +1.0
    else:
        raise ValueError(f"unknown equation: {equation!r}")
    b = ball(p.x0, p.r)
    g_i = difference(p.domain, b)
    g_e = difference(b, p.domain)
    int_i, err_i, vol_i, verr_i = mc_integral(u, g_i, samples=samples, seed=seed)
    int_e, err_e, vol_e, verr_e = mc_integral(u, g_e, samples=samples, seed=seed + 1)
    residual = int_i - int_e
    error_bar = math.hypot(err_i, err_e)
    signed = expected_sign * residual
    if signed > error_bar:
        verdict = PASS
    elif abs(residual) <= error_bar:
        verdict = INCONCLUSIVE
    else:
        verdict = FAIL
    vol_gap = vol_i - vol_e
    vol_bar = math.hypot(verr_i, verr_e)
    return _report(
        "proof_discrepancy",
        int_i,
        int_e,
        0.0,
        error_bar,
        {
            "m": m,
            "lambda": p.lam,
            "r": p.r,
            "equation": equation,
            "expected_sign": "negative" if expected_sign < 0 else "positive",
            "volume_g_i": vol_i,
            "volume_g_e": vol_e,
            "volume_gap": vol_gap,
            "volume_gap_error_bar": vol_bar,
            "volumes_match": bool(abs(vol_gap) <= max(vol_bar, 1e-12)),
            "samples": samples,
            "seed": seed,
            "seed_g_e": seed + 1,
        },
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# composite bundles


def membrane_counterexample(a: float = 1.0, box_nodes: int = 32) -> list[VerificationReport]:
    """The square-membrane bundle showing the size condition is essential.

    For the (2,1)/(1,2) eigenfunctions of the square of side a at their
    shared wavenumber, the identity holds trivially at the center (both
    sides vanish), yet the square is not a disk: the size condition
    fails, with lambda * (enclosing radius) = pi sqrt(5/2) = 4.967294
    against j_{1,1} = 3.831706, a gap of about 1.135588.
    """
    a = float(a)
    if a <= 0.0:
        raise ValueError(f"side length must be > 0, got {a}")
    u21 = membrane_eigenfunction(2, 1, a)
    u12 = membrane_eigenfunction(1, 2, a)
    lam = u21.wavenumber
    center = np.array([0.5 * a, 0.5 * a])
    square = box([0.0, 0.0], [a, a])

    reports = []
    v21, v12 = u21(center), u12(center)
    reports.append(
        _report(
            "membrane_center_values",
            v21,
            0.0,
            0.0,
            0.0,
            {"u21_at_center": v21, "u12_at_center": v12, "a": a, "lambda_21": lam},
            verdict=PASS if (v21 == 0.0 and v12 == 0.0) else FAIL,
        )
    )

    m21 = box_mean(u21, [0.0, 0.0], [a, a], nodes_per_axis=box_nodes)
    m12 = box_mean(u12, [0.0, 0.0], [a, a], nodes_per_axis=box_nodes)
    reports.append(
        _report(
            "membrane_zero_mean",
            m21.value,
            0.0,
            1e-12,
            m21.abs_error_estimate,
            {"mean_u21": m21.value, "mean_u12": m12.value, "method": m21.method},
            verdict=PASS if (abs(m21.value) <= 1e-12 and abs(m12.value) <= 1e-12) else FAIL,
        )
    )

    problem = make_problem(square, lam, center)
    identity = check_identity(u21, problem, box_nodes=box_nodes, tolerance=1e-12)
    identity.name = "membrane_identity"
    identity.diagnostics["note"] = "0 = 0: both sides vanish at the center"
    reports.append(identity)

    # Exact enclosing radius of the square about its center: a/sqrt(2).
    circ = exact_circumradius(square, center)
    lam_r0_needed = lam * circ
    j11 = bessel_zero(1.0, 1)
    reports.append(
        _report(
            "membrane_size_condition",
            lam_r0_needed,
            j11,
            0.0,
            0.0,
            {
                "lambda_21": lam,
                "enclosing_radius": circ,
                "pi_sqrt_5_over_2": math.pi * math.sqrt(2.5),
                "scale_invariant": "lambda ~ 1/a and radius ~ a, so this number is a-free",
            },
            verdict=PASS if lam_r0_needed <= j11 else FAIL,
        )
    )

    gap = lam_r0_needed - j11
    expected_gap = 4.967294 - 3.831706  # from the 6-digit reference values
    reports.append(
        _report(
            "membrane_size_gap",
            gap,
            expected_gap,
            2e-5,  # both reference constants are 6-digit roundings; allow 1e-5 each
            0.0,
            {"gap": gap, "relative_excess": lam_r0_needed / j11 - 1.0},
        )
    )
    return reports


def kuran_limit_check(
    d: Domain,
    x0,
    lambdas=(0.3, 0.1, 0.03, 0.01),
    nodes: int = 64,
    angular: int = 64,
    box_nodes: int = 32,
    samples: int = 2_000_000,
    seed: int = 0,
) -> list[VerificationReport]:
    """The small-wavenumber limit, where the identity collapses to the
    harmonic (Kuran) mean-value characterization.

    Two reports: the kernel a_norm(m, t) -> 1 at the quadratic rate
    -t^2 / (2(m+2)), and the plane-wave identity residual approaching
    the harmonic mean-value residual M(x1 - x0_1, D) as lambda -> 0.
    """
    x0 = np.asarray(x0, dtype=float)
    lambdas = [float(l) for l in lambdas]
    if not lambdas:
        raise ValueError("kuran_limit_check needs at least one lambda")
    if any(l <= 0 for l in lambdas) or any(nxt >= prev for prev, nxt in zip(lambdas, lambdas[1:])):
        raise ValueError("lambdas must be positive and strictly decreasing")
    m = d.dimension
    problems = _problems(d, lambdas, x0, samples, seed)
    r = problems[0].r

    rows = []
    for lam in lambdas:
        t = lam * r
        ratio = (a_norm(m, t) - 1.0) / (-t * t / (2.0 * (m + 2.0)))
        rows.append({"lambda": lam, "t": t, "kernel_ratio": ratio})
    t_min = lambdas[-1] * r
    kernel_report = _report(
        "kuran_kernel_limit",
        rows[-1]["kernel_ratio"],
        1.0,
        1e-3 + t_min * t_min,
        0.0,
        {"m": m, "r": r, "series_coefficient": 1.0 / (2.0 * (m + 2.0)), "table": rows},
    )

    # sin-profile plane wave: residual / lambda -> -(M(x1, D) - x0_1)
    e1 = np.zeros(m)
    e1[0] = 1.0
    harmonic = problems[0].rule(nodes, angular, box_nodes, samples, seed).mean(
        lambda pts: pts[:, 0] - x0[0]
    )
    id_rows = []
    for lam, prob in zip(lambdas, problems):
        u = plane_wave(m, lam, e1, -0.5 * math.pi)  # sin(lambda x1)
        rep = check_identity(
            u, prob, nodes=nodes, angular=angular, box_nodes=box_nodes,
            samples=samples, seed=seed,
        )
        id_rows.append(
            {"lambda": lam, "identity_residual": rep.residual, "scaled": rep.residual / lam}
        )
    lam_min = lambdas[-1]
    scaled = id_rows[-1]["scaled"]
    limit_tol = max(1e-6, 10.0 * lam_min * lam_min * max(1.0, abs(harmonic.value)))
    identity_report = _report(
        "kuran_identity_limit",
        scaled,
        -harmonic.value,
        limit_tol,
        harmonic.abs_error_estimate / lam_min,
        {
            "m": m,
            "r": r,
            "harmonic_residual": harmonic.value,
            "harmonic_note": "M(x1 - x0_1, D); zero for any x0-centered-symmetric domain",
            "table": id_rows,
            "seed": seed,
        },
    )
    return [kernel_report, identity_report]


def flux_identity_check(
    u: SolutionField, center, r: float, angular_resolution: int = 256
) -> VerificationReport:
    """Volume integral of u over a ball against -lambda^{-2} times the
    boundary flux of du/dn; relative residual tolerance 1e-5."""
    if u.equation != HELMHOLTZ:
        raise ValueError("the flux identity applies to Helmholtz fields")
    center = np.asarray(center, dtype=float)
    m = u.dimension
    lam = u.wavenumber
    est = ball_mean(u, center, r)
    vol = math.pi * r * r if m == 2 else 4.0 * math.pi * r**3 / 3.0
    lhs = vol * est.value
    flux = surface_flux(u, center, r, angular_resolution=angular_resolution)
    rhs = -flux / lam**2
    scale = max(abs(lhs), abs(rhs), 1e-12)
    err = surface_flux_error(u, center, r, angular_resolution=angular_resolution) / lam**2
    err += vol * est.abs_error_estimate
    return _report(
        "flux_identity",
        lhs,
        rhs,
        FLUX_REL_TOL * scale,
        err,
        {
            "m": m,
            "lambda": lam,
            "r": r,
            "field": u.kind,
            "flux": flux,
            "relative_residual": (lhs - rhs) / scale,
            "angular_resolution": angular_resolution,
        },
    )


def theorem1_identity_check(
    mu: float,
    x0,
    r: float,
    m: int,
    radial_nodes: int = 64,
    angular_resolution: int = 64,
    tolerance: float = 1e-8,
    grid_points: int = 10_000,
) -> VerificationReport:
    """Ball form of the modified-equation identity: b_norm(m, mu r)
    against the ball mean of the monotone radial solution, plus the
    strict monotonicity of b_norm that the argument leans on."""
    mu = float(mu)
    if mu <= 0.0:
        raise ValueError(f"mu must be > 0, got {mu}")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (m,):
        raise ValueError(f"x0 must have shape ({m},), got {x0.shape}")
    u = modified_radial_solution(m, mu, x0)
    est = ball_mean(
        u, x0, r, radial_nodes=radial_nodes, angular_resolution=angular_resolution
    )
    lhs = b_norm(m, mu * r)
    grid = np.linspace(0.0, 10.0, grid_points)
    monotone = bool(np.all(np.diff(b_norm(m, grid)) > 0.0))
    rep = _report(
        "theorem1_ball_identity",
        lhs,
        est.value,
        tolerance,
        est.abs_error_estimate,
        {
            "m": m,
            "mu": mu,
            "r": r,
            "mu_r": mu * r,
            "method": est.method,
            "kernel_strictly_increasing": monotone,
            "grid_points": grid_points,
        },
    )
    if not monotone:
        rep.verdict = FAIL
    return rep
