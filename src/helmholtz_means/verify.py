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
    exact_circumradius,
)
from .quadrature import (
    MONTE_CARLO,
    MeanRule,
    SampleRule,
    _ball_rule,
    _flux_bound,
    mean_rule,
    resolution,
    surface_flux,
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
_RANDOM_WAVES = 8  # seeded random-direction plane waves in default_family
_MAX_DIMENSION = 12  # the size condition's j_{m/2,1}: bessel_zero takes orders <= 6


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

    rule is the domain's one mean rule, on which every check of the
    problem evaluates M(., D); on a domain without an analytic volume it
    is the Monte Carlo rule whose draw gave |D|, and a sampled size
    condition reads the same draw.
    """

    domain: Domain
    lam: float
    x0: np.ndarray
    r: float
    r0: float
    volume: float
    volume_error: float
    rule: MeanRule = field(repr=False)
    seed: int
    samples: int


def make_problem(domain: Domain, lam: float, x0, samples: int = 2_000_000,
                 seed: int = 0) -> CharacterizationProblem:
    """The problem and its mean rule: a ball or box gets its product rule,
    sized from lam times its size by a proved error bound, a certified
    difference the signed sum of its terms' product rules and its exact
    |D|, any other domain one seeded draw of samples points.  The bound
    grows with the wavenumber, so the rule resolves every wavenumber up
    to lam, and check_identity runs fields of any such wavenumber on it.
    samples must be >= 1 and seed >= 0."""
    _require_counts(samples=samples)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    lam = float(lam)
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError(f"lambda must be finite and > 0, got {lam}")
    m = domain.dimension
    if m > _MAX_DIMENSION:
        raise ValueError(
            f"dimension m = {m} is above {_MAX_DIMENSION}: the size condition needs "
            f"j_(m/2,1), which is computed for m/2 <= {_MAX_DIMENSION // 2}"
        )
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (m,):
        raise ValueError(f"x0 must have shape ({m},), got {x0.shape}")
    if not domain.contains(x0):
        raise ValueError("x0 must lie inside the domain")
    rule = mean_rule(domain, lam, samples, seed)
    if domain.analytic_volume is None:
        vol, verr = rule.volume()
    else:
        vol, verr = float(domain.analytic_volume), 0.0
    return CharacterizationProblem(domain=domain, lam=lam, x0=x0, r=_radius_of_volume(vol, m),
                                   r0=bessel_zero(0.5 * m, 1) / lam, volume=vol,
                                   volume_error=verr, rule=rule, seed=seed, samples=samples)


# ---------------------------------------------------------------------------
# single-identity checks


def check_mean_value_formula(
    u: SolutionField,
    x,
    r: float,
    tolerance: float = IDENTITY_TOL_SPECTRAL,
) -> VerificationReport:
    """check_identity on make_problem(B_r(x), lambda, x) for a Helmholtz
    field, so m <= 12 and its r is |D|'s radius (r to rounding)."""
    if u.equation != HELMHOLTZ:
        raise ValueError("the mean value formula applies to Helmholtz fields")
    rep = check_identity(u, make_problem(ball(x, r), u.wavenumber, x), tolerance)
    rep.name = "mean_value_formula"
    return rep


def check_identity(
    u: SolutionField,
    p: CharacterizationProblem,
    tolerance: float | None = None,
) -> VerificationReport:
    """u(x0) K(m, k r) against M(u, D) on the problem's rule, k being the
    field's wavenumber and K = a_norm for a Helmholtz field and b_norm for
    a modified one.  The rule is sized for p.lam and resolves every
    smaller wavenumber, so k may be anything up to p.lam (to a relative
    1e-12); a field above it is refused.

    The error bar is the mean's (the rule's proved bound at k with u's
    evaluation error and the sum's rounding, or 3 sigma for Monte
    Carlo) plus, linearly since |D| comes from the same draw, the shift
    of the lhs under the |D| error bar through r = (|D| / omega_m)^(1/m):
    |u(x0)| |t K(m+2, t) / (m+2)| k r volume_error / (m |D|),
    t = k r, or 0 where |D| is exact.  Spectral, Gauss and
    certified-difference paths default to tolerance 1e-8, Monte Carlo
    paths to the error bar, with inconclusive rather than fail when the
    bar dominates; any other tolerance is relative to |lhs| for a
    modified field, as b_norm >= 1 grows like e^{mu r}.  volume_seed is
    the seed only where |D| came from a draw, None where |D| is exact.
    This is the one-field case of _identity_reports.
    """
    return _identity_reports([u], p, tolerance)[0]


def _identity_reports(fields, p: CharacterizationProblem,
                      tolerance: float | None = None) -> list[VerificationReport]:
    """check_identity for every field, with every mean from one
    p.rule.means pass and each kernel value computed once per
    (equation, wavenumber); a field of another dimension is refused first."""
    m = p.domain.dimension
    for u in fields:
        if u.dimension != m:
            raise ValueError(f"field is {u.dimension}-d, domain is {m}-d")
        if u.wavenumber > p.lam + 1e-12 * max(1.0, p.lam):
            raise ValueError(
                f"field wavenumber {u.wavenumber} is above the problem's lambda {p.lam}, "
                "for which its rule is sized"
            )
    volume_seed = p.seed if p.domain.analytic_volume is None else None
    kernels = {}  # (kernel, k) -> K(m, k r) and, where |D| has an error, |t K(m+2, t) / (m+2)|
    reports = []
    for u, est in zip(fields, p.rule.means(fields)):
        k = u.wavenumber
        kernel = a_norm if u.equation == HELMHOLTZ else b_norm
        if (kernel, k) not in kernels:
            t = k * p.r
            kernels[kernel, k] = (kernel(m, t),
                                  abs(t * kernel(m + 2, t) / (m + 2)) if p.volume_error else 0.0)
        value, slope = kernels[kernel, k]
        u0 = u(p.x0)
        lhs = u0 * value
        volume_term = (abs(u0) * slope * k * p.r * p.volume_error / (m * p.volume)
                       if p.volume_error else 0.0)
        error_bar = est.abs_error_estimate + volume_term
        scale = 1.0 if u.equation == HELMHOLTZ else abs(lhs)
        if tolerance is None:
            tol = error_bar if est.method == MONTE_CARLO else IDENTITY_TOL_SPECTRAL * scale
        else:
            tol = tolerance * scale
        reports.append(_report(
            "identity",
            lhs,
            est.value,
            tol,
            error_bar,
            {
                "m": m,
                "lambda": k,
                "r": p.r,
                "field": u.kind,
                "method": est.method,
                "nodes_or_samples": est.samples_or_nodes,
                "volume_error_term": volume_term,
                "seed": est.seed,
                "volume_seed": volume_seed,
                "domain_kind": p.domain.kind,
                "hypotheses": "complement connectedness assumed, not verified",
            },
        ))
    return reports


def check_size_condition(p: CharacterizationProblem) -> VerificationReport:
    """Containment D within B_{r0}(x0), lambda r0 = j_{m/2,1}.

    Uses exact corner/center arithmetic for balls, boxes, differences
    whose subtrahend misses the minuend or lies strictly inside it, and
    their translates.  Otherwise an upper bound on the enclosing radius (a
    difference is bounded by its minuend) certifies a pass when it is
    <= r0, with nothing sampled; failing that, the sup of |y - x0| over
    the inside points of the problem's draw.  Those points lie in D, so
    the sup is a lower bound on the enclosing radius: sup > r0 is a
    certain fail.  A pass needs sup + h <= r0, h = (|bounding box| /
    samples)^(1/m) being the draw's mean spacing, which is reported as
    the error bar; anything between is inconclusive.  h is a heuristic
    for how far the sup can fall short, not a bound.  The draw is
    p.rule's when that is a SampleRule, so it classifies no point again;
    otherwise (a certified difference whose mean is exact but whose
    enclosing radius is not) one SampleRule(p.domain, p.samples, p.seed).
    samples and seed are reported where the sup is sampled, 0 and None
    elsewhere.
    """
    circ = exact_circumradius(p.domain, p.x0)
    upper = p.domain.circumradius_upper(p.x0)
    if circ is not None:
        method, err = "exact", 0.0
    elif upper is not None and upper <= p.r0:
        circ, method, err = upper, "upper_bound", 0.0
    else:
        rule = p.rule if isinstance(p.rule, SampleRule) else SampleRule(p.domain, p.samples, p.seed)
        circ = circumradius_about(rule.accepted, p.x0)
        lo, hi = p.domain.bounding_box
        err = (float(np.prod(hi - lo)) / p.samples) ** (1.0 / p.domain.dimension)
        method = "sampled_sup"
    residual = circ - p.r0
    if residual > 0.0:
        verdict = FAIL
    elif residual + err <= 0.0:
        verdict = PASS
    else:
        verdict = INCONCLUSIVE
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
            "samples": p.samples if method == "sampled_sup" else 0,
            "seed": p.seed if method == "sampled_sup" else None,
            "one_sided": "sampled sup converges from below",
        },
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# the characterization battery


def default_family(p: CharacterizationProblem):
    """Radial field at x0, two phases of each axis-aligned plane wave,
    and random-direction plane waves seeded by p.seed, all at the
    problem's wavenumber."""
    m = p.domain.dimension
    fields = [radial_solution(m, p.lam, p.x0)]
    for i in range(m):
        e = np.zeros(m)
        e[i] = 1.0
        fields.append(plane_wave(m, p.lam, e, 0.0))
        fields.append(plane_wave(m, p.lam, e, 0.5 * math.pi))
    rng = np.random.default_rng(p.seed)
    for _ in range(_RANDOM_WAVES):
        v = rng.normal(size=m)
        v /= np.linalg.norm(v)
        fields.append(plane_wave(m, p.lam, v, float(rng.uniform(0.0, 2.0 * math.pi))))
    return fields


def characterize(
    p: CharacterizationProblem,
    family=None,
    tolerance: float | None = None,
) -> VerificationReport:
    """Run the identity over a family of solutions plus the radial field,
    gate on the size condition, and summarize.  Every member is
    evaluated on the problem's rule (one node set, or one seeded sample),
    so member residuals share their quadrature or sampling error.  The
    default family is seeded by the problem's seed, and a sampled size
    condition reads the problem's draw; diagnostics["size_condition"]
    names the method that gave the enclosing radius.

    Conclusions (in diagnostics["conclusion"], mapped onto the verdict):
    "consistent with D = B_r(x0)"  -> pass   (all identities hold, size holds)
    "not a ball centered at x0"    -> fail   (size holds, some identity fails;
                                              the witness field is reported)
    "outside theorem scope"        -> inconclusive (size condition fails)

    A finite family can only ever certify the negative direction; the
    "consistent" wording is deliberate.
    """
    if family is None:
        family = default_family(p)
    fields = list(family)
    if not any(f.kind == "radial" for f in fields):
        fields.insert(0, radial_solution(p.domain.dimension, p.lam, p.x0))
    for f in fields:
        if abs(f.wavenumber - p.lam) > 1e-12 * max(1.0, p.lam):
            raise ValueError("all family members must share the problem's wavenumber")

    member_reports = _identity_reports(fields, p, tolerance)
    size_rep = check_size_condition(p)

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
                "method": size_rep.diagnostics["method"],
                "enclosing_radius": size_rep.lhs,
                "r0": size_rep.rhs,
            },
            "r": p.r,
            "lambda": p.lam,
            "seed": p.seed,
            "hypotheses": "complement connectedness assumed, not verified",
        },
        verdict=verdict,
    )


def proof_discrepancy(p: CharacterizationProblem, equation: str = HELMHOLTZ) -> VerificationReport:
    """The sign functional from the contradiction argument.

    With G_i = D \\ closure(B_r(x0)) and G_e = B_r(x0) \\ closure(D), the
    functional int_{G_i} U - int_{G_e} U of the radial field U equals
    int_D U - int_{B_r} U.  The ball term is exact by the mean-value
    formula, |B_r| K(m, lambda r) U(x0) with U(x0) = 1 and |B_r| = |D|,
    so the functional is |D| (M(U, D) - K(m, lambda r)), evaluated on the
    problem's rule.  When the size condition holds, |G_i| = |G_e| and U
    decreases with distance from x0, so the functional is < 0 whenever
    D != B_r(x0).  With equation="modified_helmholtz" the
    monotone-increasing kernel (K = b_norm) is used instead and the
    predicted sign flips to positive.

    Error bar: on a product rule (or a certified difference's signed sum
    of them) |D| times the rule's error estimate, with tolerance 1e-8 |D|.
    On Monte Carlo, tolerance 0 and a 3-sigma bar: when |D|
    came from the rule's draw, the sample error of the linearised
    estimator 1_D (U - U_r) |box| over all drawn points, U_r =
    K(m-2, lambda r) being U on the sphere of radius r, which carries the
    |D| error through r; when |D| is analytic (a 1-D ball, a box whose
    product rule is over the node budget, or a certified difference with
    such a term or one over the resolution cap), |D| 3 sigma /
    sqrt(n_accepted).
    samples and seed are reported on Monte Carlo only, None elsewhere.

    Verdict: pass when the predicted strict sign is resolved beyond the
    bar plus tolerance, inconclusive when the functional is within them
    (e.g. D = B_r(x0)), fail when the sign contradicts the prediction.
    """
    m = p.domain.dimension
    if equation == HELMHOLTZ:
        u = radial_solution(m, p.lam, p.x0)
        kernel, expected_sign = a_norm, -1.0
    elif equation == MODIFIED_HELMHOLTZ:
        u = modified_radial_solution(m, p.lam, p.x0)
        kernel, expected_sign = b_norm, +1.0
    else:
        raise ValueError(f"unknown equation: {equation!r}")
    est = p.rule.mean(u)
    t = p.lam * p.r
    lhs = p.volume * est.value
    rhs = p.volume * kernel(m, t)
    error_bar, tolerance = p.volume * est.abs_error_estimate, 0.0
    if est.method != MONTE_CARLO:
        tolerance = IDENTITY_TOL_SPECTRAL * p.volume
    elif p.domain.analytic_volume is None:
        # g = 1_D (U - U_r) |box| has mean hit |box| delta and second
        # moment hit |box|^2 (sigma^2 + delta^2) over the drawn points
        delta = est.value - kernel(m - 2, t)  # M - U_r
        n = est.samples_or_nodes
        sigma = est.abs_error_estimate * math.sqrt(n) / 3.0
        lo, hi = p.domain.bounding_box
        vbox, hit = float(np.prod(hi - lo)), n / p.samples
        error_bar = 3.0 * vbox * math.sqrt(hit * (sigma**2 + (1.0 - hit) * delta**2) / p.samples)
    residual = lhs - rhs
    margin = error_bar + tolerance
    if expected_sign * residual > margin:
        verdict = PASS
    elif abs(residual) <= margin:
        verdict = INCONCLUSIVE
    else:
        verdict = FAIL
    return _report(
        "proof_discrepancy",
        lhs,
        rhs,
        tolerance,
        error_bar,
        {
            "m": m,
            "lambda": p.lam,
            "r": p.r,
            "equation": equation,
            "expected_sign": "negative" if expected_sign < 0 else "positive",
            "method": est.method,
            "nodes_or_samples": est.samples_or_nodes,
            "samples": p.samples if est.method == MONTE_CARLO else None,
            "seed": p.seed if est.method == MONTE_CARLO else None,
        },
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# composite bundles


def membrane_counterexample(a: float = 1.0) -> list[VerificationReport]:
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

    problem = make_problem(square, lam, center)
    identity = check_identity(u21, problem, tolerance=1e-12)
    identity.name = "membrane_identity"
    identity.diagnostics["note"] = "0 = 0: both sides vanish at the center"
    m21, m12 = identity.rhs, problem.rule.mean(u12).value
    reports.append(
        _report(
            "membrane_zero_mean",
            m21,
            0.0,
            1e-12,
            identity.error_bar,
            {"mean_u21": m21, "mean_u12": m12, "method": identity.diagnostics["method"]},
            verdict=PASS if (abs(m21) <= 1e-12 and abs(m12) <= 1e-12) else FAIL,
        )
    )
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
    samples: int = 2_000_000,
    seed: int = 0,
) -> list[VerificationReport]:
    """The small-wavenumber limit, where the identity collapses to the
    harmonic (Kuran) mean-value characterization.

    Two reports: the kernel a_norm(m, t) -> 1 at the quadratic rate
    -t^2 / (2(m+2)), and the plane-wave identity residual approaching
    the harmonic mean-value residual M(x1 - x0_1, D) as lambda -> 0.
    The kernel ratio divides a_norm's rounding, at most 2^-52 near 1, by
    t^2 / (2(m+2)), so its error bar is 2(m+2) 2^-52 / t^2 at the
    smallest t, and a t whose square underflows is refused.  The second
    report's error bar is the rule's error estimate for the mean of
    u / lambda - (x1 - x0_1) at the smallest lambda (both sides are
    means on one rule), whose stated bound is u's over lambda since every
    product rule integrates the degree-1 x1 - x0_1 exactly, plus the
    identity's volume_error_term / lambda.  Both integrands depend on x1
    alone, so each states e1 as its axis.
    Every lambda's identity runs on one make_problem at the first,
    largest, lambda.
    """
    lambdas = [float(l) for l in lambdas]
    if not lambdas:
        raise ValueError("kuran_limit_check needs at least one lambda")
    if any(l <= 0 for l in lambdas) or any(nxt >= prev for prev, nxt in zip(lambdas, lambdas[1:])):
        raise ValueError("lambdas must be positive and strictly decreasing")
    p = make_problem(d, lambdas[0], x0, samples, seed)
    m, r, x0 = d.dimension, p.r, p.x0
    t_min = lambdas[-1] * r
    if t_min * t_min < np.finfo(float).tiny:
        raise ValueError(f"lambda * r = {t_min} is too small: its square underflows")

    rows = []
    for lam in lambdas:
        t = lam * r
        ratio = (a_norm(m, t) - 1.0) / (-t * t / (2.0 * (m + 2.0)))
        rows.append({"lambda": lam, "t": t, "kernel_ratio": ratio})
    kernel_report = _report(
        "kuran_kernel_limit",
        rows[-1]["kernel_ratio"],
        1.0,
        1e-3 + t_min * t_min,
        2.0 * (m + 2.0) * np.finfo(float).eps / (t_min * t_min),
        {"m": m, "r": r, "series_coefficient": 1.0 / (2.0 * (m + 2.0)), "table": rows},
    )

    # sin-profile plane wave: residual / lambda -> -(M(x1, D) - x0_1)
    e1 = np.zeros(m)
    e1[0] = 1.0
    # x1 - x0_1 has degree 1, which every product rule integrates exactly
    harmonic = p.rule.mean(lambda pts: pts[:, 0] - x0[0], bound=0.0, axis=e1)
    waves = [plane_wave(m, lam, e1, -0.5 * math.pi) for lam in lambdas]  # sin(lambda x1)
    reps = _identity_reports(waves, p)
    id_rows = [{"lambda": lam, "identity_residual": rep.residual, "scaled": rep.residual / lam}
               for lam, rep in zip(lambdas, reps)]
    u, rep = waves[-1], reps[-1]
    lam_min = lambdas[-1]
    scaled = id_rows[-1]["scaled"]
    limit_tol = max(1e-6, 10.0 * lam_min * lam_min * max(1.0, abs(harmonic.value)))
    # Both sides are means on one rule, so the sampling error of
    # scaled - (-harmonic) is that of the mean of u / lambda - (x1 - x0_1).
    gap = p.rule.mean(lambda pts: u(pts) / lam_min - (pts[:, 0] - x0[0]),
                      bound=p.rule.bound(u) / lam_min, axis=e1)
    identity_report = _report(
        "kuran_identity_limit",
        scaled,
        -harmonic.value,
        limit_tol,
        gap.abs_error_estimate + rep.diagnostics["volume_error_term"] / lam_min,
        {
            "m": m,
            "r": r,
            "harmonic_residual": harmonic.value,
            "harmonic_note": "M(x1 - x0_1, D); zero for any x0-centered-symmetric domain",
            "table": id_rows,
            "seed": seed if p.rule.method == MONTE_CARLO else None,
        },
    )
    return [kernel_report, identity_report]


def flux_identity_check(u: SolutionField, center, r: float) -> VerificationReport:
    """Volume integral of u over a ball against -lambda^{-2} times the
    boundary flux of u's closed-form gradient; tolerance 1e-5 relative
    to the integrand's scale |D| sup|u|, sup|u| <= 1 for every Helmholtz
    field (plane-wave mass at most 1), or to |lhs| or |rhs| where larger,
    so it holds where a_norm(m, lambda r) and both sides vanish.  One
    resolution(m, lambda r) sizes both rules: the volume mean runs on the
    ball rule mean_rule(B_r(center), lambda) builds, and the flux on its
    sphere rule, turned onto u's axis; the error bar adds the mean's bar
    and the flux's proved bound over lambda^2.  m >= 2, as the flux needs
    a sphere."""
    if u.equation != HELMHOLTZ:
        raise ValueError("the flux identity applies to Helmholtz fields")
    if u.dimension < 2:
        raise ValueError(f"the flux identity needs a sphere, m >= 2, got m = {u.dimension}")
    d = ball(center, r)
    lam = u.wavenumber
    radial, angular = resolution(d.dimension, lam * d.r)
    rule = _ball_rule(d.center, d.r, radial, angular)
    flux = surface_flux(u.gradient, d.center, r, angular_resolution=angular,
                        axis=u.axis(d.center))
    est = rule.mean(u)
    lhs = d.analytic_volume * est.value
    rhs = -flux / lam**2
    scale = max(abs(lhs), abs(rhs), d.analytic_volume)
    err = _flux_bound(u, d.center, r, angular) / lam**2
    err += d.analytic_volume * est.abs_error_estimate
    return _report(
        "flux_identity",
        lhs,
        rhs,
        FLUX_REL_TOL * scale,
        err,
        {
            "m": u.dimension,
            "lambda": lam,
            "r": r,
            "field": u.kind,
            "flux": flux,
            "relative_residual": (lhs - rhs) / scale,
            "angular_resolution": angular,
        },
    )


def theorem1_identity_check(
    mu: float,
    x0,
    r: float,
    m: int,
    tolerance: float = 1e-8,
) -> VerificationReport:
    """check_identity of the monotone radial solution on make_problem(B_r(x0),
    mu, x0) (m <= 12; tolerance relative to b_norm(m, mu r)).

    The argument leans on b_norm(m, .) strictly increasing on t >= 0, which
    holds for every m by proof: b_norm(m, t) = sum_k Gamma(m/2+1) (t/2)^{2k}
    / (k! Gamma(k+m/2+1)) has positive coefficients, so every term past
    k = 0 strictly increases in t.  The report carries it as the constant
    kernel_strictly_increasing = True."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (m,):
        raise ValueError(f"x0 must have shape ({m},), got {x0.shape}")
    u = modified_radial_solution(m, mu, x0)
    rep = check_identity(u, make_problem(ball(x0, r), u.wavenumber, x0), tolerance)
    rep.name = "theorem1_ball_identity"
    rep.diagnostics.update(kernel_strictly_increasing=True)
    return rep
