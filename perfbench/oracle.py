"""Checks each invocation against the outcome theory fixes for it.

Statuses, per invocation:

* ``ok``            -- everything theory fixes came out as fixed;
* ``inconclusive``  -- a decisive verdict was fixed, ``inconclusive`` came out;
* ``error``         -- raised, exited 64 or another unexpected code, printed
                       output that does not parse, or an exit code that
                       disagrees with the printed verdicts;
* ``nondeterministic`` -- different bytes or exit code from the first pass
                       of the same argv;
* ``wrong``         -- a decisive verdict opposite to the fixed one;
* ``known_defect``  -- ``wrong``, in a class the command names as a known
                       defect of the program (see workloads.SOFT_*);
* ``contract``      -- specfun values outside the documented contract.

Every status but ``ok`` and ``inconclusive`` is a failed invocation.
All but ``known_defect`` also make the run incorrect.

Specfun values are checked against ``scipy.special`` where it imports,
after the workload child has exited, so the check is never timed.
"""

from __future__ import annotations

import csv
import io
import json

from workloads import EXIT_OF, FAIL, INCONCLUSIVE, PASS

FAILED = ("error", "nondeterministic", "wrong", "known_defect", "contract")
HARD = ("error", "nondeterministic", "wrong", "contract")

# Documented contracts (specfun docstrings): t <= 50, nu <= 6.
J_ABS_TOL = 1e-11
I_REL_TOL = 1e-11
ZERO_ABS_TOL = 1e-9


def _reports(text: str):
    obj = json.loads(text)
    return obj if isinstance(obj, list) else [obj]


def check_verdicts(cmd: dict, code, text: str) -> tuple[str, str]:
    """(status, detail) for a command that prints verification reports."""
    try:
        reports = _reports(text)
        got = [r["verdict"] for r in reports]
    except (ValueError, KeyError, TypeError) as exc:
        return "error", f"malformed output: {exc}"
    expected = cmd["verdicts"]
    if len(got) != len(expected) or any(v not in EXIT_OF for v in got):
        return "error", f"expected {len(expected)} reports, got verdicts {got}"
    if code != max(EXIT_OF[v] for v in got):
        return "error", f"exit {code} disagrees with verdicts {got}"
    wrong = [(e, g) for e, g in zip(expected, got) if e is not None and g != e and g != INCONCLUSIVE]
    if not wrong and cmd["conclusion"] and got[0] == expected[0]:
        conclusion = reports[0].get("diagnostics", {}).get("conclusion")
        if conclusion != cmd["conclusion"]:
            wrong = [(cmd["conclusion"], conclusion)]
    if wrong:
        status = "known_defect" if cmd["soft"] else "wrong"
        return status, f"verdicts {got}, theory fixes {expected}"
    if any(e in (PASS, FAIL) and g == INCONCLUSIVE for e, g in zip(expected, got)):
        return "inconclusive", f"verdicts {got}, theory fixes {expected}"
    return "ok", ""


def parse_table(text: str, csv_format: bool) -> list[list[float]]:
    if csv_format:
        rows = list(csv.reader(io.StringIO(text)))
        return [[float(v) for v in row] for row in rows[1:]]
    return [[float(v) for v in row.values()] for row in json.loads(text)]


def check_command(cmd: dict, code, raised: bool, text: str) -> tuple[str, str]:
    """Status of the first pass of a command, before the specfun values."""
    if raised:
        return "error", "raised an exception"
    if code not in (0, 1, 2):
        return "error", f"exit {code}"
    if cmd["table"] is not None:
        if code != cmd["exit"]:
            return "error", f"exit {code}, expected {cmd['exit']}"
        try:
            parse_table(text, "csv" in cmd["argv"])
        except (ValueError, TypeError, AttributeError) as exc:
            return "error", f"malformed table: {exc}"
        return "ok", ""
    return check_verdicts(cmd, code, text)


# ---------------------------------------------------------------------------
# specfun tables against scipy.special


def _scipy():
    try:
        import numpy as np
        from scipy import optimize, special
    except ImportError:
        return None
    return np, special, optimize


def _kernel(np, special, kind: str, m: float, t):
    nu = 0.5 * m
    t = np.asarray(t, dtype=float)
    safe = np.where(t > 0, t, 1.0)
    fn = special.jv if kind == "a" else special.iv
    val = special.gamma(nu + 1.0) * fn(nu, safe) / (0.5 * safe) ** nu
    return np.where(t > 0, val, 1.0)


def _nth_zero(np, special, optimize, nu: float, n: int) -> float:
    """n-th positive zero of J_nu by sign-change count on a fine grid."""
    x = np.arange(1e-3, (n + 0.5 * nu + 2.0) * np.pi, 1e-2)
    v = special.jv(nu, x)
    flips = np.nonzero(np.sign(v[:-1]) * np.sign(v[1:]) < 0)[0]
    i = flips[n - 1]
    return optimize.brentq(lambda s: special.jv(nu, s), x[i], x[i + 1], xtol=1e-15)


def check_table(cmd: dict, text: str, lib) -> tuple[str, str]:
    """Compare one specfun/sweep/zeros table with scipy.special."""
    np, special, optimize = lib
    table = cmd["table"]
    what, order = table["what"], table["order"]
    rows = np.array(parse_table(text, "csv" in cmd["argv"]), dtype=float)
    worst = []
    if what == "zeros":
        ref = np.array([_nth_zero(np, special, optimize, order, int(n)) for n in rows[:, 0]])
        worst.append(("zeros abs", float(np.max(np.abs(rows[:, 1] - ref))), ZERO_ABS_TOL))
    else:
        t = rows[:, 0]
        cols = {"a": [("a", 1)], "b": [("b", 1)], "j": [("j", 1)], "i": [("i", 1)],
                "sweep": [("a", 1), ("b", 2)]}[what]
        for kind, col in cols:
            got = rows[:, col]
            if kind in ("a", "b"):
                ref = _kernel(np, special, kind, order, t)
            else:
                ref = (special.jv if kind == "j" else special.iv)(order, t)
            if kind in ("a", "j"):
                worst.append((f"{kind} abs", float(np.max(np.abs(got - ref))), J_ABS_TOL))
            else:
                rel = np.abs(got - ref) / np.maximum(np.abs(ref), 1e-300)
                worst.append((f"{kind} rel", float(np.max(rel)), I_REL_TOL))
    bad = [f"{label} error {err:.2e} > {tol:.0e}" for label, err, tol in worst if not err <= tol]
    if bad:
        return "contract", "; ".join(bad)
    return "ok", ""


def classify(commands: dict, argvs, invocations, outputs) -> tuple[list[str], dict, str | None]:
    """Status of every invocation, in order; the detail per command id;
    and a note when the specfun values could not be checked."""
    first: dict[int, tuple] = {}
    base: dict[int, tuple[str, str]] = {}
    lib = _scipy()
    note = None if lib else "scipy.special not importable: specfun values unchecked"
    for cid, code, _dt, sha, raised in invocations:
        if cid in first:
            continue
        first[cid] = (code, sha)
        cmd = commands[tuple(argvs[cid])]
        text = outputs[str(cid)]
        status, detail = check_command(cmd, code, raised, text)
        if status == "ok" and cmd["table"] is not None and lib is not None:
            status, detail = check_table(cmd, text, lib)
        base[cid] = (status, detail)
    statuses = []
    for cid, code, _dt, sha, _raised in invocations:
        if (code, sha) != first[cid]:
            statuses.append("nondeterministic")
        else:
            statuses.append(base[cid][0])
    return statuses, base, note
