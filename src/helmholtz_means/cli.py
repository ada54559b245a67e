"""Command-line front end: every check as a reproducible run.

Output is JSON (default) or CSV, written to stdout or --out, with no
timestamps, so identical flags and seeds give byte-identical output.
Exit codes: 0 pass, 1 any theorem-check fail, 2 inconclusive, 64 usage
or validation error, or a sampled estimate that could not be formed.
Note `membrane` exits 1 by design: the bundle contains the
size-condition check, and its failure is the point of the
counterexample.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import verify
from .geometry import EstimationError, domain_from_json
from .solutions import solution_from_json
from .specfun import a_norm, b_norm, bessel_i, bessel_j, bessel_zero

USAGE_ERROR = 64
_VERDICT_EXIT = {verify.PASS: 0, verify.FAIL: 1, verify.INCONCLUSIVE: 2}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _load_json_arg(text: str) -> dict:
    text = text.strip()
    if text.startswith("{"):
        return json.loads(text)
    with open(text, encoding="utf-8") as fh:
        return json.load(fh)


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError:
        raise ValueError(f"expected comma-separated floats, got {text!r}") from None


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_reports(reports, args) -> int:
    single = isinstance(reports, verify.VerificationReport)
    rep_list = [reports] if single else list(reports)
    for r in rep_list:
        r.diagnostics["cli"] = {"subcommand": args.subcommand, "format": args.format}
    if args.format == "json":
        payload = report_obj = [verify.report_to_dict(r) for r in rep_list]
        if single:
            report_obj = payload[0]
        _emit(json.dumps(report_obj, indent=2, sort_keys=True) + "\n", args.out)
    else:
        _emit(verify.reports_to_csv(rep_list), args.out)
    return max(_VERDICT_EXIT[r.verdict] for r in rep_list)


def _emit_table(rows, header, args) -> int:
    if args.format == "json":
        objs = [dict(zip(header, row)) for row in rows]
        _emit(json.dumps(objs, indent=2, sort_keys=True) + "\n", args.out)
    else:
        _emit(verify.csv_table(header, rows), args.out)
    return 0


def _add_common(p):
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="write output to this path instead of stdout")


def _build_parser() -> _Parser:
    parser = _Parser(prog="helmholtz-means", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser("specfun", help="tabulate kernels, Bessel values, or zeros")
    p.add_argument("what", choices=("a", "b", "j", "i", "zeros"))
    p.add_argument("--m", type=int, help="kernel index for a/b")
    p.add_argument("--nu", type=float, help="Bessel order for j/i/zeros")
    p.add_argument("--t", type=float, help="single evaluation point")
    p.add_argument("--t-min", type=float, default=0.0)
    p.add_argument("--t-max", type=float, default=10.0)
    p.add_argument("--count", type=int, default=101, help="grid points, or number of zeros")
    _add_common(p)

    p = sub.add_parser("mean-value", help="mean value formula over an admissible ball")
    p.add_argument("--solution", required=True, help="solution JSON (inline or file)")
    p.add_argument("--x0", required=True, help="ball center, comma-separated")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--nodes", type=int, default=64)
    p.add_argument("--tol", type=float, default=verify.IDENTITY_TOL_SPECTRAL)
    _add_common(p)

    p = sub.add_parser("identity", help="volume-mean identity over a general domain")
    p.add_argument("--domain", required=True, help="domain JSON (inline or file)")
    p.add_argument("--solution", required=True)
    p.add_argument("--x0", required=True)
    p.add_argument("--nodes", type=int, default=64)
    p.add_argument("--samples", type=int, default=2_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None)
    _add_common(p)

    p = sub.add_parser("characterize", help="identity battery plus size condition")
    p.add_argument("--domain", required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--x0", required=True)
    p.add_argument("--nodes", type=int, default=64)
    p.add_argument("--samples", type=int, default=2_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=1_000_000)
    p.add_argument("--tol", type=float, default=None)
    _add_common(p)

    p = sub.add_parser("discrepancy", help="sign functional over the symmetric difference")
    p.add_argument("--domain", required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--x0", required=True)
    p.add_argument("--samples", type=int, default=4_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--equation", choices=("helmholtz", "modified_helmholtz"), default="helmholtz"
    )
    _add_common(p)

    p = sub.add_parser("membrane", help="square-membrane counterexample bundle")
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--nodes", type=int, default=32)
    _add_common(p)

    p = sub.add_parser("flux", help="volume integral against the boundary flux")
    p.add_argument("--solution", required=True)
    p.add_argument("--x0", required=True, help="ball center")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--nodes", type=int, default=256)
    _add_common(p)

    p = sub.add_parser("kuran", help="small-wavenumber (harmonic) limit")
    p.add_argument("--domain", required=True)
    p.add_argument("--x0", required=True)
    p.add_argument("--lambdas", default="0.3,0.1,0.03,0.01")
    p.add_argument("--samples", type=int, default=2_000_000)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)

    p = sub.add_parser("theorem1", help="modified-equation ball identity")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--x0", required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    _add_common(p)

    p = sub.add_parser("sweep", help="CSV of t, a_m(t), b_m(t) over a grid")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--t-min", type=float, default=0.0)
    p.add_argument("--t-max", type=float, default=10.0)
    p.add_argument("--count", type=int, default=101)
    _add_common(p)

    return parser


def _cmd_specfun(args) -> int:
    if args.what == "zeros":
        if args.nu is None:
            raise ValueError("zeros needs --nu")
        rows = [(n, bessel_zero(args.nu, n)) for n in range(1, args.count + 1)]
        return _emit_table(rows, ("n", "value"), args)
    if args.what in ("a", "b"):
        if args.m is None:
            raise ValueError(f"kernel {args.what!r} needs --m")
        fn = a_norm if args.what == "a" else b_norm
        evaluate = lambda t: fn(args.m, t)
    else:
        if args.nu is None:
            raise ValueError(f"bessel {args.what!r} needs --nu")
        fn = bessel_j if args.what == "j" else bessel_i
        evaluate = lambda t: fn(args.nu, t)
    if args.t is not None:
        ts = [args.t]
    else:
        ts = np.linspace(args.t_min, args.t_max, args.count)
    rows = [(float(t), float(evaluate(float(t)))) for t in ts]
    return _emit_table(rows, ("t", "value"), args)


def _cmd_sweep(args) -> int:
    ts = np.linspace(args.t_min, args.t_max, args.count)
    a_vals = a_norm(args.m, ts)
    b_vals = b_norm(args.m, ts)
    rows = [(float(t), float(a), float(b)) for t, a, b in zip(ts, a_vals, b_vals)]
    return _emit_table(rows, ("t", f"a_{args.m}", f"b_{args.m}"), args)


def _run(args) -> int:
    if args.subcommand == "specfun":
        return _cmd_specfun(args)
    if args.subcommand == "sweep":
        return _cmd_sweep(args)
    if args.subcommand == "mean-value":
        u = solution_from_json(_load_json_arg(args.solution))
        rep = verify.check_mean_value_formula(
            u, _parse_vector(args.x0), args.r, radial_nodes=args.nodes,
            angular_resolution=args.nodes, tolerance=args.tol,
        )
        return _emit_reports(rep, args)
    if args.subcommand == "identity":
        d = domain_from_json(_load_json_arg(args.domain))
        u = solution_from_json(_load_json_arg(args.solution))
        p = verify.make_problem(d, u.wavenumber, _parse_vector(args.x0),
                                samples=args.samples, seed=args.seed)
        rep = verify.check_identity(
            u, p, nodes=args.nodes, angular=args.nodes,
            samples=args.samples, seed=args.seed, tolerance=args.tol,
        )
        return _emit_reports(rep, args)
    if args.subcommand == "characterize":
        d = domain_from_json(_load_json_arg(args.domain))
        p = verify.make_problem(d, args.lam, _parse_vector(args.x0),
                                samples=args.samples, seed=args.seed)
        rep = verify.characterize(
            p, tolerance=args.tol, nodes=args.nodes, angular=args.nodes,
            samples=args.samples, seed=args.seed, budget=args.budget,
        )
        return _emit_reports(rep, args)
    if args.subcommand == "discrepancy":
        d = domain_from_json(_load_json_arg(args.domain))
        p = verify.make_problem(d, args.lam, _parse_vector(args.x0),
                                samples=args.samples, seed=args.seed)
        rep = verify.proof_discrepancy(p, samples=args.samples, seed=args.seed,
                                       equation=args.equation)
        return _emit_reports(rep, args)
    if args.subcommand == "membrane":
        return _emit_reports(verify.membrane_counterexample(args.a, box_nodes=args.nodes), args)
    if args.subcommand == "flux":
        u = solution_from_json(_load_json_arg(args.solution))
        rep = verify.flux_identity_check(u, _parse_vector(args.x0), args.r,
                                         angular_resolution=args.nodes)
        return _emit_reports(rep, args)
    if args.subcommand == "kuran":
        d = domain_from_json(_load_json_arg(args.domain))
        lambdas = tuple(float(v) for v in args.lambdas.split(","))
        reps = verify.kuran_limit_check(d, _parse_vector(args.x0), lambdas=lambdas,
                                        samples=args.samples, seed=args.seed)
        return _emit_reports(reps, args)
    if args.subcommand == "theorem1":
        rep = verify.theorem1_identity_check(
            args.mu, _parse_vector(args.x0), args.r, args.m, tolerance=args.tol,
        )
        return _emit_reports(rep, args)
    raise ValueError(f"unknown subcommand {args.subcommand!r}")  # unreachable


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except (ValueError, OSError, NotImplementedError, EstimationError) as exc:
        print(f"helmholtz-means: error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
