"""Command-line front end: every check as a reproducible run.

Output is JSON (default) or CSV, written to stdout or --out, with no
timestamps, so identical flags and seeds give byte-identical output.
JSON output is byte for byte json.dumps(obj, indent=2, sort_keys=True)
plus a newline, where obj is a table's list of row objects or a report's
report_to_dict (a list of them for a bundle); CSV floats are repr().
Tables are written from their columns, one row template for every row,
and reports by one writer that reads each report's fields and numpy
values in place, without a copy.
Exit codes: 0 pass, 1 any theorem-check fail, 2 inconclusive, 64 usage
or validation error, a non-finite or overflowing value, or a sampled
estimate that could not be formed.
Note `membrane` exits 1 by design: the bundle contains the
size-condition check, and its failure is the point of the
counterexample.

The parser, built once per process, is the grammar's one declaration.
A plain argv (a subcommand, exact long flags as --flag value or
--flag=value, specfun's positional) is read into the namespace parse_args
gives it by flag tables compiled at first use from each subparser's
actions; any other argv (help, an abbreviation, a value that starts with
'-', '--', a usage error) goes to parse_args, which renders every message.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii as _json_str

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


def _json_float(x) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _write_json(x, out: list, nl: str):
    """Append to out the text json.dumps(x, indent=2, sort_keys=True) gives
    for x, reading numpy values by verify._jsonable's rule in place; nl is
    the newline and indent of the line x starts on."""
    t = type(x)
    if t is float:
        out.append(_json_float(x))
    elif t is str:
        out.append(_json_str(x))
    elif t is dict:
        if not x:
            out.append("{}")
            return
        if not all(type(k) is str for k in x):
            x = {str(k): v for k, v in x.items()}
        inner = nl + "  "
        sep = "{" + inner
        for k, v in sorted(x.items()):
            out.append(sep + _json_str(k) + ": ")
            _write_json(v, out, inner)
            sep = "," + inner
        out.append(nl + "}")
    elif t is list or t is tuple:
        if not x:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for v in x:
            out.append(sep)
            _write_json(v, out, inner)
            sep = "," + inner
        out.append(nl + "]")
    elif t is int:
        out.append(int.__repr__(x))
    elif t is bool:
        out.append("true" if x else "false")
    elif x is None:
        out.append("null")
    else:  # numpy values, then subclasses of JSON types, as json.dumps reads them
        plain = verify._jsonable(x)
        if type(plain) is not t:
            _write_json(plain, out, nl)
        elif isinstance(x, str):
            out.append(_json_str(x))
        elif isinstance(x, int):
            out.append(int.__repr__(x))
        elif isinstance(x, float):
            out.append(_json_float(x))
        else:
            raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _emit_reports(reports, args) -> int:
    single = isinstance(reports, verify.VerificationReport)
    rep_list = [reports] if single else list(reports)
    for r in rep_list:
        r.diagnostics["cli"] = {"subcommand": args.subcommand, "format": args.format}
    if args.format == "json":
        # report_to_dict(r) is vars(r) with plain diagnostics; the writer
        # reads the report's own fields instead of that copy
        out = []
        _write_json(vars(reports) if single else [vars(r) for r in rep_list], out, "\n")
        out.append("\n")
        _emit("".join(out), args.out)
    else:
        _emit(verify.reports_to_csv(rep_list), args.out)
    return max(_VERDICT_EXIT[r.verdict] for r in rep_list)


def _emit_table(columns, header, args) -> int:
    """Write equal-length columns (arrays or sequences of floats or ints)
    as rows: JSON objects with sorted keys, or CSV in header order."""
    finite = np.isfinite(np.array(columns, dtype=float)).all(axis=0)
    cols = [np.asarray(c).tolist() for c in columns]
    if not finite.all():
        raise ValueError(f"non-finite value at {header[0]} = {cols[0][int(np.argmin(finite))]!r}")
    if args.format == "json":
        order = sorted(range(len(header)), key=header.__getitem__)
        row = "  {\n" + ",\n".join(
            f"    {_json_str(header[j]).replace('%', '%%')}: %r" for j in order) + "\n  }"
        rows = ",\n".join(map(row.__mod__, zip(*(cols[j] for j in order))))
        _emit(f"[\n{rows}\n]\n" if rows else "[]\n", args.out)
    else:
        row = ",".join(["%r"] * len(header)) + "\n"
        rows = "".join(map(row.__mod__, zip(*cols)))
        _emit(verify.csv_table(header, ()) + rows, args.out)
    return 0


def _add_common(p):
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="write output to this path instead of stdout")


@functools.cache
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
    p.add_argument("--tol", type=float, default=verify.IDENTITY_TOL_SPECTRAL)
    _add_common(p)

    p = sub.add_parser("identity", help="volume-mean identity over a general domain")
    p.add_argument("--domain", required=True, help="domain JSON (inline or file)")
    p.add_argument("--solution", required=True)
    p.add_argument("--x0", required=True)
    p.add_argument("--samples", type=int, default=2_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None,
                   help="absolute, or relative to |lhs| for a modified-equation field")
    _add_common(p)

    p = sub.add_parser("characterize", help="identity battery plus size condition")
    p.add_argument("--domain", required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--x0", required=True)
    p.add_argument("--samples", type=int, default=2_000_000)
    p.add_argument("--seed", type=int, default=0)
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
    _add_common(p)

    p = sub.add_parser("flux", help="volume integral against the boundary flux")
    p.add_argument("--solution", required=True)
    p.add_argument("--x0", required=True, help="ball center")
    p.add_argument("--r", type=float, required=True)
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
    p.add_argument("--tol", type=float, default=1e-8,
                   help="tolerance relative to the kernel b_norm(m, mu r) >= 1")
    _add_common(p)

    p = sub.add_parser("sweep", help="CSV of t, a_m(t), b_m(t) over a grid")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--t-min", type=float, default=0.0)
    p.add_argument("--t-max", type=float, default=10.0)
    p.add_argument("--count", type=int, default=101)
    _add_common(p)

    return parser


def _check_count(args):
    if args.count < 0:
        raise ValueError(f"--count must be >= 0, got {args.count}")


def _grid(args) -> np.ndarray:
    for flag, value in (("--t-min", args.t_min), ("--t-max", args.t_max)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    return np.linspace(args.t_min, args.t_max, args.count)


def _cmd_specfun(args) -> int:
    _check_count(args)
    if args.what == "zeros":
        if args.nu is None:
            raise ValueError("zeros needs --nu")
        ns = range(1, args.count + 1)
        return _emit_table((ns, [bessel_zero(args.nu, n) for n in ns]), ("n", "value"), args)
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
    ts = np.array([args.t]) if args.t is not None else _grid(args)
    return _emit_table((ts, evaluate(ts)), ("t", "value"), args)


def _cmd_sweep(args) -> int:
    _check_count(args)
    ts = _grid(args)
    return _emit_table((ts, a_norm(args.m, ts), b_norm(args.m, ts)),
                       ("t", f"a_{args.m}", f"b_{args.m}"), args)


def _run(args) -> int:
    if args.subcommand == "specfun":
        return _cmd_specfun(args)
    if args.subcommand == "sweep":
        return _cmd_sweep(args)
    if args.subcommand == "mean-value":
        u = solution_from_json(_load_json_arg(args.solution))
        rep = verify.check_mean_value_formula(
            u, _parse_vector(args.x0), args.r, tolerance=args.tol,
        )
        return _emit_reports(rep, args)
    if args.subcommand == "identity":
        d = domain_from_json(_load_json_arg(args.domain))
        u = solution_from_json(_load_json_arg(args.solution))
        p = verify.make_problem(d, u.wavenumber, _parse_vector(args.x0),
                                samples=args.samples, seed=args.seed)
        rep = verify.check_identity(u, p, tolerance=args.tol)
        return _emit_reports(rep, args)
    if args.subcommand == "characterize":
        d = domain_from_json(_load_json_arg(args.domain))
        p = verify.make_problem(d, args.lam, _parse_vector(args.x0),
                                samples=args.samples, seed=args.seed)
        rep = verify.characterize(p, tolerance=args.tol)
        return _emit_reports(rep, args)
    if args.subcommand == "discrepancy":
        d = domain_from_json(_load_json_arg(args.domain))
        p = verify.make_problem(d, args.lam, _parse_vector(args.x0),
                                samples=args.samples, seed=args.seed)
        rep = verify.proof_discrepancy(p, equation=args.equation)
        return _emit_reports(rep, args)
    if args.subcommand == "membrane":
        return _emit_reports(verify.membrane_counterexample(args.a), args)
    if args.subcommand == "flux":
        u = solution_from_json(_load_json_arg(args.solution))
        rep = verify.flux_identity_check(u, _parse_vector(args.x0), args.r)
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


@functools.cache
def _flag_tables() -> dict:
    """Per subcommand, from its parser's store actions: (flags, required dests, defaults),
    flags mapping each long option, and None for the positional, to (dest, type, choices)."""
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    tables = {}
    for name, p in sub.choices.items():
        acts = [a for a in p._actions if not isinstance(a, argparse._HelpAction)]
        if any(type(a) is not argparse._StoreAction or a.nargs is not None for a in acts):
            continue  # a switch, a list or an optional value: parse_args reads its argvs
        flags = {o: (a.dest, a.type or str, a.choices)
                 for a in acts for o in a.option_strings or [None] if o is None or o[:2] == "--"}
        defaults = {a.dest: a.default for a in acts}  # none is a string a type must convert
        tables[name] = flags, {a.dest for a in acts if a.required}, defaults
    return tables


def _table_parse(argv: list) -> argparse.Namespace | None:
    """The namespace parser.parse_args(argv) gives a plain argv, or None."""
    if not argv or argv[0].startswith("-") or argv[0] not in _flag_tables():
        return None  # help and top-level flags never compile the tables
    flags, required, defaults = _flag_tables()[argv[0]]
    values, words = {}, iter(argv[1:])
    for word in words:
        flag, eq, value = word.partition("=") if word.startswith("-") else (None, "=", word)
        value = value if eq else next(words, "-")  # a missing value is refused below
        entry = flags.get(flag)
        if (entry is None or (not eq and value.startswith("-"))
                or (flag is None and entry[0] in values)):  # a second positional
            return None
        dest, convert, choices = entry
        try:
            value = convert(value)
        except (TypeError, ValueError):
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    if not required <= values.keys():
        return None
    return argparse.Namespace(subcommand=argv[0], **{**defaults, **values})


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _table_parse(argv) or _build_parser().parse_args(argv)
    try:
        return _run(args)
    except (ValueError, OverflowError, OSError, EstimationError) as exc:
        print(f"helmholtz-means: error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
