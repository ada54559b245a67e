"""Benchmark of the ``helmholtz-means`` CLI: closed-loop workloads,
time-to-verdict metrics and a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the library is imported from
``src/``).  With ``--trace 0`` one workload child drives
``helmholtz_means.cli.main(argv)`` in a closed loop (one client, each
invocation starts after the previous one returns) for whole rounds until
``--seconds`` have passed, and the end-to-end metrics are printed.  With
``--trace 1`` the child runs each command of a fixed prefix of the rounds
once untraced and once traced, and the per-layer metrics are printed.  Every output is
checked against the verdict theory fixes for it.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import spans  # noqa: E402  (per-layer metric names)
import workloads  # noqa: E402

SETUP_PROBES = 7
CHILD_TIMEOUT_S = 150.0
TAIL_BEYOND = 10
# One thread per process: the benchmark starts no threads of its own and
# keeps BLAS from starting any, whatever the core count.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

PROBE = """\
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from helmholtz_means import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        cli.main(["--help"])
    except SystemExit:
        pass
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""

END_TO_END_UNITS = {
    "setup_s": "s", "checks_per_s": "1/s", "check_p50_s": "s", "check_tail_s": "s",
    "peak_rss_mb": "MiB",
}


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    return env


def setup_probe(env) -> float:
    """Seconds from spawning a fresh interpreter until helmholtz_means.cli
    is imported and its parser is built (``main(["--help"])`` returned)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", PROBE, SRC], stdout=subprocess.PIPE,
                            env=env, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=60)
    if line != b"ready\n" or code != 0:
        raise BenchError(f"setup probe failed (exit {code})")
    return elapsed


def run_child(env, workload, seed, seconds, trace) -> tuple[dict, float]:
    """Run one workload child; returns its result and its peak RSS in MiB,
    read from the child's ru_maxrss via os.wait4."""
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    out_path = os.path.join(OUT_DIR, f"{tag}.child.json")
    spans_path = os.path.join(OUT_DIR, f"{tag}.spans.jsonl")
    if os.path.exists(out_path):
        os.remove(out_path)
    argv = [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed),
            repr(float(seconds)), "1" if trace else "0", SRC, out_path, spans_path]
    pid = os.posix_spawn(sys.executable, argv, env)
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    while True:
        wpid, status, rusage = os.wait4(pid, os.WNOHANG)
        if wpid == pid:
            break
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.wait4(pid, 0)
            raise BenchError(f"workload child exceeded {CHILD_TIMEOUT_S:.0f} s")
        time.sleep(0.05)
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not os.path.exists(out_path):
        raise BenchError(f"workload child exited {code}")
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh), rusage.ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with at least
    TAIL_BEYOND samples beyond it: the (n - 10)-th smallest sample."""
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        raise BenchError(f"{n} samples: too few for a tail with {TAIL_BEYOND} beyond")
    k = n - TAIL_BEYOND  # 1-based rank
    return xs[k - 1], 100.0 * k / n


def git_sha(root: str) -> str | None:
    """HEAD commit read from .git without starting a process."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def evaluate(workload: str, seed: int, child: dict) -> dict:
    """Oracle verdicts for every invocation, summarised."""
    commands = {tuple(c["argv"]): c for rnd in workloads.generate(workload, seed) for c in rnd}
    invocations = child["invocations"]
    statuses, base, note = oracle.classify(commands, child["argvs"], invocations,
                                           child["outputs"])
    per_cmd: dict[tuple[int, str], dict] = {}
    for (cid, *_rest), status in zip(invocations, statuses):
        if status == "ok":
            continue
        cmd = commands[tuple(child["argvs"][cid])]
        entry = per_cmd.get((cid, status))
        if entry is None:
            entry = per_cmd[(cid, status)] = {
                "argv": cmd["argv"], "status": status, "count": 0, "reason": cmd["reason"],
                "detail": (base[cid][1] if status == base[cid][0]
                           else "output differs from first pass"),
            }
            if status == "known_defect":
                entry["known_defect"] = cmd["soft"]
            for key in ("stderr", "tracebacks"):
                if str(cid) in child[key]:
                    entry[key] = child[key][str(cid)]
        entry["count"] += 1
    n = len(invocations)
    failed = sum(s in oracle.FAILED for s in statuses)
    hard = sum(s in oracle.HARD for s in statuses)
    inconclusive = statuses.count("inconclusive")
    return {
        "attempted": n,
        "failed_frac": _metric(failed / n, "ratio"),
        "inconclusive_frac": _metric(inconclusive / n, "ratio"),
        "hard_failures": hard,
        "failed_invocations": [e for e in per_cmd.values() if e["status"] in oracle.FAILED],
        "inconclusive_invocations": [e for e in per_cmd.values()
                                     if e["status"] == "inconclusive"],
        "specfun_oracle": note or "scipy.special",
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "helmholtz_means", "cli.py")):
        print(f"perfbench: no helmholtz_means sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    env = _child_env()
    try:
        setup = []
        if not args.trace:
            setup_probe(env)  # warm-up: byte-compiles the sources once
            setup = [setup_probe(env) for _ in range(SETUP_PROBES)]
        child, peak_rss_mb = run_child(env, args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    checks = evaluate(args.workload, args.seed, child)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "load": "closed loop, 1 client, 1 process, in-process cli.main(argv)",
        "git_sha": git_sha(ROOT),
        "nproc": os.cpu_count(),
        **child["environment"],
        "rounds": child["rounds"],
        "invocations": checks["attempted"],
        "distinct_argv": len(child["argvs"]),
        **{k: v for k, v in checks.items() if k != "attempted"},
    }
    dts = [inv[2] for inv in child["invocations"]]
    if args.trace:
        metrics = {name: _metric(child["layer_metrics"][name], unit)
                   for name, unit in spans.METRIC_NAMES.items()}
        metrics["trace.overhead_frac"] = _metric(
            child["layer_metrics"]["trace.overhead_frac"], "ratio")
        record.update(untraced_wall_s=child["wall_s"], traced_wall_s=child["traced_wall_s"],
                      traced_invocations=child["traced_invocations"], spans=child["spans"])
    else:
        tail_s, tail_pct = tail(dts)
        metrics = {
            "setup_s": statistics.median(setup),
            "checks_per_s": len(dts) / child["wall_s"],
            "check_p50_s": statistics.median(dts),
            "check_tail_s": tail_s,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: _metric(v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
        record.update(
            wall_s=child["wall_s"],
            samples={"setup_s": len(setup), "check_p50_s": len(dts), "check_tail_s": len(dts),
                     "checks_per_s": len(dts), "peak_rss_mb": 1},
            check_tail_percentile=tail_pct,
            setup_probes_s=setup,
        )
    record["metrics"] = metrics
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, f"{tag}.record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": checks["hard_failures"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["hard_failures"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
