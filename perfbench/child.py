"""Workload child: drives ``helmholtz_means.cli.main(argv)`` in-process.

Started by run.py, one at a time.  It runs rounds of the generated
workload in a closed loop and writes, as one JSON file, the per-invocation
exit codes, wall times and output digests plus the first output of each
distinct argv.  All checking happens in the parent after this process
has exited, so the measured process holds only the library and its
inputs.

    python3 perfbench/child.py WORKLOAD SEED SECONDS TRACE SRC OUT_JSON SPANS_JSONL
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# The tail percentile needs at least ten samples beyond it and a median
# below it, so an untraced run keeps going until it has this many.
MIN_INVOCATIONS = 20


class Client:
    """Closed-loop client with one outstanding invocation at a time."""

    def __init__(self, cli, rounds):
        self.cli = cli
        self.rounds = rounds
        self.ids: dict[tuple, int] = {}
        self.argvs: list[list[str]] = []
        self.invocations: list[list] = []  # [command id, exit code, seconds, sha256, raised]
        self.outputs: dict[int, str] = {}
        self.stderr: dict[int, str] = {}
        self.tracebacks: dict[int, str] = {}

    def _id(self, argv) -> int:
        key = tuple(argv)
        if key not in self.ids:
            self.ids[key] = len(self.argvs)
            self.argvs.append(list(argv))
        return self.ids[key]

    def invoke(self, argv) -> float:
        out, err = io.StringIO(), io.StringIO()
        tb = None
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(list(argv))
            except SystemExit as exc:  # argparse usage errors exit 64
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a raised exception is a failed invocation
                code, tb = None, traceback.format_exc()
        dt = time.perf_counter() - t0
        cid = self._id(argv)
        text = out.getvalue()
        self.invocations.append(
            [cid, code, dt, hashlib.sha256(text.encode()).hexdigest(), tb is not None])
        if cid not in self.outputs:
            self.outputs[cid] = text
            if err.getvalue():
                self.stderr[cid] = err.getvalue()
        if tb is not None and cid not in self.tracebacks:
            self.tracebacks[cid] = tb
        return dt

    def timed_loop(self, seconds: float) -> tuple[float, int]:
        """Whole rounds, cycling the list, until `seconds` have passed and
        MIN_INVOCATIONS are done.  Returns (wall seconds, rounds run)."""
        t0 = time.perf_counter()
        r = 0
        while True:
            for cmd in self.rounds[r % len(self.rounds)]:
                self.invoke(cmd["argv"])
            r += 1
            wall = time.perf_counter() - t0
            if wall >= seconds and len(self.invocations) >= MIN_INVOCATIONS:
                return wall, r


def _environment(np_module) -> dict:
    deps = np_module.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np_module.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv) -> int:
    name, seed, seconds, trace, src, out_path, spans_path = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    sys.path.insert(0, src)
    from helmholtz_means import cli
    import numpy

    rounds = workloads.generate(name, seed)
    drv = Client(cli, rounds)
    result = {"workload": name, "seed": seed, "trace": trace}
    if not trace:
        wall, n_rounds = drv.timed_loop(seconds)
        result.update(wall_s=wall, rounds=n_rounds)
    else:
        import spans

        tracer = spans.Tracer()

        def traced_invoke(argv) -> float:
            tracer.invocation += 1
            tracer.install()
            try:
                return drv.invoke(argv)
            finally:
                tracer.uninstall()

        # Each command of the prefix runs once untraced and once traced, in
        # alternating order, so that neither side gains from the other
        # having warmed the allocator and caches.
        n_rounds = min(workloads.trace_rounds(name), len(rounds))
        prefix = [cmd["argv"] for r in range(n_rounds) for cmd in rounds[r]]
        drv.invoke(prefix[0])  # warm-up: first-call costs fall on neither side
        untraced = traced = 0.0
        for i, argv in enumerate(prefix):
            if i % 2:
                traced += traced_invoke(argv)
                untraced += drv.invoke(argv)
            else:
                untraced += drv.invoke(argv)
                traced += traced_invoke(argv)
        metrics = spans.layer_metrics(tracer.spans)
        metrics["trace.overhead_frac"] = traced / untraced - 1.0
        tracer.write(spans_path)
        result.update(wall_s=untraced, traced_wall_s=traced,
                      rounds=n_rounds, traced_invocations=len(prefix),
                      spans=len(tracer.spans), layer_metrics=metrics)
    result.update(
        environment=_environment(numpy),
        argvs=drv.argvs,
        invocations=drv.invocations,
        outputs={str(k): v for k, v in drv.outputs.items()},
        stderr={str(k): v for k, v in drv.stderr.items()},
        tracebacks={str(k): v for k, v in drv.tracebacks.items()},
    )
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
