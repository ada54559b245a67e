"""Compare the CLI's stdout and stderr under two source trees, argv by argv.

    python3 tools/stdout_diff.py OLD_SRC NEW_SRC [--seeds 7,11] [--readme README.md]

OLD_SRC and NEW_SRC are directories that hold the ``helmholtz_means``
package (a checkout's ``src/``).  The argvs are every command that
``perfbench/workloads.py`` generates at each seed, the
``helmholtz-means`` commands of the README's command-line block, and
USAGE_ARGVS, a fixed list of usage errors and help requests that
exercises the parser's messages.  Each tree runs them all in one fresh
interpreter, calling ``helmholtz_means.cli.main(argv)`` in-process, so
the two runs share no state.  perfbench/ is only read.

The report lists every argv whose exit code or stderr changed, counts
the outputs that are byte-identical, and for the rest names each
changed JSON path (list indices folded to ``[]``; a CSV column counts
as a path) with its largest relative change over all argvs, the largest
new magnitude where the old value was 0, or ``changed`` for a
non-numeric value.  The exit status is 1 when an exit code or a stderr
changed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import shlex
import subprocess
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Usage errors and help: an unknown flag, a missing value, a bad choice, a
# bad int, an abbreviated flag, a negative-number value, '--' and help.
USAGE_ARGVS = [
    ["sweep", "--m", "2", "--bogus", "1"],
    ["sweep", "--m"],
    ["sweep", "--m", "2", "--format", "xml"],
    ["sweep", "--m", "two"],
    ["sweep", "--m", "2", "--cou", "3"],
    ["sweep", "--m", "2", "--t-min", "-1", "--count", "3"],
    ["sweep", "--m", "2", "--", "--count", "3"],
    ["--help"],
    ["identity", "--help"],
]

# Run in a child interpreter: argv 1 is the source tree, stdin the JSON
# list of argvs, stdout the JSON list of [exit code, stdout, stderr] per argv.
COLLECT = """\
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from helmholtz_means import cli
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def workload_argvs(seeds) -> list[list[str]]:
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    argvs = []
    for name in workloads.WORKLOADS:
        for seed in seeds:
            for rnd in workloads.generate(name, seed):
                argvs.extend(cmd["argv"] for cmd in rnd)
    return argvs


def readme_argvs(path: str) -> list[list[str]]:
    """The helmholtz-means commands of the README's shell blocks, with
    line continuations joined and output redirections dropped."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read().replace("\\\n", " ")
    argvs = []
    for line in text.splitlines():
        if not line.startswith("helmholtz-means "):
            continue
        words = shlex.split(line, comments=True)
        if words:
            if ">" in words:
                words = words[: words.index(">")]
            argvs.append(words[1:])
    return argvs


def collect(src: str, argvs) -> list[tuple[int, str, str]]:
    proc = subprocess.run([sys.executable, "-c", COLLECT, os.path.abspath(src)],
                          input=json.dumps(argvs), capture_output=True, text=True, check=True)
    return [tuple(r) for r in json.loads(proc.stdout)]


def parse(text: str):
    """JSON, else a CSV table as {column: [values]}, else the raw text."""
    try:
        return json.loads(text)
    except ValueError:
        pass
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) > 1 and all(len(row) == len(rows[0]) for row in rows):
        return {col: [row[i] for row in rows[1:]] for i, col in enumerate(rows[0])}
    return text


def numeric(x):
    if isinstance(x, bool):
        return None
    if isinstance(x, (int, float)):
        return float(x)
    try:
        return float(x)
    except (TypeError, ValueError):
        return None


def walk(old, new, path, changes):
    """Record at each folded path the largest relative change, and the
    largest |new| where old was 0 (as a negative entry)."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            walk(old.get(key), new.get(key), f"{path}.{key}" if path else key, changes)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for a, b in zip(old, new):
            walk(a, b, path + "[]", changes)
    elif old != new:
        a, b = numeric(old), numeric(new)
        if a is None or b is None:
            changes[path]["changed"] = True
        elif a:
            changes[path]["rel"] = max(changes[path].get("rel", 0.0), abs(b - a) / abs(a))
        else:
            changes[path]["from_zero"] = max(changes[path].get("from_zero", 0.0), abs(b))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--seeds", default="7,11")
    parser.add_argument("--readme", default=os.path.join(ROOT, "README.md"))
    args = parser.parse_args(argv)

    argvs = workload_argvs([int(s) for s in args.seeds.split(",")])
    argvs += readme_argvs(args.readme) + USAGE_ARGVS
    unique = list({json.dumps(a): a for a in argvs}.values())
    old, new = collect(args.old_src, unique), collect(args.new_src, unique)

    exits, errs, same, changes = [], [], 0, defaultdict(dict)
    for argv, (code_a, out_a, err_a), (code_b, out_b, err_b) in zip(unique, old, new):
        if code_a != code_b:
            exits.append((code_a, code_b, argv))
        if err_a != err_b:
            errs.append((err_a, err_b, argv))
        if out_a == out_b:
            same += 1
        else:
            walk(parse(out_a), parse(out_b), "", changes)

    print(f"{len(unique)} distinct argvs; {len(exits)} exit-code changes; "
          f"{len(errs)} stderr changes; {same} byte-identical outputs")
    for code_a, code_b, argv in exits:
        print(f"exit {code_a} -> {code_b}: {shlex.join(argv)}")
    for err_a, err_b, argv in errs:
        print(f"stderr {err_a!r} -> {err_b!r}: {shlex.join(argv)}")
    for path, change in sorted(changes.items()):
        parts = [f"relative {change['rel']:.3g}"] if "rel" in change else []
        if "from_zero" in change:
            parts.append(f"from 0 to at most {change['from_zero']:.3g}")
        if change.get("changed"):
            parts.append("changed")
        print(f"{path}: {'; '.join(parts)}")
    return 1 if exits or errs else 0


if __name__ == "__main__":
    sys.exit(main())
