"""Self-tests of the benchmark harness (not part of the library's suite).

    python3 -m pytest perfbench/tests -q
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


def _argvs(name, seed):
    return [c["argv"] for rnd in workloads.generate(name, seed) for c in rnd]


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_argv_lists(name):
    assert _argvs(name, 7) == _argvs(name, 7)
    assert _argvs(name, 7) != _argvs(name, 8)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_command_has_an_oracle_entry(name, seed):
    for rnd in workloads.generate(name, seed):
        for cmd in rnd:
            assert cmd["reason"]
            if cmd["table"] is not None:
                assert cmd["exit"] == 0
            else:
                assert cmd["verdicts"], cmd["argv"]
                assert all(v in (None, *workloads.EXIT_OF) for v in cmd["verdicts"])
            if cmd["exit"] is not None:
                assert cmd["exit"] in (0, 1, 2)


def test_spectral_checks_carries_the_fixed_false_fail():
    for seed in (0, 5):
        assert _argvs("spectral_checks", seed).count(workloads.FIXED_FALSE_FAIL) == 1


def test_oracle_statuses():
    cmd = {"argv": ["mean-value"], "verdicts": ["pass"], "exit": 0, "conclusion": None,
           "reason": "theorem", "soft": None, "table": None}
    report = '{"verdict": "%s", "diagnostics": {}}'
    assert oracle.check_command(cmd, 0, False, report % "pass")[0] == "ok"
    assert oracle.check_command(cmd, 2, False, report % "inconclusive")[0] == "inconclusive"
    assert oracle.check_command(cmd, 1, False, report % "fail")[0] == "wrong"
    assert oracle.check_command(cmd, 0, False, report % "fail")[0] == "error"
    assert oracle.check_command(cmd, 64, False, "")[0] == "error"
    assert oracle.check_command(cmd, None, True, "")[0] == "error"
    soft = dict(cmd, soft="known")
    assert oracle.check_command(soft, 1, False, report % "fail")[0] == "known_defect"


def _span(name, start, end, parent=None):
    s = spans.Span(name, parent, 0, {})
    s.start, s.end = start, end
    return s


def test_self_time_on_a_synthetic_span_tree():
    tree = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 3.0, 6.0, parent=0),   # overlaps a: union [1, 6] covers 5
        _span("c", 9.0, 12.0, parent=0),  # clipped to [9, 10] covers 1
        _span("a1", 1.5, 2.0, parent=1),
        _span("a2", 2.0, 3.5, parent=1),  # touches a1: union covers 2
        _span("leaf", 4.0, 5.0, parent=2),
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 1.0, 2.0, 3.0, 0.5, 1.5, 1.0])


def test_layer_metrics_from_spans():
    tree = [
        _span("cli.main", 0.0, 10.0),
        _span("quadrature.mc_mean", 1.0, 5.0, parent=0),
        _span("geometry.indicator", 1.5, 2.5, parent=1),
        _span("geometry.indicator", 1.6, 2.0, parent=2),
    ]
    tree[1].counts.update(drawn=100, accepted=25)
    tree[2].counts.update(points=100)
    tree[3].counts.update(points=100)
    m = spans.layer_metrics(tree)
    assert m["cli.self_s"] == pytest.approx(6.0)
    assert m["quadrature.mc_self_s"] == pytest.approx(3.0)
    assert m["quadrature.mc_accept_ratio"] == pytest.approx(0.25)
    assert m["geometry.indicator_points"] == 100  # nested indicator calls count once
    assert m["geometry.indicator_self_s"] == pytest.approx(1.0)


def test_tail_has_ten_samples_beyond_it():
    value, pct = run.tail([float(i) for i in range(1, 101)])
    assert value == 90.0 and pct == pytest.approx(90.0)
    with pytest.raises(run.BenchError):
        run.tail([1.0] * 10)
