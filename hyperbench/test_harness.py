"""Self-checks of the benchmark harness.  Run from the repository root:

    python3 -m pytest -q hyperbench
"""

import os
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
from run import Loop  # noqa: E402
from tracing import self_times  # noqa: E402
from workloads import EVAL_TOL, MARGIN, Outcome  # noqa: E402


def test_self_time_of_nested_spans():
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("child", 1.0, 4.0, 0, 0),
        ("grandchild", 2.0, 3.0, 1, 0),
        ("child", 5.0, 6.5, 0, 0),
        ("other", 20.0, 21.0, -1, 1),
    ]
    st = self_times(spans)
    assert st["root"] == (1, 10.0 - 3.0 - 1.5)
    assert st["child"] == (2, (3.0 - 1.0) + 1.5)
    assert st["grandchild"] == (1, 1.0)
    assert st["other"] == (1, 1.0)


def test_segment_log_oracle_matches_eval_coeffs_on_a_detour():
    from hyperlog import Alphabet, Multiplier, PoleSet, Word, build_path, eval_coeffs

    M = Multiplier.fuchsian(Alphabet(["x0", "x1"]), PoleSet(["0", "1"]), {0: (0, 1), 1: (1, -1)})
    z0, z = -1 + 0j, 0.5 + 0.01j
    path = build_path(z0, z, M.pole_set.approx, MARGIN)
    assert len(path.waypoints) >= 3, "the straight segment passes the pole at 0"
    table = eval_coeffs(M, path, 2, EVAL_TOL)
    for i, (pole, weight) in enumerate(((0j, 1), (1 + 0j, -1))):
        closed = oracles.power_word_values(path.waypoints, pole, weight, 2)
        for n, want in enumerate(closed, start=1):
            assert abs(table[Word((i,) * n)] - want) <= EVAL_TOL


def test_relation_formula_reproduces_the_z0_minus_one_relation():
    want = oracles.parse_relation("x1.x0 + x0.x1 + 2*x1 - 1/2*x0")
    assert oracles.expected_double_pole_relation(oracles.gq(-1)) == want


def test_coefficient_parser_reads_the_program_text_forms():
    want = {"-1/2": (-0.5, 0), "i": (0, 1), "-1+i": (-1, 1), "(-1/2-3/4*i)": (-0.5, -0.75)}
    for text, (re, im) in want.items():
        assert oracles.parse_gq(text) == oracles.gq(re, im)
    assert oracles.parse_relation("x0 - (1/2+1/2*i)*x1 + -i*x0.x1") == {
        "x0": oracles.gq(1),
        "x1": oracles.gq(-0.5, -0.5),
        "x0.x1": oracles.gq(0, -1),
    }


def test_window_scaling_uses_the_reference_times_inside_each_window():
    loop = Loop(SimpleNamespace(REFERENCE_S=0.01))
    loop.latencies = [0.5] * 8
    loop.strata = ["a"] * 8
    loop.outcomes = [Outcome(True, coeffs=3)] * 8
    # marks taken before the first task and after tasks 3, 5 and 8
    loop.marks = [(0, 0.01), (3, 0.02), (5, 0.04), (8, 0.01)]
    windows = [(0, 5), (5, 8)]
    scales = loop.window_scales(windows)
    assert scales == pytest.approx([0.5, 0.4])  # medians 0.02 (0, 3, 5) and 0.025 (5, 8)
    rates = loop.window_rates(windows, scales)
    assert rates[0] == pytest.approx((5 / 1.25, 15 / 1.25))
    assert rates[1] == pytest.approx((3 / 0.6, 9 / 0.6))
    assert loop.stratified_median_latency(windows, scales) == pytest.approx(0.25)
