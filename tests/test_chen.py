import cmath

import numpy as np
import pytest

from hyperlog import (
    Multiplier,
    PathGeometryError,
    PathSpec,
    PoleLocalizedRational,
    Word,
    build_path,
    eval_coeffs,
    grouplike_defect,
    grouplike_report,
)
from hyperlog.cert import rational_coefficient_table
from hyperlog.chen import _segment_distance

E = Word()
X0 = Word((0,))
X1 = Word((1,))
X00 = Word((0, 0))
X01 = Word((0, 1))
X10 = Word((1, 0))


def min_pole_distance(path, poles):
    return min(
        _segment_distance(a, b, p) for a, b in path.segments() for p in poles
    )


class TestPathSpec:
    def test_duplicate_waypoints_rejected(self):
        with pytest.raises(PathGeometryError):
            PathSpec((0j, 0j), 0.1)

    def test_margin_positive(self):
        with pytest.raises(PathGeometryError):
            PathSpec((0j, 1j), -1.0)

    def test_validate_against(self):
        p = PathSpec((-1 + 0j, 1 + 0j), 0.1)
        with pytest.raises(PathGeometryError):
            p.validate_against([0j])

    @pytest.mark.parametrize(
        "waypoints, margin",
        [
            ((complex("nan"), 1j), 0.1),
            ((0j, complex("inf")), 0.1),
            ((0j, 1j), float("nan")),
            ((0j, 1j), float("inf")),
        ],
    )
    def test_non_finite_rejected(self, waypoints, margin):
        with pytest.raises(PathGeometryError):
            PathSpec(waypoints, margin)


class TestBuildPath:
    def test_straight_when_clear(self):
        path = build_path(-1, -2, [0j, 1 + 0j], 0.1)
        assert path.waypoints == (-1 + 0j, -2 + 0j)

    def test_detour_clears_margin(self):
        # straight segment would pass through both poles
        path = build_path(-1, 2, [0j, 1 + 0j], 0.1)
        assert len(path.waypoints) > 2
        assert min_pole_distance(path, [0j, 1 + 0j]) >= 0.1 * (1 - 1e-9)

    def test_deterministic(self):
        a = build_path(-1, 2, [0j, 1 + 0j], 0.1)
        b = build_path(-1, 2, [0j, 1 + 0j], 0.1)
        assert a.waypoints == b.waypoints

    def test_degenerate_point(self, polylog_multiplier):
        path = build_path(0.5, 0.5, [0j, 1 + 0j], 0.1)
        assert path.waypoints == (0.5 + 0j,)
        T = eval_coeffs(polylog_multiplier, path, 2, 1e-12)
        assert T[E] == 1.0
        assert all(T[w] == 0.0 for w in T.words() if len(w) >= 1)

    def test_endpoint_too_close(self):
        with pytest.raises(PathGeometryError):
            build_path(0.05, -1, [0j], 0.1)

    @pytest.mark.parametrize(
        "z0, z, margin",
        [
            (float("nan"), 0.5, 0.05),
            (-1, complex("inf"), 0.05),
            (-1, complex(0.5, float("nan")), 0.05),
            (-1, 2, float("nan")),
            (-1, 2, float("inf")),
        ],
    )
    def test_non_finite_rejected(self, z0, z, margin):
        with pytest.raises(PathGeometryError):
            build_path(z0, z, [0j, 1 + 0j], margin)


class TestEvalCoeffs:
    def test_closed_form_logs(self, polylog_multiplier):
        path = build_path(0.5, 0.25, [0j, 1 + 0j], 0.1)
        T = eval_coeffs(polylog_multiplier, path, 2, 1e-12)
        assert T[X0] == pytest.approx(cmath.log(0.5), abs=1e-11)
        assert T[X1] == pytest.approx(cmath.log(2 / 3), abs=1e-11)
        # shuffle identity <S|x0>^2 = 2 <S|x0 x0>
        assert T[X00] == pytest.approx(cmath.log(0.5) ** 2 / 2, abs=1e-11)

    def test_unit_row_is_exact(self, polylog_multiplier):
        path = build_path(0.5, 0.25, [0j, 1 + 0j], 0.1)
        T = eval_coeffs(polylog_multiplier, path, 1, 1e-10)
        assert T[E] == 1.0 + 0.0j

    def test_table_is_complete(self, polylog_multiplier):
        path = build_path(0.5, 0.25, [0j, 1 + 0j], 0.1)
        T = eval_coeffs(polylog_multiplier, path, 3, 1e-10)
        assert len(T.values) == 1 + 2 + 4 + 8
        assert set(T.error_estimates) == {0, 1, 2, 3}

    def test_degree_cap(self, polylog_multiplier):
        path = build_path(0.5, 0.25, [0j, 1 + 0j], 0.1)
        T = eval_coeffs(polylog_multiplier, path, 2, 1e-10, degree_cap={0: 1, 1: 1})
        assert X00 not in T
        assert X01 in T

    def test_bad_truncation(self, polylog_multiplier):
        path = build_path(0.5, 0.25, [0j, 1 + 0j], 0.1)
        with pytest.raises(Exception):
            eval_coeffs(polylog_multiplier, path, -1, 1e-10)
        with pytest.raises(ValueError):
            eval_coeffs(polylog_multiplier, path, 2, 0.0)
        for tol in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                eval_coeffs(polylog_multiplier, path, 2, tol)

    def test_path_must_respect_margin(self, polylog_multiplier):
        bad = PathSpec((-1 + 0j, 2 + 0j), 0.05)  # runs through both poles
        with pytest.raises(PathGeometryError):
            eval_coeffs(polylog_multiplier, bad, 1, 1e-10)

    def test_depth2_matches_nested_quadrature(self, polylog_multiplier):
        # independent oracle: two-dimensional Gauss-Legendre on the straight
        # segment, <S|x0 x1>(z) = int u0(s) (int_{z0}^{s} u1) ds
        nodes, weights = np.polynomial.legendre.leggauss(120)
        nodes = 0.5 * (nodes + 1.0)
        weights = 0.5 * weights
        z0 = 0.5

        def inner(s):
            pts = z0 + nodes * (s - z0)
            vals = -1.0 / (pts - 1.0)
            return np.sum(weights * vals) * (s - z0)

        def oracle(z):
            pts = z0 + nodes * (z - z0)
            vals = np.array([inner(s) / s for s in pts])
            return np.sum(weights * vals) * (z - z0)

        for z in (0.25, 0.5 + 0.5j, 0.25 + 0.25j):
            path = build_path(z0, z, [0j, 1 + 0j], 0.1)
            T = eval_coeffs(polylog_multiplier, path, 2, 1e-12)
            assert abs(T[X01] - oracle(z)) < 1e-7

    def test_triangular_consistency(self, polylog_multiplier):
        # finite differences of <S|x_i w> along z match u_i(z) <S|w>
        M = polylog_multiplier
        z0 = -1.0
        zc = -1.2 + 0.8j
        h = 1e-5

        def table(z):
            return eval_coeffs(M, build_path(z0, z, [0j, 1 + 0j], 0.05), 3, 1e-12)

        Tp, Tm, Tc = table(zc + h), table(zc - h), table(zc)
        for w in Tc.words():
            if not w:
                continue
            u = M.terms[w[0]]
            want = u.evaluate(zc) * Tc[Word(w[1:])]
            got = (Tp[w] - Tm[w]) / (2 * h)
            assert abs(got - want) <= 1e-5 * max(1.0, abs(want))


    @pytest.mark.parametrize(
        "z0, z", [(2, 0.97 - 0.05j), (2, 0.5 + 0.01j), (-1, 0.06 + 0.01j), (-1, 1.06 + 0.02j)]
    )
    def test_double_poles_match_exact_forms(self, counterexample_multiplier, z0, z):
        # near-pole endpoints reached round a pole.  The exact table holds
        # the power words; x0.x1 and x1.x0 need logs: with c = 1/(z0-1) and
        # d = 1/z0, u0 <S|x1> = 1/s + (1+c)/s^2 - 1/(s-1) and
        # u1 <S|x0> = -1/s + 1/(s-1) - (1-d)/(s-1)^2, logs continued
        # segment by segment along the path
        M = counterexample_multiplier
        tol = 1e-12
        path = build_path(z0, z, M.pole_set.approx, 0.05)
        assert len(path.waypoints) > 2
        T = eval_coeffs(M, path, 3, tol)
        exact = rational_coefficient_table(M, z0, 3)
        want = {w: f.evaluate(z) for w, f in exact.entries.items()}
        L0, L1 = (sum(cmath.log((b - p) / (a - p)) for a, b in path.segments()) for p in (0, 1))
        c, d = 1 / (z0 - 1), 1 / z0
        want[X01] = L0 - L1 - (1 + c) * (1 / z - 1 / z0)
        want[X10] = L1 - L0 + (1 - d) * (1 / (z - 1) - 1 / (z0 - 1))
        for w, value in want.items():
            assert abs(T[w] - value) <= 10 * tol, w

    @pytest.mark.parametrize("z", [0.1 + 0.05j, 0.5 + 0.01j, 1.06 + 0.02j, 0.94 - 0.03j])
    def test_fuchsian_estimates_stay_under_tol(self, polylog_multiplier, z):
        tol = 1e-12
        path = build_path(-1, z, [0j, 1 + 0j], 0.05)
        T = eval_coeffs(polylog_multiplier, path, 4, tol)
        assert 0.0 < max(T.error_estimates.values()) <= tol

    @pytest.mark.parametrize("z0, z", [(2, 2 + 3j), (-1, -1 + 2j)])
    def test_polynomial_part_estimates_stay_under_tol(self, alphabet01, poles01, z0, z):
        # u0 = 1/z, u1 = z: far from the only pole carrying a term, the step
        # is limited by the size of u1 rather than by the pole distance
        M = Multiplier(
            alphabet01,
            poles01,
            {
                0: PoleLocalizedRational.simple_pole(poles01, 0),
                1: PoleLocalizedRational(poles01, (0, 1)),
            },
        )
        tol = 1e-12
        T = eval_coeffs(M, build_path(z0, z, poles01.approx, 0.05), 4, tol)
        assert 0.0 < max(T.error_estimates.values()) <= tol
        L, F = cmath.log(z / z0), (z * z - z0 * z0) / 2
        want = {X0: L, X1: F, X00: L**2 / 2, Word((1, 1, 1, 1)): F**4 / 24}
        for w, value in want.items():
            assert abs(T[w] - value) <= 10 * tol, w


class TestPathInvariance:
    def test_margin_independence(self, polylog_multiplier):
        tol = 1e-11
        tables = []
        for margin in (0.05, 0.2):
            path = build_path(-1, 2.5, [0j, 1 + 0j], margin)
            tables.append(eval_coeffs(polylog_multiplier, path, 3, tol))
        a, b = tables
        assert a.words() == b.words()
        for w in a.words():
            assert abs(a[w] - b[w]) <= 10 * tol

    def test_round_trip_is_identity(self, polylog_multiplier):
        tol = 1e-11
        fwd = build_path(-1, 2.5, [0j, 1 + 0j], 0.1)
        loop = PathSpec(fwd.waypoints + fwd.waypoints[-2::-1], 0.1)
        T = eval_coeffs(polylog_multiplier, loop, 3, tol)
        assert T[E] == 1.0
        for w in T.words():
            if w:
                assert abs(T[w]) <= 10 * tol


class TestGrouplike:
    def test_clean_table(self, polylog_multiplier):
        path = build_path(0.5, 0.25, [0j, 1 + 0j], 0.1)
        T = eval_coeffs(polylog_multiplier, path, 4, 1e-12)
        assert grouplike_defect(T) < 1e-9

    def test_corrupted_table(self, polylog_multiplier):
        path = build_path(0.5, 0.25, [0j, 1 + 0j], 0.1)
        T = eval_coeffs(polylog_multiplier, path, 4, 1e-12)
        T.values[X00] += 0.1
        defect, pairw = grouplike_report(T)
        assert defect >= 0.19
        assert pairw == (X0, X0)

    def test_vacuous_at_depth_one(self, polylog_multiplier):
        path = build_path(0.5, 0.25, [0j, 1 + 0j], 0.1)
        T = eval_coeffs(polylog_multiplier, path, 1, 1e-12)
        defect, pairw = grouplike_report(T)
        assert defect == 0.0 and pairw is None
