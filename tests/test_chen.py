import cmath
import math
import random
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from hyperlog import (
    Alphabet,
    Multiplier,
    PathGeometryError,
    PathSpec,
    PoleLocalizedRational,
    PoleSet,
    Word,
    build_path,
    eval_coeffs,
    grouplike_defect,
    grouplike_report,
    shuffle,
)
from hyperlog import chen
from hyperlog.cert import rational_coefficient_table
from hyperlog.chen import CoefficientTable, _segment_distance
from hyperlog.cli import load_config

E = Word()
X0 = Word((0,))
X1 = Word((1,))
X00 = Word((0, 0))
X01 = Word((0, 1))
X10 = Word((1, 0))


DOUBLE_POLE_PATHS = [(2, 0.97 - 0.05j), (2, 0.5 + 0.01j), (-1, 0.06 + 0.01j), (-1, 1.06 + 0.02j)]
POLYNOMIAL_PART_PATHS = [(2, 2 + 3j), (-1, -1 + 2j)]


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
        assert T.steps == 0

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

    @pytest.mark.parametrize(
        "z, steps, max_order",
        [(0.5 + 0.8j, 6, 32), (-0.15, 4, 31)],
        ids=["straight", "aimed-at-pole"],
    )
    def test_steps_on_fixed_paths(self, polylog_multiplier, z, steps, max_order):
        # the path of configs/polylog.yaml from its basepoint -1: a straight
        # segment clear of both poles, and one aimed at pole 0 that ends
        # three margins from it; a change to the step rule or to the bound
        # that plans the series orders moves these
        path = build_path(-1, z, [0j, 1 + 0j], 0.05)
        assert len(path.waypoints) == 2
        T = eval_coeffs(polylog_multiplier, path, 4, 1e-12)
        assert (T.steps, T.max_order) == (steps, max_order)

    def test_segment_shorter_than_first_step_ends_on_z(self, polylog_multiplier):
        # pole 0 alone would allow a step of 1/3 about the centre; the step
        # is cut to the segment, and the values are those at z exactly
        tol = 1e-12
        z0, z = -1.0, -1.01
        T = eval_coeffs(polylog_multiplier, build_path(z0, z, [0j, 1 + 0j], 0.05), 3, tol)
        assert T.steps == 1
        L0, L1 = cmath.log(z / z0), -cmath.log((z - 1) / (z0 - 1))
        want = {X0: L0, X1: L1, X00: L0**2 / 2, Word((1, 1, 1)): L1**3 / 6}
        for w, value in want.items():
            assert abs(T[w] - value) <= tol, w

    def test_values_inserted_in_graded_order(self, polylog_multiplier):
        # the array is in graded lex order, which the word-keyed view follows
        path = build_path(-1, 0.5 + 0.8j, [0j, 1 + 0j], 0.05)
        T = eval_coeffs(polylog_multiplier, path, 5, 1e-12)
        words = T.words()
        assert words == sorted(words) == list(T.values)
        assert len(T.values) == len(words) == 63
        assert [T[w] for w in words] == T.coeffs.tolist()

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


    @pytest.mark.parametrize("z0, z", DOUBLE_POLE_PATHS)
    def test_double_poles_match_exact_forms(self, counterexample_multiplier, z0, z, N=3):
        # near-pole endpoints reached round a pole.  The exact table holds
        # the power words; x0.x1 and x1.x0 need logs: with c = 1/(z0-1) and
        # d = 1/z0, u0 <S|x1> = 1/s + (1+c)/s^2 - 1/(s-1) and
        # u1 <S|x0> = -1/s + 1/(s-1) - (1-d)/(s-1)^2, logs continued
        # segment by segment along the path
        M = counterexample_multiplier
        tol = 1e-12
        path = build_path(z0, z, M.pole_set.approx, 0.05)
        assert len(path.waypoints) > 2
        T = eval_coeffs(M, path, N, tol)
        assert len(T.values) == 2 ** (N + 1) - 1
        assert max(T.error_estimates.values()) <= tol
        exact = rational_coefficient_table(M, z0, N)
        want = {w: f.evaluate(z) for w, f in exact.entries.items()}
        L0, L1 = (sum(cmath.log((b - p) / (a - p)) for a, b in path.segments()) for p in (0, 1))
        c, d = 1 / (z0 - 1), 1 / z0
        if N >= 2:
            want[X01] = L0 - L1 - (1 + c) * (1 / z - 1 / z0)
            want[X10] = L1 - L0 + (1 - d) * (1 / (z - 1) - 1 / (z0 - 1))
        assert T[E] == 1.0
        for w, value in want.items():
            assert abs(T[w] - value) <= 10 * tol, w

    @pytest.mark.parametrize("N", [0, 1, 2])
    def test_double_poles_at_small_truncations(self, counterexample_multiplier, N):
        # N // 2 is 0 or 1, so every stratum above it comes from Chen's lemma
        for z0, z in DOUBLE_POLE_PATHS:
            self.test_double_poles_match_exact_forms(counterexample_multiplier, z0, z, N)

    @pytest.mark.parametrize("z", [0.1 + 0.05j, 0.5 + 0.01j, 1.06 + 0.02j, 0.94 - 0.03j])
    def test_fuchsian_estimates_stay_under_tol(self, polylog_multiplier, z):
        tol = 1e-12
        path = build_path(-1, z, [0j, 1 + 0j], 0.05)
        T = eval_coeffs(polylog_multiplier, path, 4, tol)
        assert 0.0 < max(T.error_estimates.values()) <= tol

    @pytest.mark.parametrize("z0, z", POLYNOMIAL_PART_PATHS)
    def test_polynomial_part_estimates_stay_under_tol(self, alphabet01, poles01, z0, z, N=4):
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
        T = eval_coeffs(M, build_path(z0, z, poles01.approx, 0.05), N, tol)
        assert max(T.error_estimates.values()) <= tol
        assert (max(T.error_estimates.values()) > 0.0) == (N > 0)
        L, F = cmath.log(z / z0), (z * z - z0 * z0) / 2
        # <S|x1>(s) = F(s), so <S|x0.x1> = F/2 - z0^2 L/2 and
        # <S|x0.x0.x1> = F/4 - z0^2 (L/4 + L^2/4)
        want = {E: 1.0, X0: L, X1: F, X00: L**2 / 2, X01: F / 2 - z0 * z0 * L / 2}
        want[Word((0, 0, 1))] = F / 4 - z0 * z0 * (L + L * L) / 4
        want[Word((1, 1, 1, 1))] = F**4 / 24
        for w, value in want.items():
            if len(w) <= N:
                assert abs(T[w] - value) <= 10 * tol, w

    @pytest.mark.parametrize("N", [0, 1, 2, 3])
    def test_polynomial_part_at_small_truncations(self, alphabet01, poles01, N):
        # N // 2 is 0 or 1, so every stratum above it comes from Chen's lemma
        for z0, z in POLYNOMIAL_PART_PATHS:
            self.test_polynomial_part_estimates_stay_under_tol(alphabet01, poles01, z0, z, N)

    @pytest.mark.parametrize("N", [1, 2, 4])
    @pytest.mark.parametrize("z0, z", POLYNOMIAL_PART_PATHS)
    def test_constant_polynomial_part(self, alphabet01, poles01, z0, z, N):
        # u0 = 1/z, u1 = 1: a polynomial part of degree 0.  With L = log(z/z0)
        # and D = z - z0, <S|x0.x1> = D - z0 L and <S|x1.x0> = z L - D
        M = Multiplier(
            alphabet01,
            poles01,
            {
                0: PoleLocalizedRational.simple_pole(poles01, 0),
                1: PoleLocalizedRational.one(poles01),
            },
        )
        tol = 1e-12
        T = eval_coeffs(M, build_path(z0, z, poles01.approx, 0.05), N, tol)
        assert 0.0 < max(T.error_estimates.values()) <= tol
        L, D = cmath.log(z / z0), z - z0
        want = {X0: L, X1: D, X00: L**2 / 2, X01: D - z0 * L, X10: z * L - D}
        want[Word((1, 1, 1, 1))] = D**4 / 24
        want[Word((0, 0, 0, 0))] = L**4 / 24
        for w, value in want.items():
            if len(w) <= N:
                assert abs(T[w] - value) <= 10 * tol, w


def chebyshev_integration(n):
    """Chebyshev points tau_j on [0, 1] (ascending, ends included) and the
    matrix S with sum_k S[j, k] f(tau_k) = integral of f over [0, tau_j]
    for every polynomial f of degree < n, at the working precision."""
    theta = [mp.pi * (n - 1 - j) / (n - 1) for j in range(n)]  # x_j = cos(theta_j)
    # values -> Chebyshev coefficients (DCT-I), then the antiderivative of
    # each T_k from -1, halved for the map x = 2 tau - 1
    edge = lambda i: mp.mpf(0.5) if i in (0, n - 1) else mp.mpf(1)
    C = [[2 * edge(k) * edge(j) * mp.cos(k * theta[j]) / (n - 1) for j in range(n)] for k in range(n)]

    def anti(k, th):
        if k == 0:
            return mp.cos(th) + 1
        if k == 1:
            return (mp.cos(th) ** 2 - 1) / 2
        F = lambda t: (mp.cos((k + 1) * t) / (k + 1) - mp.cos((k - 1) * t) / (k - 1)) / 2
        return F(th) - F(mp.pi)

    A = [[anti(k, th) for k in range(n)] for th in theta]
    S = [[mp.fsum(A[j][k] * C[k][i] for k in range(n)) / 2 for i in range(n)] for j in range(n)]
    return [(1 - mp.cos(mp.pi * j / (n - 1))) / 2 for j in range(n)], S


def mp_coefficients(letters, path, N, n=32):
    """<S|w> for every |w| <= N of u_i = weight_i / (z - pole_i), letters
    given as (pole, weight): the coefficient system integrated in mpmath by
    Chebyshev collocation on panels a third of the distance to the nearest
    pole long, where the interpolation error is far below 1e-24."""
    taus, S = chebyshev_integration(n)
    strata = [[()]]
    for _ in range(N):
        strata.append([(i,) + w for i in range(len(letters)) for w in strata[-1]])
    vals = {w: mp.mpc(0) for st in strata for w in st}
    vals[()] = mp.mpc(1)
    for a, b in path.segments():
        a, b = mp.mpc(a), mp.mpc(b)
        t = mp.mpf(0)
        while t < 1:
            c = a + (b - a) * t
            ell = min(1 - t, min(abs(c - p) for p, _ in letters) / (3 * abs(b - a)))
            step = (b - a) * ell
            g = [[wt * step / (c + step * tau - p) for tau in taus] for p, wt in letters]
            prev = {(): [1] * n}  # values at the panel's points
            for ln in range(1, N + 1):
                cur = {}
                for w in strata[ln]:
                    f = [gi * yi for gi, yi in zip(g[w[0]], prev[w[1:]])]
                    if ln == N:
                        vals[w] += mp.fdot(S[-1], f)
                    else:
                        cur[w] = [vals[w] + mp.fdot(row, f) for row in S]
                        vals[w] = cur[w][-1]
                prev = cur
            t += ell
    return vals


class TestMpmathOracle:
    """Every word of length <= 4 of configs/polylog.yaml, and deeper tables
    whose upper strata come from Chen's lemma, against the coefficient
    system integrated independently at 30 digits."""

    POLYLOG = ((0, 1), (1, -1))  # (pole, weight): u0 = 1/z, u1 = 1/(1-z)

    @pytest.mark.parametrize("z", [0.5 + 0.8j, 0.5 - 0.01j])
    def test_polylog_words_within_estimates(self, polylog_multiplier, z):
        self.check(polylog_multiplier, self.POLYLOG, -1, z, 4)

    @pytest.mark.parametrize(
        "z0, z", [(-1, -0.1 + 0.05j), (-0.08, -1.5)], ids=["near-pole-endpoint", "away-from-pole"]
    )
    def test_two_sided_steps_within_estimates(self, polylog_multiplier, z0, z):
        # a straight path that ends 2.2 margins from pole 0, and one that
        # starts 1.6 margins from it and heads straight away, where the
        # first steps reach dist/3 about their centres
        self.check(polylog_multiplier, self.POLYLOG, z0, z, 4)

    def test_polylog_depth_six(self, polylog_multiplier):
        # strata 4..6 are past N // 2 = 3
        self.check(polylog_multiplier, self.POLYLOG, -1, 0.5 + 0.8j, 6)

    def test_three_letters_depth_five(self):
        # the three-letter Fuchsian multiplier of the eval-deep benchmark;
        # strata 3..5 are past N // 2 = 2
        poles = PoleSet(["0", "1", "-1"])
        M = Multiplier.fuchsian(Alphabet(["a", "b", "c"]), poles, {0: (0, 1), 1: (1, -1), 2: (2, 1)})
        self.check(M, ((0, 1), (1, -1), (-1, 1)), 0.5j, 0.5 + 0.25j, 5)

    @pytest.mark.parametrize("scale", [1, 4])
    def test_detour_across_kernel_batches(self, polylog_multiplier, monkeypatch, scale):
        # round pole 0, then 1.1 margins past pole 1: the series orders of
        # each batch of steps are planned from the values at its start, and
        # the path spans several batches of kernels, more on a budget cut
        # to a quarter
        batches = []

        def step_kernels(c, *args):
            batches.append(len(c))
            return build(c, *args)

        build = chen._step_kernels
        monkeypatch.setattr(chen, "_step_kernels", step_kernels)
        monkeypatch.setattr(chen, "_KERNEL_BYTES", chen._KERNEL_BYTES // scale)
        T = self.check(polylog_multiplier, self.POLYLOG, -1, 2 + 0.01j, 5)
        assert T.steps == sum(batches) == 25
        assert len(batches) > scale

    @staticmethod
    def check(M, letters, z0, z, N, tol=1e-12, margin=0.05):
        path = build_path(z0, z, M.pole_set.approx, margin)
        T = eval_coeffs(M, path, N, tol)
        with mp.workdps(30):
            want = mp_coefficients([(mp.mpf(p), w) for p, w in letters], path, N)
            # the oracle itself against the closed form <S|x0> = log(z/z0)
            assert abs(want[(0,)] - mp.log(mp.mpc(z) / path.z0)) < 1e-24
        for ln in range(1, N + 1):
            err = max(abs(T.values[Word(w)] - complex(v)) for w, v in want.items() if len(w) == ln)
            assert err <= T.error_estimates[ln] <= tol, ln
        return T


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


def ordered_pair_report(T):
    """Reference for grouplike_report: every ordered pair (u, v)."""
    pos = [w for w in T.words() if w]
    worst, worst_pair = 0.0, None
    for u in pos:
        for v in pos:
            if len(u) + len(v) <= T.truncation:
                defect = abs(T[u] * T[v] - sum(n * T[w] for w, n in shuffle(u, v).items()))
                if defect > worst:
                    worst, worst_pair = defect, (u, v)
    return worst, worst_pair


def chunked_reference_report(T):
    """Reference for grouplike_report: the check as it read before its
    shuffle codes were kept across calls, every block's codes built afresh
    and summed a run of u rows at a time."""
    from itertools import combinations

    from hyperlog.words import graded_starts

    N, L = T.truncation, T.letters
    if N < 2:
        return 0.0, None
    starts = graded_starts(L, N)
    val = [T.coeffs[starts[ln] : starts[ln + 1]] for ln in range(N + 1)]
    digits = [(np.arange(L**ln)[:, None] // L ** np.arange(ln - 1, -1, -1)) % L for ln in range(N)]
    worst, worst_pair = 0.0, None
    for p in range(1, N // 2 + 1):
        for q in range(p, N - p + 1):
            subsets = list(combinations(range(p + q), p))
            rest = [[j for j in range(p + q) if j not in s] for s in subsets]
            place = L ** np.arange(p + q - 1, -1, -1)
            code_u = digits[p] @ place[np.array(subsets)].T
            code_v = digits[q] @ place[np.array(rest)].T
            chunk = max(1, (1 << 18) // code_v.size)
            for lo in range(0, len(code_u), chunk):
                rhs = val[p + q][code_u[lo : lo + chunk, None, :] + code_v].sum(axis=-1)
                defect = np.abs(val[p][lo : lo + chunk, None] * val[q] - rhs)
                if p == q:
                    defect = np.triu(defect, lo)
                iu, iv = np.unravel_index(np.argmax(defect), defect.shape)
                if defect[iu, iv] > worst:
                    worst = float(defect[iu, iv])
                    worst_pair = (Word(digits[p][lo + iu]), Word(digits[q][iv]))
    return worst, worst_pair


def seeded_table(L, N, kind, seed):
    """A table over L letters up to length N: ``clean`` is the group-like
    exp(a_0 x_0 + ...), <S|w> = prod a_(w_k) / |w|!; ``corrupted`` adds
    small noise to a dozen of its words; ``random`` has random entries of
    mixed magnitudes; ``ties`` has entries in {-1, 0, 1}, so that many
    pairs share the largest defect exactly; ``zero`` is the unit alone."""
    rng = np.random.default_rng(seed)
    words = Alphabet([f"x{i}" for i in range(L)]).words_up_to(N)
    if kind in ("clean", "corrupted"):
        a = rng.standard_normal(L) + 1j * rng.standard_normal(L)
        coeffs = np.array([np.prod([a[i] for i in w]) / math.factorial(len(w)) for w in words], complex)
        if kind == "corrupted":
            hit = rng.choice(len(words), size=min(12, len(words)), replace=False)
            coeffs[hit] += (rng.standard_normal(len(hit)) + 1j * rng.standard_normal(len(hit))) * 1e-3
    elif kind == "random":
        scale = 10.0 ** rng.uniform(-3, 3, len(words))
        coeffs = (rng.standard_normal(len(words)) + 1j * rng.standard_normal(len(words))) * scale
    elif kind == "ties":
        coeffs = rng.integers(-1, 2, len(words)) + 0j
    else:
        coeffs = np.zeros(len(words), complex)
    coeffs[0] = 1.0
    return CoefficientTable(coeffs, L, 0j, 1j, N)


class TestGrouplikeMatchesChunkedReference:
    """The check with its shuffle codes kept across calls reports the same
    defect, to the bit, and the same worst pair as the chunked loop."""

    @pytest.mark.parametrize("kind", ["clean", "corrupted", "random", "ties", "zero"])
    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_seeded_tables(self, L, kind):
        for N in range(8):
            for seed in range(3):
                T = seeded_table(L, N, kind, 1000 * L + 10 * N + seed)
                for _ in range(2):  # codes built, then kept
                    defect, pair = grouplike_report(T)
                    want, want_pair = chunked_reference_report(T)
                    assert np.float64(defect).tobytes() == np.float64(want).tobytes(), (N, seed)
                    assert pair == want_pair, (N, seed)
                if kind == "zero":
                    assert (defect, pair) == (0.0, None)

    def test_runs_past_the_first_chunk(self):
        # at 3 letters and N = 8 the pairs of two length-4 words come in two
        # runs of u rows
        for kind in ("random", "ties"):
            T = seeded_table(3, 8, kind, 5)
            defect, pair = grouplike_report(T)
            want, want_pair = chunked_reference_report(T)
            assert np.float64(defect).tobytes() == np.float64(want).tobytes()
            assert pair == want_pair

    def test_first_of_tied_pairs_wins(self):
        # letters 1, longer words 0: every pair of letters has defect 1, and
        # (x0, x0) comes first in the scan
        coeffs = np.zeros(15, complex)
        coeffs[:3] = 1.0
        T = CoefficientTable(coeffs, 2, 0j, 1j, 3)
        assert grouplike_report(T) == (1.0, (X0, X0))
        # a tie across blocks: <S|x0> = 1, <S|x0.x0> = 1/2, <S|x0.x1> = 2
        # and the rest 0 give (x0, x1) and (x0, x0.x1) the defect 2, and
        # the block of two letters comes first
        coeffs = np.zeros(15, complex)
        coeffs[[0, 1, 3, 4]] = 1.0, 1.0, 0.5, 2.0
        T = CoefficientTable(coeffs, 2, 0j, 1j, 3)
        assert grouplike_report(T) == chunked_reference_report(T) == (2.0, (X0, X1))


class TestGrouplike:
    @pytest.mark.parametrize("corrupt", ["none", "first-pair", "random"])
    def test_unordered_pairs_match_ordered_loop(self, corrupt):
        poles = PoleSet(["0", "1", "-1"])
        M = Multiplier.fuchsian(Alphabet(["a", "b", "c"]), poles, {0: (0, 1), 1: (1, -1), 2: (2, 1)})
        T = eval_coeffs(M, build_path(0.5j, 0.5 + 0.25j, poles.approx, 0.05), 5, 1e-12)
        rng = random.Random(7)
        if corrupt == "first-pair":
            T.values[Word((0, 0))] += 0.1
        elif corrupt == "random":
            for w in rng.sample([w for w in T.words() if len(w) >= 2], 12):
                T.values[w] += complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 1e-3
        defect, pairw = grouplike_report(T)
        want, want_pair = ordered_pair_report(T)
        assert abs(defect - want) <= 1e-12 * want
        assert sorted(pairw) == sorted(want_pair) and pairw[0] <= pairw[1]
        if corrupt != "none":
            assert defect > 1e-4

    def test_two_letters_depth_seven_match_ordered_loop(self, polylog_multiplier):
        path = build_path(-1, 0.5 + 0.8j, [0j, 1 + 0j], 0.05)
        T = eval_coeffs(polylog_multiplier, path, 7, 1e-12)
        rng = random.Random(11)
        for w in rng.sample([w for w in T.words() if len(w) >= 2], 12):
            T.values[w] += complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 1e-3
        defect, pairw = grouplike_report(T)
        want, want_pair = ordered_pair_report(T)
        assert abs(defect - want) <= 1e-12 * want
        assert sorted(pairw) == sorted(want_pair) and pairw[0] <= pairw[1]

    def test_planted_pair_past_the_first_chunk(self):
        # exp(a0 x0 + a1 x1 + a2 x2) is group-like: <S|w> = prod a_(w_k) / |w|!.
        # At 3 letters and N = 8 the pairs of two length-4 words come in two
        # chunks of u rows; bump the last u so only (u, u) has a large defect.
        a = (0.5, -0.3j, 0.2 + 0.1j)
        words = Alphabet(["a", "b", "c"]).words_up_to(8)
        values = {w: np.prod([a[i] for i in w]) / math.factorial(len(w)) for w in words}
        u = Word((2, 2, 2, 2))
        values[u] += 100.0
        T = CoefficientTable(np.array([values[w] for w in words]), 3, 0j, 1j, 8)
        defect, pairw = grouplike_report(T)
        want = abs(values[u] ** 2 - sum(n * values[w] for w, n in shuffle(u, u).items()))
        assert pairw == (u, u)
        assert abs(defect - want) <= 1e-12 * want

    @pytest.mark.parametrize(
        "nans, bump, want_pair",
        [
            ([(0, 1)], None, (X0, X1)),  # x0 shuffle x1 holds x0x1
            ([(1, 1, 1)], (0, 0), (X1, Word((1, 1)))),  # an earlier finite defect loses
            ([(0, 1)], (1, 1, 1), (X0, X1)),  # so does a later, larger one
            ([(1, 1, 1), (0, 1)], None, (X0, X1)),  # of two NaNs, the first in the scan
        ],
    )
    def test_nan_defect_is_the_worst(self, polylog_multiplier, nans, bump, want_pair):
        # a NaN must not read as a clean table: `grouplike` exits 11 unless
        # defect < 10 tol, which is false for a NaN
        path = build_path(-1, 0.5 + 0.8j, [0j, 1 + 0j], 0.05)
        T = eval_coeffs(polylog_multiplier, path, 3, 1e-12)
        clean = grouplike_report(T)  # a clean table reads as the chunked reference does
        assert clean == chunked_reference_report(T) and clean[0] < 1e-9
        for w in nans:
            T.values[Word(w)] = complex("nan")
        if bump is not None:
            T.values[Word(bump)] += 100.0
        defect, pairw = grouplike_report(T)
        assert math.isnan(defect) and pairw == want_pair
        assert not defect < 10 * 1e-12

    def test_missing_word_raises(self, polylog_multiplier):
        # x1 and x1.x1 stay, but x1.x1.x1, in x1 shuffle x1.x1, is gone
        path = build_path(-1, 0.5 + 0.8j, [0j, 1 + 0j], 0.05)
        T = eval_coeffs(polylog_multiplier, path, 3, 1e-12)
        T.coeffs = T.coeffs[:-1]
        assert Word((1, 1)) in T and Word((1, 1, 1)) not in T
        with pytest.raises(KeyError):
            grouplike_report(T)
        with pytest.raises(KeyError):
            ordered_pair_report(T)

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
