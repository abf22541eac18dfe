"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines live.
"""

import cmath
import itertools
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from hyperlog import (
    Alphabet,
    GaussianRational,
    Multiplier,
    NCPolynomial,
    PathSpec,
    PoleLocalizedRational,
    PoleSet,
    RelationStatus,
    Word,
    build_path,
    certify,
    coshuffle,
    discover_relations,
    eval_coeffs,
    grouplike_defect,
    numeric_relation_defect,
    sample_matrix,
    shuffle,
)

PLR = PoleLocalizedRational
E = Word()
X0 = Word((0,))
X1 = Word((1,))


@contextmanager
def criterion(n, name):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n} {name}: FAIL")
        raise
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {n} {name}: PASS ({elapsed:.2f}s)")


def count_unshuffles(w, u, v):
    """Independent oracle for the coshuffle coefficient of (u, v) in w:
    lattice-path count of position splits of w into u and v."""
    if len(u) + len(v) != len(w):
        return 0
    dp = [[0] * (len(v) + 1) for _ in range(len(u) + 1)]
    dp[0][0] = 1
    for i in range(len(u) + 1):
        for j in range(len(v) + 1):
            if i == j == 0:
                continue
            total = 0
            if i > 0 and w[i + j - 1] == u[i - 1]:
                total += dp[i - 1][j]
            if j > 0 and w[i + j - 1] == v[j - 1]:
                total += dp[i][j - 1]
            dp[i][j] = total
    return dp[len(u)][len(v)]


def test_criterion_1_shuffle_hopf_suite():
    with criterion(1, "shuffle Hopf suite"):
        start = time.monotonic()
        alphabet = Alphabet(["a", "b", "c"])
        words = alphabet.words_up_to(4)
        cos_cache = {}

        def cached_coshuffle(w):
            if w not in cos_cache:
                cos_cache[w] = coshuffle(w)
            return cos_cache[w]

        def check_pair(u, v):
            sh = shuffle(u, v)
            if v != u:
                assert sh == shuffle(v, u)
            assert sum(sh.values()) == math.comb(len(u) + len(v), len(u))
            if len(u) + len(v) <= 6:
                for w, coeff in sh.items():
                    cosh = cached_coshuffle(w)
                    assert cosh.get((u, v), 0) == coeff
                    assert cosh.get((v, u), 0) == coeff
            else:
                # longer products: lattice-path oracle on sampled words
                for w in list(sh)[:3]:
                    assert count_unshuffles(w, u, v) == sh[w]

        # unordered pairs cover every ordered pair through commutativity
        for i, u in enumerate(words):
            for v in words[i:]:
                check_pair(u, v)

        rng = random.Random(0)
        for _ in range(200):
            u = Word(rng.randrange(3) for _ in range(rng.randint(0, 5)))
            v = Word(rng.randrange(3) for _ in range(rng.randint(0, 5)))
            check_pair(u, v)

        def shuffle_into(terms, w):
            out = {}
            for word, c in terms.items():
                for ww, n in shuffle(word, w).items():
                    out[ww] = out.get(ww, 0) + c * n
            return out

        short = alphabet.words_up_to(2)
        triples = list(itertools.product(short, short, short))
        rng = random.Random(1)
        for _ in range(200):
            triples.append(
                tuple(
                    Word(rng.randrange(3) for _ in range(rng.randint(0, 3)))
                    for _ in range(3)
                )
            )
        for u, v, w in triples:
            assert shuffle_into(shuffle(u, v), w) == shuffle_into(shuffle(v, w), u)

        assert time.monotonic() - start < 5.0


def test_criterion_2_grouplike(polylog_multiplier):
    with criterion(2, "group-like defect"):
        start = time.monotonic()
        for z in (0.25, 0.5 + 0.5j):
            path = build_path(0.5, z, [0j, 1 + 0j], 0.1)
            T = eval_coeffs(polylog_multiplier, path, 4, 1e-12)
            assert grouplike_defect(T) < 1e-9
        assert time.monotonic() - start < 10.0


def test_criterion_3_closed_form_logs(polylog_multiplier):
    with criterion(3, "closed-form logs and depth-2 quadrature"):
        # ten endpoints on a pole-free disk around z0 = -1
        z0 = -1.0
        endpoints = [z0 + 0.45 * cmath.exp(2j * math.pi * k / 10) for k in range(10)]
        for z in endpoints:
            path = build_path(z0, z, [0j, 1 + 0j], 0.05)
            T = eval_coeffs(polylog_multiplier, path, 2, 1e-12)
            lg = cmath.log(z / z0)
            assert abs(T[X0] - lg) < 1e-10
            assert abs(T[Word((0, 0))] - lg**2 / 2) < 1e-10

        # depth-2 against an independent nested Gauss-Legendre quadrature
        nodes, weights = np.polynomial.legendre.leggauss(120)
        nodes = 0.5 * (nodes + 1.0)
        weights = 0.5 * weights
        zq = 0.5

        def inner(s):
            pts = zq + nodes * (s - zq)
            return np.sum(weights * (-1.0 / (pts - 1.0))) * (s - zq)

        def oracle(z):
            pts = zq + nodes * (z - zq)
            vals = np.array([inner(s) / s for s in pts])
            return np.sum(weights * vals) * (z - zq)

        for z in (0.25, 0.5 + 0.5j, 0.25 + 0.25j):
            path = build_path(zq, z, [0j, 1 + 0j], 0.1)
            T = eval_coeffs(polylog_multiplier, path, 2, 1e-12)
            assert abs(T[Word((0, 1))] - oracle(z)) < 1e-7


def test_criterion_4_certification(polylog_multiplier, counterexample_multiplier):
    with criterion(4, "independence certification"):
        start = time.monotonic()
        assert certify(polylog_multiplier).is_independent

        rng = random.Random(2024)
        for _ in range(50):
            n = rng.randint(1, 5)
            pts = []
            while len(pts) < n:
                q = GaussianRational(
                    Fraction(rng.randint(-8, 8), rng.randint(1, 5)),
                    Fraction(rng.randint(-8, 8), rng.randint(1, 5)),
                )
                if q not in pts:
                    pts.append(q)
            ps = PoleSet(pts)
            a = Alphabet([f"x{i}" for i in range(n)])
            weights = {}
            for i in range(n):
                w = GaussianRational(0)
                while w.is_zero:
                    w = GaussianRational(
                        Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                        Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                    )
                weights[i] = (i, w)
            assert certify(Multiplier.fuchsian(a, ps, weights)).is_independent

        v = certify(counterexample_multiplier)
        assert not v.is_independent
        # exactly checked witness: d(f) = u0
        assert v.alpha == (GaussianRational(1), GaussianRational(0))
        assert v.witness_f.derivative() == counterexample_multiplier.terms[0]
        assert time.monotonic() - start < 5.0


def test_criterion_5_depth2_relation_and_limit(counterexample_multiplier, poles01):
    with criterion(5, "depth-2 relation at z0=-1 and its z0->inf limit"):
        M = counterexample_multiplier

        def formula_coeffs(z0: Fraction):
            return 1 - Fraction(1) / z0, z0 / (1 - z0)  # (x1 coeff, x0 coeff)

        rels = discover_relations(M, -1, 2)
        assert len(rels) == 1
        c1, c0 = formula_coeffs(Fraction(-1))
        assert (c1, c0) == (2, Fraction(-1, 2))
        expected = NCPolynomial(
            {
                Word((1, 0)): PLR.one(poles01),
                Word((0, 1)): PLR.one(poles01),
                X1: PLR.constant(poles01, c1),
                X0: PLR.constant(poles01, c0),
            }
        )
        assert rels[0].poly == expected
        assert rels[0].status is RelationStatus.EXACT

        # numeric defect at 8 fresh sample points
        defect = numeric_relation_defect(rels[0].poly, M, -1, seed=77)
        assert defect < 1e-9

        # the same formulas reproduce the discovered relation at another basepoint
        rels3 = discover_relations(M, -3, 2)
        c1, c0 = formula_coeffs(Fraction(-3))
        assert rels3[0].poly.coeff(X1) == PLR.constant(poles01, c1)
        assert rels3[0].poly.coeff(X0) == PLR.constant(poles01, c0)

        # z0 -> inf: coefficients approach (+1, -1), the basepoint-free form
        errs = []
        for k in (1, 2, 4, 6):
            c1, c0 = formula_coeffs(Fraction(-(10**k)))
            errs.append(max(abs(c1 - 1), abs(c0 + 1)))
        assert all(e1 > e2 for e1, e2 in zip(errs, errs[1:]))
        assert errs[-1] < 1e-5


def test_criterion_6_numeric_independence(polylog_multiplier, counterexample_multiplier):
    with criterion(6, "singular-value separation"):
        A, _ = sample_matrix(polylog_multiplier, -1, 3, 20)
        s = np.linalg.svd(A, compute_uv=False)
        assert s[-1] > 1e-6

        B, _ = sample_matrix(counterexample_multiplier, -1, 3, 20)
        sb = np.linalg.svd(B, compute_uv=False)
        assert sb[-1] < 1e-10


def test_criterion_7_path_robustness(polylog_multiplier):
    with criterion(7, "path robustness"):
        tol = 1e-11
        tables = []
        for margin in (0.05, 0.2):
            path = build_path(-1, 2.5, [0j, 1 + 0j], margin)
            tables.append(eval_coeffs(polylog_multiplier, path, 3, tol))
        a, b = tables
        for w in a.words():
            assert abs(a[w] - b[w]) <= 10 * tol

        fwd = build_path(-1, 2.5, [0j, 1 + 0j], 0.1)
        loop = PathSpec(fwd.waypoints + fwd.waypoints[-2::-1], 0.1)
        T = eval_coeffs(polylog_multiplier, loop, 3, tol)
        assert T[E] == 1.0
        for w in T.words():
            if w:
                assert abs(T[w]) <= 10 * tol


def test_criterion_8_exact_ratfun_suite():
    with criterion(8, "exact rational-function suite"):
        from conftest import random_gaussian, random_plr, random_pole_set

        start = time.monotonic()
        rng = random.Random(8)
        for trial in range(500):
            ps = random_pole_set(rng)
            f = random_plr(rng, ps)
            g = random_plr(rng, ps)

            # residues of a derivative vanish; primitive inverts derivative
            df = f.derivative()
            assert all(df.residue(i).is_zero for i in range(len(ps)))
            F = df.rational_primitive()
            const = f.poly[0] if f.poly else GaussianRational(0)
            assert F == f - PLR.constant(ps, const)

            # Leibniz rule, exactly
            assert (f * g).derivative() == f.derivative() * g + f * g.derivative()

            # partial-fraction product identity for distinct simple poles:
            # 1/((z-a)(z-b)) = (1/(a-b))/(z-a) - (1/(a-b))/(z-b)
            if len(ps) >= 2:
                i, j = rng.sample(range(len(ps)), 2)
                a, b = ps[i], ps[j]
                inv = GaussianRational(1) / (a - b)
                lhs = PLR.simple_pole(ps, i) * PLR.simple_pole(ps, j)
                rhs = PLR.simple_pole(ps, i, inv) + PLR.simple_pole(ps, j, -inv)
                assert lhs == rhs
                # independent cross-check: exact evaluation at a generic point
                zc = random_gaussian(rng, span=9)
                if all(zc != p for p in ps):
                    assert lhs.evaluate_exact(zc) == (
                        PLR.simple_pole(ps, i).evaluate_exact(zc)
                        * PLR.simple_pole(ps, j).evaluate_exact(zc)
                    )
        assert time.monotonic() - start < 5.0
