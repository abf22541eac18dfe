import copy
import pickle
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

from hyperlog import (
    Alphabet,
    GaussianRational,
    Multiplier,
    NCPolynomial,
    PoleLocalizedRational,
    PoleSet,
    PoleSetMismatchError,
    UnresolvedWordError,
    Word,
    ZeroPolynomialError,
    build_path,
    eval_coeffs,
    format_ncpoly,
    leading_monomial,
    left_residual,
    monic_normalize,
    pair,
    reconstruction_check,
    reduce,
    right_residual,
    shuffle_product,
)

PLR = PoleLocalizedRational
E = Word()
X0 = Word((0,))
X1 = Word((1,))


def rand_poly(rng, n_letters=2, max_len=3, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        w = Word(rng.randrange(n_letters) for _ in range(rng.randint(0, max_len)))
        terms[w] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return NCPolynomial(terms)


class TestNCPolynomial:
    def test_drops_zero_coefficients(self):
        P = NCPolynomial({X0: 0, X1: 2})
        assert P.terms == {X1: 2}

    def test_arithmetic(self):
        P = NCPolynomial({X0: 1, E: 2})
        Q = NCPolynomial({X0: -1, X1: 3})
        assert (P + Q).terms == {E: 2, X1: 3}
        assert (P - P).is_zero
        assert (P * 2).terms == {X0: 2, E: 4}

    def test_product_with_polynomial_rejected(self):
        P = NCPolynomial({X0: 1})
        with pytest.raises(TypeError):
            P * P


class TestPair:
    def test_unit_normalization(self):
        S = {E: 1.0}
        assert pair(S, NCPolynomial({E: 1})) == 1.0

    def test_zero_polynomial(self):
        assert pair({}, NCPolynomial()) == 0

    def test_linearity(self):
        S = {X0: 2, X1: 3}
        P = NCPolynomial({X0: 1, X1: -1})
        assert pair(S, P) == -1

    def test_callable_oracle(self):
        assert pair(lambda w: len(w), NCPolynomial({X0: 1, E: 1})) == 1

    def test_unresolved_word(self):
        with pytest.raises(UnresolvedWordError):
            pair({}, NCPolynomial({X0: 1}))


class TestLeadingMonomial:
    def test_graded_lex(self):
        P = NCPolynomial({Word((0, 1)): 1, Word((1, 0)): 1})
        assert leading_monomial(P) == Word((1, 0))

    def test_length_dominates(self):
        P = NCPolynomial({X0: 5, E: 1})
        assert leading_monomial(P) == X0

    def test_function_coefficients(self):
        ps = PoleSet(["0"])
        P = NCPolynomial({Word((1, 1)): PLR.simple_pole(ps, 0), X0: PLR.one(ps)})
        assert leading_monomial(P) == Word((1, 1))

    def test_zero_raises(self):
        with pytest.raises(ZeroPolynomialError):
            leading_monomial(NCPolynomial())

    def test_scalar_invariance(self):
        rng = random.Random(3)
        for _ in range(30):
            P = rand_poly(rng)
            assert leading_monomial(P * Fraction(3, 7)) == leading_monomial(P)

    def test_monic_normalize(self):
        P = NCPolynomial({Word((1, 0)): Fraction(2), X0: Fraction(3)})
        M = monic_normalize(P)
        assert M.coeff(Word((1, 0))) == 1
        assert M.coeff(X0) == Fraction(3, 2)


class TestResiduals:
    def test_left_strip(self):
        P = NCPolynomial({Word((0, 1)): 1})
        assert left_residual(P, 0).terms == {X1: 1}
        assert left_residual(P, 1).is_zero

    def test_left_multi(self):
        P = NCPolynomial({X0: 1, Word((0, 0, 1)): 1})
        assert left_residual(P, 0).terms == {E: 1, Word((0, 1)): 1}

    def test_right_strip(self):
        P = NCPolynomial({Word((0, 1)): 1})
        assert right_residual(P, 1).terms == {X0: 1}
        assert right_residual(NCPolynomial({X1: 1}), 1).terms == {E: 1}
        assert right_residual(NCPolynomial({X0: 1}), 1).is_zero


class TestReconstruction:
    def test_examples(self):
        a = Alphabet(["x0", "x1"])
        P = NCPolynomial({E: 1, X0: 1, Word((0, 1)): 1})
        assert reconstruction_check(P, a)
        assert reconstruction_check(NCPolynomial(), a)

    def test_random(self):
        a = Alphabet(["x0", "x1"])
        rng = random.Random(5)
        for _ in range(20):
            assert reconstruction_check(rand_poly(rng), a)


class TestReduce:
    def test_constant_maps_to_zero(self, counterexample_multiplier, poles01):
        Q = NCPolynomial({E: PLR.one(poles01)})
        assert reduce(Q, counterexample_multiplier).is_zero

    def test_letter_fuchsian(self, polylog_multiplier, poles01):
        # d<S|x_i> = u_i <S|1>, from d(S) = (sum u_i x_i) S
        for i in (0, 1):
            Q = NCPolynomial({Word((i,)): PLR.one(poles01)})
            D = reduce(Q, polylog_multiplier)
            assert D.terms == {E: polylog_multiplier.terms[i]}

    def test_degree_two_termwise(self, counterexample_multiplier, poles01):
        # apply the definition termwise to x1x0 + x0x1 + c1 x1 + c0 x0
        M = counterexample_multiplier
        c1 = PLR.constant(poles01, 2)
        c0 = PLR.constant(poles01, Fraction(-1, 2))
        Q = NCPolynomial(
            {
                Word((1, 0)): PLR.one(poles01),
                Word((0, 1)): PLR.one(poles01),
                X1: c1,
                X0: c0,
            }
        )
        D = reduce(Q, M)
        u0, u1 = M.terms[0], M.terms[1]
        assert D.coeff(X0) == u1
        assert D.coeff(X1) == u0
        assert D.coeff(E) == c1 * u1 + c0 * u0
        assert set(D.terms) == {X0, X1, E}

    def test_pole_set_mismatch(self, counterexample_multiplier):
        other = PoleSet(["5"])
        Q = NCPolynomial({X0: PLR.one(other)})
        with pytest.raises(PoleSetMismatchError):
            reduce(Q, counterexample_multiplier)

    def test_adjoint_identity_numeric(self, polylog_multiplier, poles01):
        # finite difference of pair(S, Q) along z matches pair(S, reduce(Q, M))
        M = polylog_multiplier
        rng = random.Random(7)
        z0 = -1.0
        zc = -1.0 + 0.7j
        h = 1e-4

        def numeric_pair(Q, z):
            path = build_path(z0, z, poles01.approx, 0.05)
            T = eval_coeffs(M, path, 2, 1e-12)
            return sum(c.evaluate(z) * T[w] for w, c in Q.terms.items())

        for _ in range(5):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                w = Word(rng.randrange(2) for _ in range(rng.randint(0, 2)))
                terms[w] = PLR.constant(poles01, rng.randint(-3, 3))
            Q = NCPolynomial(terms)
            if Q.is_zero:
                continue
            D = reduce(Q, M)
            dval = (numeric_pair(Q, zc + h) - numeric_pair(Q, zc - h)) / (2 * h)
            want = numeric_pair(D, zc)
            assert abs(dval - want) <= 1e-6 * max(1.0, abs(want))


class TestShuffleProduct:
    def test_bilinear(self):
        P = NCPolynomial({X0: 2})
        Q = NCPolynomial({X1: 3, E: 1})
        got = shuffle_product(P, Q)
        assert got.terms == {Word((0, 1)): 6, Word((1, 0)): 6, X0: 2}


class TestFormat:
    def test_relation_style(self, poles01):
        a = Alphabet(["x0", "x1"])
        Q = NCPolynomial(
            {
                Word((1, 0)): PLR.one(poles01),
                Word((0, 1)): PLR.one(poles01),
                X1: PLR.constant(poles01, 2),
                X0: PLR.constant(poles01, Fraction(-1, 2)),
            }
        )
        assert format_ncpoly(Q, a) == "x1.x0 + x0.x1 + 2*x1 - 1/2*x0"

    def test_zero(self):
        a = Alphabet(["x0"])
        assert format_ncpoly(NCPolynomial(), a) == "0"

    def test_integer_coefficients(self):
        a = Alphabet(["x0", "x1"])
        P = NCPolynomial({Word((0, 1)): 1, Word((1, 0)): 1})
        assert format_ncpoly(P, a, descending=False) == "x0.x1 + x1.x0"


class TestMultiplier:
    def test_fuchsian_detection(self, polylog_multiplier, counterexample_multiplier):
        assert polylog_multiplier.is_fuchsian
        assert polylog_multiplier.fuchsian_form[1] == (1, GaussianRational(-1))
        assert not counterexample_multiplier.is_fuchsian

    def test_immutable(self, polylog_multiplier, poles01):
        # a config's multiplier is shared by every load of the same text
        M = polylog_multiplier
        for name in ("alphabet", "pole_set", "terms", "fuchsian_form", "other"):
            with pytest.raises(FrozenInstanceError):
                setattr(M, name, {})
        with pytest.raises(FrozenInstanceError):
            delattr(M, "terms")
        for mapping in (M.terms, M.fuchsian_form):
            with pytest.raises(TypeError):
                mapping[0] = PLR.zero(poles01)
        assert M.term(0) == PLR.simple_pole(poles01, 0)
        for N in (pickle.loads(pickle.dumps(M)), copy.copy(M), copy.deepcopy(M)):
            assert (N.alphabet, N.pole_set, N.terms, N.fuchsian_form) == (
                M.alphabet, M.pole_set, M.terms, M.fuchsian_form
            )

    def test_missing_letters_get_zero(self, poles01):
        a = Alphabet(["x0", "x1"])
        M = Multiplier(a, poles01, {0: PLR.simple_pole(poles01, 0)})
        assert M.terms[1].is_zero
