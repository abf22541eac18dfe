import copy
import math
import operator
import pickle
import random
import time
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperlog import (
    GaussianRational,
    PoleEvaluationError,
    PoleLocalizedRational,
    PoleSet,
    PoleSetMismatchError,
    ResidueObstruction,
    format_gaussian,
    format_plr,
    format_plr_pretty,
    parse_gaussian,
    parse_plr,
)
from hyperlog.ratfun import GR_ONE, GR_ZERO

from conftest import random_gaussian, random_plr, random_pole_set

PLR = PoleLocalizedRational

small_fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
gaussians = st.builds(GaussianRational, small_fractions, small_fractions)


@st.composite
def plr_triples(draw):
    """Three elements over one pole set of 1-3 points: polynomial degree
    <= 3, any of the principal terms of order <= 3 at each pole."""
    ps = PoleSet(draw(st.lists(gaussians, min_size=1, max_size=3, unique=True)))
    keys = st.tuples(st.integers(0, len(ps) - 1), st.integers(1, 3))
    element = st.builds(
        lambda poly, pp: PLR(ps, poly, pp),
        st.lists(gaussians, max_size=4),
        st.dictionaries(keys, gaussians, max_size=3 * len(ps)),
    )
    return draw(element), draw(element), draw(element)


# Non-real poles whose parts have different denominators: a power of 2 for
# the real part and 3 or 9 for the imaginary part
non_real_poles = st.builds(
    GaussianRational,
    st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 4])),
    st.builds(Fraction, st.integers(-8, 8).filter(lambda n: n % 3), st.sampled_from([3, 9])),
)


@st.composite
def kernel_operands(draw):
    """A pole set of 1-3 non-real points and three elements over it with
    polynomial degree <= 3 and principal orders <= 4."""
    ps = PoleSet(draw(st.lists(non_real_poles, min_size=1, max_size=3, unique=True)))
    keys = st.tuples(st.integers(0, len(ps) - 1), st.integers(1, 4))
    element = st.builds(
        lambda poly, pp: PLR(ps, poly, pp),
        st.lists(gaussians, max_size=4),
        st.dictionaries(keys, gaussians, max_size=4 * len(ps)),
    )
    return ps, draw(element), draw(element), draw(element)


def assert_normal_form(f):
    """Reduced Fraction parts with positive denominators, and no stored zero."""
    assert not f.poly or f.poly[-1]
    assert all(f.principal.values())
    for c in (*f.poly, *f.principal.values()):
        assert type(c) is GaussianRational
        for part in (c.re, c.im):
            assert type(part) is Fraction
            assert part.denominator > 0 and math.gcd(part.numerator, part.denominator) == 1


@pytest.fixture()
def ps():
    return PoleSet(["0", "1"])


class TestGaussianRational:
    def test_field_ops(self):
        a = GaussianRational(Fraction(1, 2), Fraction(3))
        b = GaussianRational(Fraction(-2), Fraction(1, 5))
        assert (a + b) - b == a
        assert (a * b) / b == a
        assert a * (1 / a) == 1

    def test_division_example(self):
        one = GaussianRational(1)
        i = GaussianRational(0, 1)
        assert one / i == -i

    def test_parse_format_round_trip(self):
        cases = ["0", "1", "-3/4", "i", "-i", "2/7*i", "1/2+3/4*i", "1/2-3/4*i", "-1+i"]
        for text in cases:
            q = parse_gaussian(text)
            assert format_gaussian(q) == text
            assert parse_gaussian(format_gaussian(q)) == q

    def test_parse_rejects_junk(self):
        for bad in ["", "1//2", "x", "1+2j", "1/0", "0/0", "1+2/0*i", "-3/0*i"]:
            with pytest.raises(ValueError):
                parse_gaussian(bad)

    @given(gaussians)
    def test_of_reads_the_text_form(self, q):
        assert GaussianRational.of(format_gaussian(q)) == q

    def test_of_and_parts_read_text(self):
        assert GaussianRational.of("i") == GaussianRational(0, 1)
        assert GaussianRational.of("1+i") == GaussianRational(1, 1)
        assert GaussianRational.of("-1.5e-2+2e-1*i") == GaussianRational(Fraction(-3, 200), Fraction(1, 5))
        assert GaussianRational("1/2", "3e-1") == GaussianRational(Fraction(1, 2), Fraction(3, 10))
        for bad in ("1+2j", "1e", "1/0"):
            with pytest.raises(ValueError):
                GaussianRational.of(bad)

    def test_of_rejects_a_huge_exponent_at_once(self):
        # Fraction would expand the exponent in full
        for make in (GaussianRational.of, GaussianRational, lambda t: GaussianRational(0, t)):
            start = time.perf_counter()
            with pytest.raises(ValueError, match="exceeds"):
                make("1e9999999")
            assert time.perf_counter() - start < 1.0

    def test_random_round_trip(self):
        rng = random.Random(3)
        for _ in range(200):
            q = random_gaussian(rng)
            assert parse_gaussian(format_gaussian(q)) == q


class TestGaussianContract:
    def test_immutable(self):
        g = GaussianRational(1, 2)
        for name in ("re", "im", "other"):
            with pytest.raises(AttributeError):
                setattr(g, name, Fraction(3))
        with pytest.raises(AttributeError):
            del g.re
        assert g == GaussianRational(1, 2)
        assert pickle.loads(pickle.dumps(g)) == g

    @given(gaussians, gaussians, small_fractions, st.integers(-5, 5))
    def test_results_have_reduced_fraction_parts(self, a, b, q, n):
        results = [a + b, a - b, a * b, -a, a**3, a**0, a.conjugate()]
        for s in (q, n, True):
            results += [a + s, s + a, a - s, s - a, a * s, s * a]
            if s:
                results.append(a / s)
            if a:
                results.append(s / a)
        if b:
            results.append(a / b)
        for r in results:
            assert type(r) is GaussianRational
            for part in (r.re, r.im):
                assert type(part) is Fraction
                assert part.denominator > 0 and math.gcd(part.numerator, part.denominator) == 1

    @given(gaussians)
    def test_hash_is_the_parts_hash(self, g):
        assert hash(g) == hash((g.re, g.im))
        assert hash(g * 1) == hash(g) and hash(g + GR_ZERO) == hash(g)

    def test_text_forms(self):
        g = GaussianRational(Fraction(1, 2), -3)
        assert repr(g) == "GaussianRational(Fraction(1, 2), Fraction(-3, 1))"
        assert repr(GaussianRational()) == "GaussianRational(Fraction(0, 1), Fraction(0, 1))"
        assert format_gaussian(g) == str(g) == "1/2-3*i"
        assert [format_gaussian(x) for x in (g * g, g / 2, 1 / g, g.conjugate())] == [
            "-35/4-3*i", "1/4-3/2*i", "2/37+12/37*i", "1/2+3*i"]

    def test_constants_untouched(self):
        g = GaussianRational(Fraction(2, 3), 5)
        for x in (GR_ZERO, GR_ONE):
            _ = [x + g, g + x, x - g, x * g, g * x, x * 7, x + 1, -x, x**4, x.conjugate()]
        _ = [g / GR_ONE, GR_ONE / g, GR_ZERO / g]
        assert repr(GR_ZERO) == "GaussianRational(Fraction(0, 1), Fraction(0, 1))"
        assert repr(GR_ONE) == "GaussianRational(Fraction(1, 1), Fraction(0, 1))"


def fraction_parts(x):
    """(re, im) of a GaussianRational, or of an int, bool or Fraction."""
    if isinstance(x, GaussianRational):
        return x.re, x.im
    return Fraction(x), Fraction(0)


def fraction_formula(op, x, y):
    """x op y written out on Fraction parts: the reference for the operators."""
    (a, b), (c, d) = fraction_parts(x), fraction_parts(y)
    if op is operator.add:
        return a + c, b + d
    if op is operator.sub:
        return a - c, b - d
    if op is operator.mul:
        return a * c - b * d, a * d + b * c
    n = c * c + d * d
    return (a * c + b * d) / n, (b * c - a * d) / n


class TestOneArithmetic:
    """The triple arithmetic against the Fraction formulas."""

    scalars = st.one_of(gaussians, st.integers(-30, 30), small_fractions, st.booleans())

    @given(gaussians, scalars)
    def test_operators_match_the_fraction_formulas(self, g, s):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            for x, y in ((g, s), (s, g)):
                if op is operator.truediv and fraction_parts(y) == (0, 0):
                    with pytest.raises(ZeroDivisionError):
                        op(x, y)
                    continue
                r = op(x, y)
                assert type(r) is GaussianRational
                assert (r.re, r.im) == fraction_formula(op, x, y)

    @given(gaussians, st.integers(0, 7))
    def test_power_matches_repeated_fraction_products(self, g, n):
        expected = (Fraction(1), Fraction(0))
        for _ in range(n):
            expected = fraction_formula(operator.mul, GaussianRational(*expected), g)
        r = g**n
        assert (r.re, r.im) == expected

    @given(scalars)
    def test_division_by_zero(self, s):
        for zero in (GR_ZERO, 0, Fraction(0), False):
            with pytest.raises(ZeroDivisionError):
                GaussianRational.of(s) / zero
        with pytest.raises(ZeroDivisionError):
            s / GR_ZERO

    def test_other_operand_types(self):
        g = GaussianRational(1, 2)
        for other in (0.5, 1j, "1"):
            for op in (operator.add, operator.sub, operator.mul, operator.truediv):
                with pytest.raises(TypeError):
                    op(g, other)
                with pytest.raises(TypeError):
                    op(other, g)


class TestFieldLaws:
    @given(gaussians, gaussians, gaussians)
    def test_gaussian_field_laws(self, a, b, c):
        assert a + b == b + a and a * b == b * a
        assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == 0 and (a - b) + b == a

    @given(gaussians.filter(bool))
    def test_gaussian_inverse(self, a):
        assert a * (1 / a) == 1 and a / a == 1

    @given(plr_triples())
    def test_plr_ring_laws(self, fgh):
        f, g, h = fgh
        assert f + g == g + f and f * g == g * f
        assert (f + g) + h == f + (g + h) and (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert (f + (-f)).is_zero and (f - g) + g == f


class TestPoleSet:
    def test_distinct_required(self):
        with pytest.raises(ValueError):
            PoleSet(["0", "0"])

    def test_parse_points(self):
        ps = PoleSet(["1/2", "1+i"])
        assert ps[0] == GaussianRational(Fraction(1, 2))
        assert complex(ps[1]) == 1 + 1j

    def test_immutable(self):
        # approx and triples could otherwise describe poles that are gone
        ps = PoleSet(["0", "1"])
        f = PLR.simple_pole(ps, 0)
        for name in ("points", "approx", "triples", "other"):
            with pytest.raises(FrozenInstanceError):
                setattr(ps, name, (GaussianRational(5), GaussianRational(1)))
        for name in ("points", "approx", "triples"):
            with pytest.raises(FrozenInstanceError):
                delattr(ps, name)
        assert f.evaluate(2) == 0.5 and f.evaluate_exact(2) == Fraction(1, 2)
        for q in (pickle.loads(pickle.dumps(ps)), copy.copy(ps), copy.deepcopy(ps)):
            assert q == ps and q.approx == ps.approx and q.triples == ps.triples


class TestLinearOps:
    def test_cancellation(self, ps):
        f = PLR.simple_pole(ps, 1)  # 1/(z-1)
        assert (f + f.scale(-1)).is_zero

    def test_mixed_sum(self, ps):
        f = PLR.from_poly(ps, [0, 1]) + PLR.simple_pole(ps, 0)  # z + 1/z
        assert f.poly == (GaussianRational(0), GaussianRational(1))
        assert f.principal == {(0, 1): GaussianRational(1)}

    def test_scale(self, ps):
        f = PLR.pole_term(ps, 1, 2, 3)  # 3/(z-1)^2
        assert f.scale(2) == PLR.pole_term(ps, 1, 2, 6)

    def test_pole_set_mismatch_raises(self, ps):
        other = PoleSet(["2"])
        with pytest.raises(PoleSetMismatchError):
            PLR.one(ps) + PLR.one(other)


class TestMul:
    def test_distinct_simple_poles_partial_fractions(self, ps):
        # 1/((z-a)(z-b)) = (1/(a-b))/(z-a) - (1/(a-b))/(z-b), here a=0, b=1
        got = PLR.simple_pole(ps, 0) * PLR.simple_pole(ps, 1)
        assert got == PLR(ps, (), {(0, 1): -1, (1, 1): 1})

    def test_same_pole_orders_add(self, ps):
        sp = PLR.simple_pole(ps, 0)
        assert sp * sp == PLR.pole_term(ps, 0, 2, 1)

    def test_poly_cancels_pole(self, ps):
        z = PLR.from_poly(ps, [0, 1])
        assert z * PLR.simple_pole(ps, 0) == PLR.one(ps)

    def test_exact_evaluation_oracle(self):
        # evaluate_exact(f*g) == evaluate_exact(f)*evaluate_exact(g), exactly
        rng = random.Random(5)
        for _ in range(40):
            ps = random_pole_set(rng)
            f, g = random_plr(rng, ps), random_plr(rng, ps)
            prod = f * g
            for _ in range(3):
                z = random_gaussian(rng, span=7)
                if any(z == a for a in ps):
                    continue
                assert prod.evaluate_exact(z) == f.evaluate_exact(z) * g.evaluate_exact(z)

    @given(kernel_operands(), st.lists(gaussians, min_size=1, max_size=3))
    def test_kernel_products_are_exact(self, operands, points):
        ps, f, g, h = operands
        fg = f * g
        assert_normal_form(fg)
        assert f * (g + h) == fg + f * h
        for z in points:
            if z not in ps.points:
                assert fg.evaluate_exact(z) == f.evaluate_exact(z) * g.evaluate_exact(z)

    @given(kernel_operands(), st.data())
    def test_kernel_drops_cancelled_terms(self, operands, data):
        # f/(z-a) * (z-a) == f: terms at a and in the polynomial part cancel
        ps, f, _, _ = operands
        i = data.draw(st.integers(0, len(ps) - 1))
        linear = PLR.from_poly(ps, [-ps[i], 1])
        over = f * PLR.simple_pole(ps, i)
        assert_normal_form(over)
        back = over * linear
        assert_normal_form(back)
        assert back == f

    def test_assoc_comm(self):
        rng = random.Random(7)
        for _ in range(30):
            ps = random_pole_set(rng)
            f, g, h = (random_plr(rng, ps) for _ in range(3))
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)


class TestCalculus:
    def test_derivative_simple_pole(self, ps):
        assert PLR.simple_pole(ps, 0).derivative() == PLR.pole_term(ps, 0, 2, -1)

    def test_derivative_poly(self, ps):
        assert PLR.from_poly(ps, [0, 0, 1]).derivative() == PLR.from_poly(ps, [0, 2])

    def test_half_inverse_kernel_pattern(self, ps):
        # d/dz (z^2/2) = z, i.e. 1/(2 u0) has derivative z for u0 = 1/z^2;
        # equivalently primitive(1/z^2) = -1/z, whose derivative returns 1/z^2
        half_z2 = PLR.from_poly(ps, [0, 0, Fraction(1, 2)])
        assert half_z2.derivative() == PLR.from_poly(ps, [0, 1])
        minus_inv = PLR.pole_term(ps, 0, 1, -1)
        assert minus_inv.derivative() == PLR.pole_term(ps, 0, 2, 1)

    def test_residue_reads(self, ps):
        f = PLR(ps, (), {(1, 1): 2, (1, 2): 3})
        assert f.residue(1) == 2
        assert PLR.pole_term(ps, 0, 2, 1).residue(0) == 0
        assert PLR.from_poly(ps, [0, 0, 0, 1]).residue(0) == 0
        assert PLR.from_poly(ps, [0, 0, 0, 1]).residue(1) == 0

    def test_residue_bad_index(self, ps):
        with pytest.raises(ValueError):
            PLR.one(ps).residue(5)

    def test_primitive_power_rule(self, ps):
        assert PLR.pole_term(ps, 0, 2, 1).rational_primitive() == PLR.pole_term(ps, 0, 1, -1)

    def test_primitive_obstruction(self, ps):
        with pytest.raises(ResidueObstruction) as exc:
            PLR.simple_pole(ps, 0).rational_primitive()
        assert exc.value.pole_indices == (0,)

    def test_primitive_mixed(self, ps):
        # z + 1/(z-1)^3 -> z^2/2 - (1/2)/(z-1)^2; oracle: differentiate back
        f = PLR.from_poly(ps, [0, 1]) + PLR.pole_term(ps, 1, 3, 1)
        F = f.rational_primitive()
        assert F == PLR(ps, (0, 0, Fraction(1, 2)), {(1, 2): Fraction(-1, 2)})
        assert F.derivative() == f

    def test_leibniz_rule(self):
        rng = random.Random(9)
        for _ in range(30):
            ps = random_pole_set(rng)
            f, g = random_plr(rng, ps), random_plr(rng, ps)
            assert (f * g).derivative() == f.derivative() * g + f * g.derivative()

    def test_derivative_kills_residues(self):
        rng = random.Random(11)
        for _ in range(40):
            ps = random_pole_set(rng)
            df = random_plr(rng, ps).derivative()
            assert all(df.residue(i).is_zero for i in range(len(ps)))

    def test_primitive_derivative_round_trip(self):
        rng = random.Random(13)
        for _ in range(40):
            ps = random_pole_set(rng)
            f = random_plr(rng, ps)
            F = f.derivative().rational_primitive()
            shifted = f - PLR.constant(ps, f.poly[0] if f.poly else 0)
            assert F == shifted


def fraction_value(f, z):
    """f(z) written out on Fraction parts: the polynomial part as a Horner sum
    in z, each principal term as c t^k with t = 1/(z - a_i)."""

    def mul(p, q):
        return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]

    def add(p, q):
        return p[0] + q[0], p[1] + q[1]

    zp = (z.re, z.im)
    val = (Fraction(0), Fraction(0))
    for c in reversed(f.poly):
        val = add(mul(val, zp), (c.re, c.im))
    for (i, k), c in f.principal.items():
        a = f.pole_set[i]
        dx, dy = z.re - a.re, z.im - a.im
        n = dx * dx + dy * dy
        term = (c.re, c.im)
        for _ in range(k):
            term = mul(term, (dx / n, -dy / n))
        val = add(val, term)
    return val


class TestEvaluate:
    def test_point_values(self, ps):
        assert PLR.simple_pole(ps, 0).evaluate(2) == pytest.approx(0.5)
        assert PLR.simple_pole(ps, 1).evaluate(1 + 1j) == pytest.approx(-1j)
        f = PLR.from_poly(ps, [0, 1]) + PLR.simple_pole(ps, 0)
        assert f.evaluate(1) == pytest.approx(2.0)

    def test_at_pole_raises(self, ps):
        with pytest.raises(PoleEvaluationError):
            PLR.simple_pole(ps, 0).evaluate(0)
        with pytest.raises(PoleEvaluationError):
            PLR.simple_pole(ps, 0).evaluate(1e-17)

    def test_exact_at_pole_raises(self, ps):
        with pytest.raises(PoleEvaluationError):
            PLR.simple_pole(ps, 1).evaluate_exact(GaussianRational(1))

    def test_pole_elsewhere_is_fine(self, ps):
        # z + 1/z has no principal part at pole 1, so z=1 is a regular point
        f = PLR.from_poly(ps, [0, 1]) + PLR.simple_pole(ps, 0)
        assert f.evaluate_exact(GaussianRational(1)) == 2

    @given(st.data())
    def test_exact_is_the_per_term_sum(self, data):
        """evaluate_exact runs on the triple form and sums each pole's terms
        as one Horner sum in 1/(z - a_i); it must equal the Fraction sum
        written out in :func:`fraction_value`, and reject exactly the poles
        that carry a term."""
        ps = PoleSet(data.draw(st.lists(gaussians, min_size=1, max_size=3, unique=True)))
        keys = st.tuples(st.integers(0, len(ps) - 1), st.integers(1, 3))
        poly = data.draw(st.lists(gaussians, max_size=4))
        f = PLR(ps, poly, data.draw(st.dictionaries(keys, gaussians, max_size=3 * len(ps))))

        def check(z):
            r = f.evaluate_exact(z)
            assert type(r) is GaussianRational and (r.re, r.im) == fraction_value(f, z)

        check(data.draw(gaussians.filter(lambda z: z not in ps.points)))
        carriers = {i for i, _ in f.principal}
        for i, a in enumerate(ps):
            if i in carriers:
                with pytest.raises(PoleEvaluationError):
                    f.evaluate_exact(a)
            else:
                check(a)

    def test_mul_consistency_float(self):
        rng = random.Random(15)
        checked = 0
        while checked < 60:
            ps = random_pole_set(rng)
            f, g = random_plr(rng, ps), random_plr(rng, ps)
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if any(abs(z - a) < 0.3 for a in ps.approx):
                continue
            lhs = (f * g).evaluate(z)
            rhs = f.evaluate(z) * g.evaluate(z)
            scale = max(1.0, abs(lhs), abs(rhs))
            assert abs(lhs - rhs) / scale < 1e-12
            checked += 1


class TestTripleCores:
    """Product, primitive and constant shift run on the triple form (the
    exact value is checked in TestEvaluate); the triple form each result
    carries must be the one its Fraction parts give."""

    @staticmethod
    def assert_triples_match_parts(h):
        assert_normal_form(h)
        assert h._triples() == PLR(h.pole_set, h.poly, h.principal)._triples()

    @given(kernel_operands())
    def test_primitive_differentiates_back(self, operands):
        ps, f, _, _ = operands
        f = PLR(ps, f.poly, {(i, k + 1): c for (i, k), c in f.principal.items()})
        F = f.rational_primitive()
        assert F.derivative() == f
        assert not F.poly or F.poly[0] == 0
        assert set(F.principal) == {(i, k - 1) for i, k in f.principal}
        self.assert_triples_match_parts(F)

    @given(kernel_operands(), st.one_of(gaussians, st.integers(-3, 3), small_fractions, st.booleans()))
    def test_results_carry_their_own_triples(self, operands, s):
        ps, f, g, _ = operands
        results = [f * g, g * f, f + s, s + f, f - s, s - f, PLR.constant(ps, s) - s]
        if f.poly:
            results.append(f - f.poly[0])  # the constant term cancels
        for h in results:
            self.assert_triples_match_parts(h)
        assert results[6]._triples() == ((), ())
        shifted = f + s
        assert shifted == f + PLR.constant(ps, s)
        assert list(shifted.principal) == list(f.principal)
        assert (f - s) + s == f

    @given(kernel_operands(), st.one_of(gaussians, st.integers(-3, 3), small_fractions))
    def test_linear_results_match_the_coefficients(self, operands, s):
        # sum, negation, scaling and derivative against the same operations
        # on the coefficients, built through the constructor
        ps, f, g, _ = operands
        c = GaussianRational.of(s)
        short, long = sorted((f.poly, g.poly), key=len)
        pp = dict(f.principal)
        for ik, a in g.principal.items():
            pp[ik] = pp[ik] + a if ik in pp else a
        cases = [
            (f + g, PLR(ps, [x + y for x, y in zip(short, long)] + list(long[len(short):]), pp)),
            (-f, PLR(ps, [-a for a in f.poly], {ik: -a for ik, a in f.principal.items()})),
            (f.scale(s), PLR(ps, [c * a for a in f.poly], {ik: c * a for ik, a in f.principal.items()})),
            (
                f.derivative(),
                PLR(
                    ps,
                    [m * a for m, a in enumerate(f.poly)][1:],
                    {(i, k + 1): a * -k for (i, k), a in f.principal.items()},
                ),
            ),
            (f - f, PLR(ps)),
        ]
        for got, want in cases:
            assert got == want and list(got.principal) == list(want.principal)
            self.assert_triples_match_parts(got)
        assert g + f == f + g and s * f == f.scale(s) and f - g == f + (-g)

    def test_immutable(self, ps):
        f = PLR(ps, (1, 2), {(0, 2): 3})
        for name in ("pole_set", "poly", "principal", "_t", "other"):
            with pytest.raises(FrozenInstanceError):
                setattr(f, name, "junk")
        for name in ("pole_set", "poly", "principal", "_t"):
            with pytest.raises(FrozenInstanceError):
                delattr(f, name)
        with pytest.raises(TypeError):
            f.principal[(1, 1)] = GR_ONE
        assert f == PLR(ps, (1, 2), {(0, 2): 3})
        for g in (pickle.loads(pickle.dumps(f)), copy.copy(f), copy.deepcopy(f)):
            assert g == f and g * f == f * f

    def test_principal_key_must_be_ints(self, ps):
        for key in ((0, 1.5), (0.0, 1), (True, 2), (0, False), ("0", 1), (0, None)):
            with pytest.raises(ValueError, match="pair of ints"):
                PLR(ps, (), {key: 1})
        assert PLR(ps, (), {(1, 2): 1}).principal == {(1, 2): GR_ONE}


class TestTextForms:
    def test_normal_form_round_trip(self, ps):
        f = PLR(ps, (Fraction(1, 2), 0, 3), {(0, 1): -1, (1, 2): GaussianRational(0, Fraction(2, 7))})
        text = format_plr(f)
        assert parse_plr(text, ps) == f

    def test_random_round_trip(self):
        rng = random.Random(17)
        for _ in range(50):
            ps = random_pole_set(rng)
            f = random_plr(rng, ps)
            assert parse_plr(format_plr(f), ps) == f

    def test_zero_forms(self, ps):
        assert format_plr(PLR.zero(ps)) == "poly: []"
        assert parse_plr("poly: []", ps).is_zero
        assert parse_plr("pp: {}", ps).is_zero

    def test_pretty(self, ps):
        assert format_plr_pretty(PLR.pole_term(ps, 0, 1, -1)) == "-1/z"
        assert format_plr_pretty(PLR.zero(ps)) == "0"
        f = PLR(ps, (0, 0, Fraction(1, 2)), {(1, 2): Fraction(-1, 2)})
        assert format_plr_pretty(f) == "1/2*z^2 - 1/2/(z-1)^2"

    def test_parse_rejects_bad_sections(self, ps):
        with pytest.raises(ValueError):
            parse_plr("nope: [1]", ps)
        with pytest.raises(ValueError):
            parse_plr("poly: {1}", ps)
        for bad in [
            "poly: [1/0]",
            "pp: {(0,1): 1/0}",
            "pp: {(0,1) 1}",
            "pp: {(0,1): 1,}",
            "pp: {(0,1): 1, , (1,1): 2}",
            "pp: {(0): 1}",
            "pp: {(0,1,2): 1}",
            "pp: {(x,1): 1}",
            "pp: {0,1: 1}",
            "pp: {(0,1): (1,2)}",
            "pp: {(0,1): 1",
            "pp: {(0,1): 1}}",
            "pp: {(5,1): 1}",
            "pp: {(0,0): 1}",
        ]:
            with pytest.raises(ValueError):
                parse_plr(bad, ps)
