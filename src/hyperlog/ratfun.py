"""Exact arithmetic in Q(i)(z) restricted to a fixed pole set.

Elements are kept in a closed normal form: a polynomial part in z plus
principal parts (z - a_i)^(-k) at the configured poles.  In this form
residues are direct reads and primitives are term-by-term, so the whole
"is g a derivative?" question reduces to checking simple-pole residues.

Scalars are stored as :class:`GaussianRational` with reduced Fraction
parts.  All Gaussian-rational arithmetic runs on integer triples
(x, y, d), read as (x + y*i)/d, and builds each result's Fraction parts
once, so text forms, ``==`` and hashing do not depend on the route.  A
rational function carries one triple form of its coefficients, built on
first use or set by the operation that made it; the product, the
primitive, the exact value and the shift by a constant run on it.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import FrozenInstanceError
from fractions import Fraction
from types import MappingProxyType


class PoleSetMismatchError(ValueError):
    """Arithmetic between functions declared over different pole sets."""


class PoleEvaluationError(ZeroDivisionError):
    """Evaluation at (or within rounding distance of) a pole."""


class ResidueObstruction(ArithmeticError):
    """The primitive would need logarithms: simple-pole residues survive."""

    def __init__(self, pole_indices):
        self.pole_indices = tuple(pole_indices)
        super().__init__(
            "no rational primitive: nonzero residue at pole index "
            + ", ".join(str(i) for i in self.pole_indices)
        )


# ----- arithmetic on integer triples -----------------------------------------
#
# A triple (x, y, d) is read as (x + y*i)/d with d > 0.  An operator converts
# each operand once and builds its result's reduced Fraction parts with
# _gaussian.  A pole-localized rational keeps its coefficients' triples, so
# its product, primitive and exact value read them without converting; the
# product reduces each accumulated term by gcd(x, y, d) and builds each
# output coefficient once, at the end (Knuth, TAOCP vol. 2, 4.5.1).


def _triple(g: "GaussianRational"):
    re, im = g.re, g.im
    b, e = re.denominator, im.denominator
    if b == e:
        return re.numerator, im.numerator, b
    d = math.lcm(b, e)
    return re.numerator * (d // b), im.numerator * (d // e), d


def _operand(x):
    """The triple of a GaussianRational, or of an int, bool or Fraction as a
    real scalar; None for any other type."""
    if isinstance(x, GaussianRational):
        return _triple(x)
    if isinstance(x, (int, Fraction)):
        return x.numerator, 0, x.denominator
    return None


def _gaussian(t) -> "GaussianRational":
    x, y, d = t
    return _gr(Fraction(x, d), Fraction(y, d))


def _reduced(x, y, d):
    g = math.gcd(x, y, d)
    return (x, y, d) if g == 1 else (x // g, y // g, d // g)


def _tmul(p, q):
    a, b, d = p
    c, e, f = q
    return a * c - b * e, a * e + b * c, d * f


def _tadd(p, q):
    a, b, d = p
    c, e, f = q
    if d == f:
        x, y = a + c, b + e
    else:
        x, y, d = a * f + c * d, b * f + e * d, d * f
    g = math.gcd(x, y, d)
    return (x, y, d) if g == 1 else (x // g, y // g, d // g)


def _tsub(p, q):
    c, e, f = q
    return _tadd(p, (-c, -e, f))


def _tinv(p):
    x, y, d = p
    if not (x or y):
        raise ZeroDivisionError("division by zero Gaussian rational")
    return _reduced(d * x, -d * y, x * x + y * y)


def _tdiv(p, q):
    return _tmul(p, _tinv(q))


def _operators(kernel):
    """The forward and reflected operator methods that run ``kernel`` on
    the operands' triples."""

    def forward(self, other):
        q = _operand(other)
        return NotImplemented if q is None else _gaussian(kernel(_triple(self), q))

    def reflected(self, other):
        q = _operand(other)
        return NotImplemented if q is None else _gaussian(kernel(q, _triple(self)))

    return forward, reflected


class _Frozen:
    """Immutable instances: fields are set once, with object.__setattr__."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class GaussianRational(_Frozen):
    """Exact complex number with rational real and imaginary parts.

    Immutable; ``re`` and ``im`` are reduced Fractions.  Every arithmetic
    operator runs on the operands' integer triples, with ``int``, ``bool``
    and ``Fraction`` operands as real scalars, and builds its result with
    :func:`_gaussian`.  A part given as text is read by
    :func:`parse_fraction`.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=Fraction(0), im=Fraction(0)):
        object.__setattr__(self, "re", parse_fraction(re) if isinstance(re, str) else Fraction(re))
        object.__setattr__(self, "im", parse_fraction(im) if isinstance(im, str) else Fraction(im))

    def __reduce__(self):
        return GaussianRational, (self.re, self.im)

    @staticmethod
    def of(x) -> "GaussianRational":
        """``x`` itself, a real ``int``/``Fraction``, or the value of the text
        form ``x`` (:func:`parse_gaussian`)."""
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, str):
            return parse_gaussian(x)
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        raise TypeError(f"cannot coerce {x!r} to a Gaussian rational")

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    @property
    def is_real(self) -> bool:
        return not self.im

    def conjugate(self) -> "GaussianRational":
        return _gr(self.re, -self.im)

    def __bool__(self):
        return not self.is_zero

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __neg__(self):
        return _gr(-self.re, -self.im)

    __add__, __radd__ = _operators(_tadd)
    __sub__, __rsub__ = _operators(_tsub)
    __mul__, __rmul__ = _operators(_tmul)
    __truediv__, __rtruediv__ = _operators(_tdiv)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out, base = (1, 0, 1), _triple(self)
        while n:
            if n & 1:
                out = _tmul(out, base)
            base = _tmul(base, base)
            n >>= 1
        return _gaussian(out)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.re == other and not self.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __str__(self):
        return format_gaussian(self)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _gr(re: Fraction, im: Fraction) -> GaussianRational:
    """A GaussianRational from parts that are already reduced Fractions."""
    g = object.__new__(GaussianRational)
    object.__setattr__(g, "re", re)
    object.__setattr__(g, "im", im)
    return g


GR_ZERO = GaussianRational()
GR_ONE = GaussianRational(Fraction(1))


def format_gaussian(q: GaussianRational) -> str:
    """Canonical text form: `p/q`, `r/s*i`, or `p/q+r/s*i` (also `i`, `-i`)."""
    q = GaussianRational.of(q)
    if q.is_zero:
        return "0"
    if not q.im:
        return str(q.re)
    if q.im == 1:
        imag = "i"
    elif q.im == -1:
        imag = "-i"
    else:
        imag = f"{q.im}*i"
    if not q.re:
        return imag
    sign = "+" if q.im > 0 else "-"
    mag = abs(q.im)
    tail = "i" if mag == 1 else f"{mag}*i"
    return f"{q.re}{sign}{tail}"


# a sign after an exponent's e belongs to the exponent, not to a new term
_TERM_RE = re.compile(r"[+-]?(?:[eE][+-]?|[^-+eE])+")
# Fraction expands a decimal exponent in full, so its magnitude is held to the
# limit Python puts on the digits of an int string
MAX_DECIMAL_EXPONENT = sys.int_info.default_max_str_digits
_EXPONENT_RE = re.compile(r"[eE][+-]?0*(\d+)")


def parse_fraction(text: str) -> Fraction:
    """``Fraction(text)``; ValueError for a zero denominator or a decimal
    exponent whose magnitude exceeds MAX_DECIMAL_EXPONENT."""
    m = _EXPONENT_RE.search(text)
    if m and (len(m[1]) > len(str(MAX_DECIMAL_EXPONENT)) or int(m[1]) > MAX_DECIMAL_EXPONENT):
        raise ValueError(f"decimal exponent of {text!r} exceeds {MAX_DECIMAL_EXPONENT}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def parse_gaussian(text: str) -> GaussianRational:
    """Parse the text form produced by :func:`format_gaussian`."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty Gaussian rational")
    terms = _TERM_RE.findall(s)
    if "".join(terms) != s:
        raise ValueError(f"cannot parse Gaussian rational {text!r}")
    re_part = Fraction(0)
    im_part = Fraction(0)
    for term in terms:
        if term.endswith("i"):
            body = term[:-1].rstrip("*")
            if body in ("", "+"):
                im_part += 1
            elif body == "-":
                im_part -= 1
            else:
                im_part += parse_fraction(body)
        else:
            re_part += parse_fraction(term)
    return GaussianRational(re_part, im_part)


class PoleSet(_Frozen):
    """Ordered, pairwise-distinct singularity locations a_1, ..., a_n."""

    __slots__ = ("points", "approx", "triples")

    def __init__(self, points):
        pts = tuple(GaussianRational.of(p) for p in points)
        if len(set(pts)) != len(pts):
            raise ValueError("pole locations must be pairwise distinct")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "triples", tuple(_triple(p) for p in pts))
        try:
            object.__setattr__(self, "approx", tuple(complex(p) for p in pts))
        except OverflowError:
            raise ValueError("pole locations must lie in floating-point range") from None

    def __reduce__(self):
        return PoleSet, (self.points,)

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i):
        return self.points[i]

    def __eq__(self, other):
        return isinstance(other, PoleSet) and self.points == other.points

    def __hash__(self):
        return hash(self.points)

    def __repr__(self):
        return "PoleSet([%s])" % ", ".join(format_gaussian(p) for p in self.points)


class PoleLocalizedRational(_Frozen):
    """Rational function with poles confined to a fixed :class:`PoleSet`.

    ``poly[m]`` is the z^m coefficient of the polynomial part;
    ``principal[(i, k)]`` is the coefficient of (z - a_i)^(-k), k >= 1.
    Zero coefficients are never stored, so ``==`` is structural equality.

    Immutable, with ``principal`` a read-only mapping, so the triple form
    of the coefficients (:meth:`_triples`) cannot go stale.
    """

    __slots__ = ("pole_set", "poly", "principal", "_t")

    def __init__(self, pole_set: PoleSet, poly=(), principal=None):
        coeffs = [GaussianRational.of(c) for c in poly]
        while coeffs and coeffs[-1].is_zero:
            coeffs.pop()
        pp = {}
        for (i, k), c in (principal or {}).items():
            if type(i) is not int or type(k) is not int:
                raise ValueError(f"principal key {(i, k)!r} must be a pair of ints")
            c = GaussianRational.of(c)
            if c.is_zero:
                continue
            if not (0 <= i < len(pole_set)):
                raise ValueError(f"pole index {i} outside pole set")
            if k < 1:
                raise ValueError(f"principal-part order {k} must be >= 1")
            pp[(i, k)] = c
        _fill(self, pole_set, tuple(coeffs), MappingProxyType(pp), None)

    def __reduce__(self):
        return PoleLocalizedRational, (self.pole_set, self.poly, dict(self.principal))

    def _triples(self):
        """(poly triples, ((i, k), triple) pairs in ``principal`` order), each
        triple reduced with d > 0, so it is the one _triple gives; built on
        first use."""
        t = self._t
        if t is None:
            t = (
                tuple(map(_triple, self.poly)),
                tuple((ik, _triple(c)) for ik, c in self.principal.items()),
            )
            object.__setattr__(self, "_t", t)
        return t

    # ----- constructors -------------------------------------------------

    @classmethod
    def zero(cls, pole_set):
        return cls(pole_set)

    @classmethod
    def one(cls, pole_set):
        return cls(pole_set, (GR_ONE,))

    @classmethod
    def constant(cls, pole_set, c):
        return cls(pole_set, (GaussianRational.of(c),))

    @classmethod
    def from_poly(cls, pole_set, coeffs):
        return cls(pole_set, coeffs)

    @classmethod
    def pole_term(cls, pole_set, i, k, c):
        return cls(pole_set, (), {(i, k): c})

    @classmethod
    def simple_pole(cls, pole_set, i, weight=GR_ONE):
        """The Fuchsian kernel weight/(z - a_i)."""
        return cls.pole_term(pole_set, i, 1, weight)

    # ----- structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.poly and not self.principal

    @property
    def is_constant(self) -> bool:
        return not self.principal and len(self.poly) <= 1

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        if not isinstance(other, PoleLocalizedRational):
            return NotImplemented
        return (
            self.pole_set == other.pole_set
            and self.poly == other.poly
            and self.principal == other.principal
        )

    __hash__ = None

    def _check(self, other):
        if self.pole_set != other.pole_set:
            raise PoleSetMismatchError("operands declared over different pole sets")

    # ----- field operations ----------------------------------------------

    def __neg__(self):
        poly, pp = self._triples()
        return _from_triples(
            self.pole_set,
            [(-x, -y, d) for x, y, d in poly],
            [(ik, (-x, -y, d)) for ik, (x, y, d) in pp],
        )

    def __add__(self, other):
        c = _operand(other)
        if c is not None:
            # only the constant term changes: the other coefficients keep
            # their Gaussian rationals and their triples
            poly, pp = self._triples()
            t = (_tadd(poly[0], c) if poly else c,) + poly[1:]
            if len(t) == 1 and not (t[0][0] or t[0][1]):
                t = ()
            coeffs = (_gaussian(t[0]),) + self.poly[1:] if t else ()
            return _plr(self.pole_set, coeffs, self.principal, (t, pp))
        if not isinstance(other, PoleLocalizedRational):
            return NotImplemented
        self._check(other)
        (f_poly, f_pp), (g_poly, g_pp) = self._triples(), other._triples()
        a, b = sorted((f_poly, g_poly), key=len)
        poly = [_tadd(x, y) for x, y in zip(a, b)] + list(b[len(a):])
        pp = dict(f_pp)
        for ik, t in g_pp:
            pp[ik] = _tadd(pp[ik], t) if ik in pp else t
        return _from_triples(self.pole_set, poly, pp.items())

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, GaussianRational, PoleLocalizedRational)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "PoleLocalizedRational":
        c = _triple(GaussianRational.of(c))
        poly, pp = self._triples()
        return _from_triples(
            self.pole_set,
            [_reduced(*_tmul(c, a)) for a in poly],
            [(ik, _reduced(*_tmul(c, a))) for ik, a in pp],
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        if not isinstance(other, PoleLocalizedRational):
            return NotImplemented
        self._check(other)
        return _multiply(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        return NotImplemented

    # ----- calculus -------------------------------------------------------

    def derivative(self) -> "PoleLocalizedRational":
        poly, pp = self._triples()
        return _from_triples(
            self.pole_set,
            [_reduced(m * x, m * y, d) for m, (x, y, d) in enumerate(poly) if m],
            [((i, k + 1), _reduced(-k * x, -k * y, d)) for (i, k), (x, y, d) in pp],
        )

    def residue(self, i: int) -> GaussianRational:
        """Coefficient of (z - a_i)^(-1)."""
        if not (0 <= i < len(self.pole_set)):
            raise ValueError(f"pole index {i} outside pole set")
        return self.principal.get((i, 1), GR_ZERO)

    def rational_primitive(self) -> "PoleLocalizedRational":
        """Primitive with zero constant term; raises ResidueObstruction
        when any simple-pole residue is nonzero (log obstruction)."""
        bad = sorted(i for (i, k) in self.principal if k == 1)
        if bad:
            raise ResidueObstruction(bad)
        poly, pp = self._triples()
        return _from_triples(
            self.pole_set,
            [(0, 0, 1)] + [_reduced(x, y, d * (m + 1)) for m, (x, y, d) in enumerate(poly)],
            [((i, k - 1), _reduced(-x, -y, d * (k - 1))) for (i, k), (x, y, d) in pp],
        )

    # ----- evaluation ------------------------------------------------------

    def evaluate(self, z: complex) -> complex:
        """Floating evaluation; rejects points at (or within rounding
        distance of) a pole actually carrying a principal part."""
        z = complex(z)
        eps = 8 * sys.float_info.epsilon
        val = 0j
        for c in reversed(self.poly):
            val = val * z + complex(c)
        for (i, k), c in self.principal.items():
            a = self.pole_set.approx[i]
            if abs(z - a) <= eps * max(1.0, abs(z), abs(a)):
                raise PoleEvaluationError(f"evaluation at pole {a}")
            val += complex(c) / (z - a) ** k
        return val

    def evaluate_exact(self, z) -> GaussianRational:
        """Exact value; raises PoleEvaluationError at a pole carrying a
        principal term.  Each pole's terms are one Horner sum in
        t = 1/(z - a_i)."""
        zt = _triple(GaussianRational.of(z))
        poly, pp = self._triples()
        val = (0, 0, 1)
        for c in reversed(poly):
            val = _tadd(_tmul(val, zt), c)
        by_pole = {}
        for (i, k), c in pp:
            by_pole.setdefault(i, {})[k] = c
        for i, terms in by_pole.items():
            a = self.pole_set.triples[i]
            if zt == a:
                raise PoleEvaluationError(f"evaluation at pole {self.pole_set[i]}")
            t = _tinv(_tsub(zt, a))
            acc = (0, 0, 1)
            for k in range(max(terms), 0, -1):
                if k in terms:
                    acc = _tadd(acc, terms[k])
                acc = _tmul(acc, t)
            val = _tadd(val, acc)
        return _gaussian(val)

    def __str__(self):
        return format_plr(self)

    def __repr__(self):
        return f"<PoleLocalizedRational {format_plr(self)}>"


def _fill(f, pole_set, poly, principal, triples):
    """Set the fields of ``f`` from parts already in normal form; ``triples``
    is their triple form, or None to build it on first use."""
    object.__setattr__(f, "pole_set", pole_set)
    object.__setattr__(f, "poly", poly)
    object.__setattr__(f, "principal", principal)
    object.__setattr__(f, "_t", triples)
    return f


def _plr(pole_set, poly, principal, triples) -> PoleLocalizedRational:
    return _fill(object.__new__(PoleLocalizedRational), pole_set, poly, principal, triples)


def _from_triples(pole_set, poly, pp) -> PoleLocalizedRational:
    """The function with reduced coefficient triples ``poly`` (a list) and
    ``pp`` ((i, k), triple) pairs, zero terms dropped; these become its
    triple form, and each kept coefficient's Fraction parts are built once."""
    while poly and not (poly[-1][0] or poly[-1][1]):
        poly.pop()
    pp = tuple((ik, t) for ik, t in pp if t[0] or t[1])
    return _plr(
        pole_set,
        tuple(map(_gaussian, poly)),
        MappingProxyType({ik: _gaussian(t) for ik, t in pp}),
        (tuple(poly), pp),
    )


# ----- product in normal form ------------------------------------------------


def _acc(target, key, t):
    """target[key] += t, reduced; a new key goes in at the end, so keys keep
    the order of their first term."""
    target[key] = _tadd(target[key], t) if key in target else _reduced(*t)


def _divide_linear(coeffs, a):
    """p(z) = (z - a) q(z) + r for nonempty p; returns (q coefficients, r)."""
    q = [None] * (len(coeffs) - 1)
    acc = coeffs[-1]
    for m in range(len(coeffs) - 2, -1, -1):
        q[m] = acc
        acc = _tadd(coeffs[m], _tmul(a, acc))
    return q, acc


def _multiply(f: PoleLocalizedRational, g: PoleLocalizedRational) -> PoleLocalizedRational:
    ps = f.pole_set
    poles = ps.triples
    f_poly, f_pp = f._triples()
    g_poly, g_pp = g._triples()
    poly = {}
    pp = {}

    for m, a in enumerate(f_poly):
        for n, b in enumerate(g_poly):
            _acc(poly, m + n, _tmul(a, b))

    # p(z) c/(z-a)^k: the remainders of k divisions by (z - a) are the
    # coefficients of (z-a)^(-k), ..., (z-a)^(-1); the quotient is polynomial
    for p_coeffs, other in ((f_poly, g_pp), (g_poly, f_pp)):
        for (i, k), c in other:
            q = p_coeffs
            for m in range(min(k, len(q))):  # each division shortens q by one
                q, r = _divide_linear(q, poles[i])
                if r[0] or r[1]:
                    _acc(pp, (i, k - m), _tmul(c, r))
            for m, b in enumerate(q):
                _acc(poly, m, _tmul(c, b))

    # c/(z-a)^j * d/(z-b)^k: the part at a takes the Taylor coefficients of
    # (z-b)^(-k) about a, C(k+n-1, n) (-1)^n inv^(k+n) with inv = 1/(a-b);
    # powers[(a, b)] holds inv^0, inv^1, ... for this call
    powers = {}
    for (i, j), c in f_pp:
        for (l, k), d in g_pp:
            v = _reduced(*_tmul(c, d))
            if i == l:
                _acc(pp, (i, j + k), v)
                continue
            for s, js, t, kt in ((i, j, l, k), (l, k, i, j)):
                pw = powers.get((s, t))
                if pw is None:
                    pw = powers[(s, t)] = [(1, 0, 1), _tinv(_tsub(poles[s], poles[t]))]
                while len(pw) < kt + js:
                    pw.append(_reduced(*_tmul(pw[-1], pw[1])))
                # keys go in as p = 1, ..., js: evaluate sums pp in insertion order
                for p in range(1, js + 1):
                    n = js - p
                    x, y, e = _tmul(v, pw[kt + n])
                    if n:
                        m = (-1) ** n * math.comb(kt + n - 1, n)
                        x, y = x * m, y * m
                    _acc(pp, (s, p), (x, y, e))

    # the keys of poly are always 0, ..., len(poly) - 1
    return _from_triples(ps, [poly[m] for m in range(len(poly))], pp.items())


# ----- text forms -------------------------------------------------------------


def format_plr(f: PoleLocalizedRational) -> str:
    """Normal-form text: `poly: [c0, c1, ...]; pp: {(i,k): c, ...}`."""
    parts = []
    if f.poly:
        parts.append("poly: [" + ", ".join(format_gaussian(c) for c in f.poly) + "]")
    if f.principal:
        items = ", ".join(
            f"({i},{k}): {format_gaussian(c)}"
            for (i, k), c in sorted(f.principal.items())
        )
        parts.append("pp: {" + items + "}")
    if not parts:
        return "poly: []"
    return "; ".join(parts)


# One section of the normal form (the text splits into sections at every
# `;`), and one `(i,k): c` entry of a `pp` section; parse_gaussian reads
# the coefficients.
_SECTION_RE = re.compile(
    r"\s*(?:poly\s*:\s*\[\s*(?P<poly>.*?)\s*\]|pp\s*:\s*\{\s*(?P<pp>.*?)\s*\})\s*", re.S
)
_ENTRY_RE = re.compile(r"\s*\(([^,:]*),([^,:]*)\)\s*:([^,]*)")


def parse_plr(text: str, pole_set: PoleSet) -> PoleLocalizedRational:
    """Parse the normal-form text produced by :func:`format_plr`."""
    poly = []
    pp = {}
    for section in text.split(";"):
        if not section.strip():
            continue
        m = _SECTION_RE.fullmatch(section)
        if m is None:
            raise ValueError(f"bad normal-form section {section.strip()!r}")
        if m["poly"]:
            poly = [parse_gaussian(c) for c in m["poly"].split(",")]
        # entries are split at the commas that open the next `(i,k)`
        for entry in re.split(r",(?=\s*\()", m["pp"]) if m["pp"] else ():
            e = _ENTRY_RE.fullmatch(entry)
            if e is None:
                raise ValueError(f"bad pp entry {entry.strip()!r}")
            pp[(int(e[1]), int(e[2]))] = parse_gaussian(e[3].strip())
    return PoleLocalizedRational(pole_set, poly, pp)


def format_plr_pretty(f: PoleLocalizedRational) -> str:
    """Human form, e.g. `-1/z`, `1/2*z^2 - 1/2/(z-1)^2`."""
    if f.is_zero:
        return "0"
    terms = []
    for m, c in enumerate(f.poly):
        if c.is_zero:
            continue
        if m == 0:
            terms.append(format_gaussian(c))
        else:
            zpow = "z" if m == 1 else f"z^{m}"
            if c == 1:
                terms.append(zpow)
            elif c == -1:
                terms.append(f"-{zpow}")
            else:
                terms.append(f"{_wrap(c)}*{zpow}")
    for (i, k), c in sorted(f.principal.items()):
        a = f.pole_set[i]
        if a.is_zero:
            base = "z"
        else:
            txt = format_gaussian(a)
            base = f"(z-{txt})" if not txt.startswith("-") else f"(z+{txt[1:]})"
        if k > 1:
            base = f"{base}^{k}"
        if c == 1:
            terms.append(f"1/{base}")
        elif c == -1:
            terms.append(f"-1/{base}")
        else:
            terms.append(f"{_wrap(c)}/{base}")
    out = terms[0]
    for t in terms[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


def _wrap(c: GaussianRational) -> str:
    txt = format_gaussian(c)
    return f"({txt})" if ("+" in txt[1:] or "-" in txt[1:]) else txt
