"""Noncommutative polynomials over a generic coefficient ring, the
coefficient pairing <S|P>, the letter residuals, and the reduction
operator D(Q) = d(Q) + M†Q driving the independence proofs."""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType

from .ratfun import (
    GaussianRational,
    PoleLocalizedRational,
    PoleSet,
    PoleSetMismatchError,
    _Frozen,
    _wrap,
    format_plr_pretty,
)
from .words import Alphabet, Letter, Word, graded_lex_key, shuffle


class ZeroPolynomialError(ValueError):
    """Operation undefined for the zero polynomial."""


class UnresolvedWordError(KeyError):
    """The coefficient oracle has no value for a required word."""


def _is_zero(c) -> bool:
    z = getattr(c, "is_zero", None)
    if z is not None:
        return z
    return c == 0


class NCPolynomial:
    """Finitely supported Word -> coefficient map.

    The coefficient ring is whatever the values support: exact scalars,
    pole-localized rationals, or floats all work with the same class.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for w, c in (terms or {}).items():
            if not _is_zero(c):
                clean[Word(w)] = c
        self.terms = clean

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def monomial(cls, w, c=1):
        return cls({Word(w): c})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, w, default=0):
        return self.terms.get(Word(w), default)

    def support(self) -> list[Word]:
        return sorted(self.terms)

    def degree(self) -> int:
        if not self.terms:
            raise ZeroPolynomialError("degree of the zero polynomial")
        return max(len(w) for w in self.terms)

    def map_coefficients(self, fn) -> "NCPolynomial":
        return NCPolynomial({w: fn(c) for w, c in self.terms.items()})

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        return isinstance(other, NCPolynomial) and self.terms == other.terms

    def __neg__(self):
        return NCPolynomial({w: -c for w, c in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        out = dict(self.terms)
        for w, c in other.terms.items():
            if w in out:
                out[w] = out[w] + c
            else:
                out[w] = c
        return NCPolynomial(out)

    def __sub__(self, other):
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar):
        if isinstance(scalar, NCPolynomial):
            raise TypeError("use shuffle_product for the commutative product")
        return NCPolynomial({w: c * scalar for w, c in self.terms.items()})

    def __rmul__(self, scalar):
        if isinstance(scalar, NCPolynomial):
            raise TypeError("use shuffle_product for the commutative product")
        return NCPolynomial({w: scalar * c for w, c in self.terms.items()})

    def __repr__(self):
        if self.is_zero:
            return "NCPolynomial(0)"
        body = ", ".join(f"{tuple(w)}: {c!r}" for w, c in sorted(self.terms.items()))
        return f"NCPolynomial({{{body}}})"


def pair(S, P: NCPolynomial):
    """<S|P> = sum_w S(w) <P|w> for a coefficient oracle S (mapping or
    callable Word -> coefficient)."""
    total = None
    get = S if callable(S) else None
    for w, c in P.terms.items():
        try:
            s = get(w) if get is not None else S[w]
        except KeyError:
            raise UnresolvedWordError(w) from None
        term = s * c
        total = term if total is None else total + term
    return 0 if total is None else total


def leading_monomial(P: NCPolynomial) -> Word:
    """Greatest word of the support in graded lex order."""
    if P.is_zero:
        raise ZeroPolynomialError("leading monomial of the zero polynomial")
    return max(P.terms, key=graded_lex_key)


def monic_normalize(P: NCPolynomial) -> NCPolynomial:
    """Divide by the leading coefficient (coefficients must form a field)."""
    lead = leading_monomial(P)
    inv = 1 / P.terms[lead]
    return P * inv


def _letter_index(x) -> int:
    return x.index if isinstance(x, Letter) else int(x)


def left_residual(P: NCPolynomial, x) -> NCPolynomial:
    """x†P: maps terms x·w to w, drops the rest."""
    i = _letter_index(x)
    return NCPolynomial(
        {Word(w[1:]): c for w, c in P.terms.items() if w and w[0] == i}
    )


def right_residual(P: NCPolynomial, x) -> NCPolynomial:
    """P·x†: maps terms w·x to w, drops the rest."""
    i = _letter_index(x)
    return NCPolynomial(
        {Word(w[:-1]): c for w, c in P.terms.items() if w and w[-1] == i}
    )


def reconstruction_check(P: NCPolynomial, alphabet: Alphabet) -> bool:
    """Exact identity P = <P|1>·1 + sum_x (P·x†)·x."""
    rebuilt = {}
    unit = P.coeff(Word())
    if not _is_zero(unit):
        rebuilt[Word()] = unit
    total = NCPolynomial(rebuilt)
    for letter in alphabet:
        part = right_residual(P, letter)
        total = total + NCPolynomial(
            {w + Word((letter.index,)): c for w, c in part.terms.items()}
        )
    return total == P


def shuffle_product(P: NCPolynomial, Q: NCPolynomial) -> NCPolynomial:
    """Bilinear extension of the word shuffle to polynomials."""
    out: dict[Word, object] = {}
    for u, cu in P.terms.items():
        for v, cv in Q.terms.items():
            cuv = cu * cv
            for w, n in shuffle(u, v).items():
                add = cuv if n == 1 else cuv * n
                cur = out.get(w)
                out[w] = add if cur is None else cur + add
    # shuffle's keys are Words already: skip the constructor's re-wrapping
    product = NCPolynomial()
    product.terms = {w: c for w, c in out.items() if not _is_zero(c)}
    return product


class Multiplier(_Frozen):
    """Degree-1 series M = sum_x u_x x with pole-localized coefficients.

    ``fuchsian_form`` maps letter index -> (pole index, weight) and is
    present exactly when every u_x is weight/(z - a_x).  Immutable, with
    ``terms`` and ``fuchsian_form`` read-only mappings.
    """

    __slots__ = ("alphabet", "pole_set", "terms", "fuchsian_form")

    def __init__(self, alphabet: Alphabet, pole_set: PoleSet, terms):
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "pole_set", pole_set)
        full = {}
        for key, u in terms.items():
            i = _letter_index(key)
            if not (0 <= i < len(alphabet)):
                raise ValueError(f"letter index {i} outside alphabet")
            if not isinstance(u, PoleLocalizedRational):
                raise TypeError("multiplier terms must be pole-localized rationals")
            if u.pole_set != pole_set:
                raise PoleSetMismatchError("multiplier term over a different pole set")
            full[i] = u
        for letter in alphabet:
            full.setdefault(letter.index, PoleLocalizedRational.zero(pole_set))
        object.__setattr__(self, "terms", MappingProxyType(full))
        object.__setattr__(self, "fuchsian_form", self._detect_fuchsian())

    def __reduce__(self):
        return Multiplier, (self.alphabet, self.pole_set, dict(self.terms))

    def _detect_fuchsian(self):
        form = {}
        for i, u in self.terms.items():
            if u.poly or len(u.principal) != 1:
                return None
            ((pole, order),) = u.principal.keys()
            if order != 1:
                return None
            form[i] = (pole, u.principal[(pole, 1)])
        return MappingProxyType(form)

    @classmethod
    def fuchsian(cls, alphabet: Alphabet, pole_set: PoleSet, assignments):
        """assignments: letter index -> (pole index, weight)."""
        terms = {
            i: PoleLocalizedRational.simple_pole(pole_set, p, GaussianRational.of(w))
            for i, (p, w) in assignments.items()
        }
        return cls(alphabet, pole_set, terms)

    def term(self, x) -> PoleLocalizedRational:
        return self.terms[_letter_index(x)]

    @property
    def is_fuchsian(self) -> bool:
        return self.fuchsian_form is not None

    def __repr__(self):
        body = ", ".join(
            f"{self.alphabet[i].name}: {u}" for i, u in sorted(self.terms.items())
        )
        return f"Multiplier({body})"


def reduce(Q: NCPolynomial, M: Multiplier) -> NCPolynomial:
    """D(Q) = d(Q) + M†Q with d acting coefficient-wise and
    M†Q = sum_x u_x (x†Q).

    For any solution S of d(S) = M S, d(<S|Q>) = <S|D(Q)>.
    """
    for c in Q.terms.values():
        if not isinstance(c, PoleLocalizedRational):
            raise TypeError("reduce needs pole-localized rational coefficients")
        if c.pole_set != M.pole_set:
            raise PoleSetMismatchError("polynomial and multiplier pole sets differ")
    out = Q.map_coefficients(lambda c: c.derivative())
    for letter in M.alphabet:
        u = M.terms[letter.index]
        if u.is_zero:
            continue
        out = out + left_residual(Q, letter) * u
    return out


def format_ncpoly(P: NCPolynomial, alphabet: Alphabet, descending: bool = True) -> str:
    """One-line text form: terms `c*w` joined with signs, words in dot
    syntax, unit coefficients left implicit."""
    if P.is_zero:
        return "0"
    items = sorted(P.terms.items(), reverse=descending)
    chunks = []
    for w, c in items:
        word_txt = alphabet.format_word(w)
        txt, negative = _coeff_text(c)
        if w and txt == "1":
            body = word_txt
        elif not w:
            body = txt
        else:
            body = f"{txt}*{word_txt}"
        if not chunks:
            chunks.append(f"-{body}" if negative else body)
        else:
            chunks.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(chunks)


def _coeff_text(c):
    """(magnitude text, sign) for display; pulls the sign out of real
    exact scalars, wraps anything composite in parentheses."""
    if isinstance(c, PoleLocalizedRational):
        if c.is_constant and c.poly:
            return _coeff_text(c.poly[0])
        return "(" + format_plr_pretty(c) + ")", False
    if isinstance(c, GaussianRational):
        if c.is_real:
            return (str(-c.re), True) if c.re < 0 else (str(c.re), False)
        return _wrap(c), False
    if isinstance(c, (int, Fraction)):
        return (str(-c), True) if c < 0 else (str(c), False)
    if isinstance(c, float):
        return (f"{-c:.15g}", True) if c < 0 else (f"{c:.15g}", False)
    return repr(c), False
