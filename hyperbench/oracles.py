"""Oracles for the hyperlog benchmark, written against plain ``fractions``
and ``cmath`` so that they do not share arithmetic with the program."""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

# Gaussian rationals as (re, im) pairs of Fractions.


def gq(re, im=0):
    return (Fraction(re), Fraction(im))


def gq_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gq_sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def gq_div(a, b):
    den = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / den, (a[1] * b[0] - a[0] * b[1]) / den)


def parse_gq(text):
    """Inverse of the program's coefficient text: ``2``, ``-1/2``, ``i``,
    ``1/2*i``, ``(1+i)``, ``(-1/2+1/2*i)``."""
    t = text.strip()
    if t.startswith("(") and t.endswith(")"):
        t = t[1:-1]
    if not t.endswith("i"):
        return gq(Fraction(t))
    body = t[:-1]
    if body.endswith("*"):
        body = body[:-1]
    k = max(body.rfind("+", 1), body.rfind("-", 1))
    re_t, im_t = (body[:k], body[k:]) if k > 0 else ("", body)
    if im_t in ("", "+"):
        im = Fraction(1)
    elif im_t == "-":
        im = Fraction(-1)
    else:
        im = Fraction(im_t)
    return (Fraction(re_t) if re_t else Fraction(0), im)


def parse_relation(poly_text):
    """``x1.x0 + x0.x1 - 1/2*x0`` -> {word text: (re, im)}."""
    terms = {}
    chunks = poly_text.replace(" - ", " + -").split(" + ")
    for chunk in chunks:
        chunk = chunk.strip()
        sign = 1
        if chunk.startswith("-"):
            sign, chunk = -1, chunk[1:].strip()
        if "*" in chunk:
            coef_t, word = chunk.rsplit("*", 1)
            coef = parse_gq(coef_t)
        else:
            coef, word = gq(1), chunk
        terms[word] = (sign * coef[0], sign * coef[1])
    return terms


def expected_double_pole_relation(z0):
    """The depth-2 relation of u0 = 1/z^2, u1 = 1/(1-z)^2 at basepoint z0:
    x1.x0 + x0.x1 + (1 - 1/z0)*x1 + z0/(1 - z0)*x0."""
    one = gq(1)
    terms = {
        "x1.x0": one,
        "x0.x1": one,
        "x1": gq_sub(one, gq_div(one, z0)),
        "x0": gq_div(z0, gq_sub(one, z0)),
    }
    return {w: c for w, c in terms.items() if c != (0, 0)}


def segment_log(waypoints, pole):
    """sum over polyline segments [a, b] of log((b - pole)/(a - pole)):
    each segment clears the pole, so no term crosses a branch cut."""
    total = 0j
    for a, b in zip(waypoints, waypoints[1:]):
        total += cmath.log((b - pole) / (a - pole))
    return total


def power_word_values(waypoints, pole, weight, n_max):
    """Closed forms <S|x^n> = (weight * L)^n / n!, n = 1..n_max, for a
    Fuchsian letter weight/(z - pole)."""
    base = weight * segment_log(waypoints, pole)
    return [base**n / math.factorial(n) for n in range(1, n_max + 1)]


def shuffle_coefficient_sum(P, Q):
    """sum of the coefficients of P shuffle Q, for {word tuple: (re, im)}
    inputs: sum c_u c_v C(|u|+|v|, |u|)."""
    total = gq(0)
    for u, cu in P.items():
        for v, cv in Q.items():
            prod = gq_mul(cu, cv)
            n = math.comb(len(u) + len(v), len(u))
            total = (total[0] + n * prod[0], total[1] + n * prod[1])
    return total
