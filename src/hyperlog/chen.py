"""Numeric evaluation of truncated Chen-series coefficients <S|w>, |w| <= N,
along pole-avoiding polylines, for the regular-at-z0 solution of d(S) = MS.

The coefficient family solves the lower-triangular linear system
d<S|x_i w>/dz = u_i(z) <S|w> with <S|1> = 1 and all positive-length
coefficients vanishing at the basepoint.  The coefficients are analytic off
the poles, so each step expands the multipliers in Taylor series about its
midpoint c and uses the series on both sides of c: a step of 2h, where c
stays 4h from every pole that carries a term (less where the multipliers are
large), integrates the series of length-l words from those of length l-1
for l up to N // 2.  Longer words need only their values at the step's
end, which Chen's lemma gives: the series at the end of the step is the
step's own series times the series at its start (K.-T. Chen, "Iterated path
integrals", Bull. AMS 83, 1977).  The series order comes from a Cauchy bound
on the circle of three times h about c, where integrating the system from
the step's start (at most 4h away) bounds the coefficients; the tail bounds
at both ends of every step are summed per length stratum as the error
estimate (in the style of Vollinga & Weinzierl, hep-ph/0410259).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import ceil, factorial, log, sqrt

import numpy as np

from .ncalg import Multiplier
from .words import Word, graded_position, graded_starts, graded_words
from .words import shuffle  # noqa: F401  (hyperbench/tracing.py wraps chen.shuffle)


class PathGeometryError(ValueError):
    """Endpoints or segments too close to a pole, or no detour found."""


class StepSizeUnderflowError(RuntimeError):
    """A step shrank below the float resolution of its segment: the path
    passes too close to a pole, or the multiplier is too large, for the
    series to make progress in double precision."""


class TruncationError(ValueError):
    """Invalid truncation order."""


_MAX_DETOUR_DEPTH = 48


def _segment_distance(a: complex, b: complex, p: complex) -> float:
    """Distance from point p to the segment [a, b]."""
    d = b - a
    L2 = abs(d) ** 2
    if L2 == 0.0:
        return abs(p - a)
    t = ((p - a).real * d.real + (p - a).imag * d.imag) / L2
    t = min(1.0, max(0.0, t))
    return abs(p - (a + t * d))


@dataclass(frozen=True)
class PathSpec:
    """Polyline from waypoints[0] to waypoints[-1] with a pole-clearance
    margin every segment is supposed to respect."""

    waypoints: tuple
    margin: float

    def __post_init__(self):
        wp = tuple(complex(w) for w in self.waypoints)
        object.__setattr__(self, "waypoints", wp)
        if not wp:
            raise PathGeometryError("path needs at least one waypoint")
        if not all(np.isfinite(wp)):
            raise PathGeometryError("waypoints must be finite")
        if not (np.isfinite(self.margin) and self.margin > 0):
            raise PathGeometryError("margin must be positive and finite")
        for a, b in zip(wp, wp[1:]):
            if a == b:
                raise PathGeometryError("consecutive waypoints must be distinct")

    @property
    def z0(self) -> complex:
        return self.waypoints[0]

    @property
    def z(self) -> complex:
        return self.waypoints[-1]

    def segments(self):
        return list(zip(self.waypoints, self.waypoints[1:]))

    def length(self) -> float:
        return sum(abs(b - a) for a, b in self.segments())

    def validate_against(self, poles) -> None:
        slack = self.margin * (1.0 - 1e-9)
        for a, b in self.segments():
            for p in poles:
                if _segment_distance(a, b, complex(p)) < slack:
                    raise PathGeometryError(
                        f"segment [{a}, {b}] passes within {self.margin} of pole {p}"
                    )


def build_path(z0: complex, z: complex, poles, margin: float) -> PathSpec:
    """Straight segment when it clears every pole by ``margin``, otherwise a
    deterministic polyline detouring around offending poles.

    Each violating pole (taken in order of encounter) gets a waypoint at
    perpendicular offset 2*margin from the pole, on the side away from it
    (ties break toward +i times the direction of travel); sub-segments are
    fixed recursively.
    """
    z0, z = complex(z0), complex(z)
    pts = [complex(p) for p in poles]
    if not (np.isfinite(z0) and np.isfinite(z)):
        raise PathGeometryError("basepoint and endpoint must be finite")
    if not (np.isfinite(margin) and margin > 0):
        raise PathGeometryError("margin must be positive and finite")
    for p in pts:
        for name, e in (("basepoint", z0), ("endpoint", z)):
            if abs(e - p) <= margin:
                raise PathGeometryError(f"{name} {e} within margin of pole {p}")
    if z0 == z:
        return PathSpec((z0,), margin)
    waypoints = _clear_segment(z0, z, pts, margin, 0)
    path = PathSpec(tuple(waypoints), margin)
    path.validate_against(pts)
    return path


def _clear_segment(a, b, poles, margin, depth):
    hits = []
    d = b - a
    L = abs(d)
    dhat = d / L
    for p in poles:
        dist = _segment_distance(a, b, p)
        if dist < margin:
            t = ((p - a).real * d.real + (p - a).imag * d.imag) / (L * L)
            hits.append((min(1.0, max(0.0, t)), p))
    if not hits:
        return [a, b]
    if depth >= _MAX_DETOUR_DEPTH:
        raise PathGeometryError("no pole-avoiding detour found (margin too large?)")
    hits.sort(key=lambda tp: tp[0])
    t, p = hits[0]
    foot = a + t * d
    cross = (dhat.conjugate() * (p - a)).imag
    side = 1j if cross <= 0 else -1j
    way = foot + 2.0 * margin * side * dhat
    left = _clear_segment(a, way, poles, margin, depth + 1)
    right = _clear_segment(way, b, poles, margin, depth + 1)
    return left[:-1] + right


class WordValues(Mapping):
    """Word-keyed view of a table's array: ``len`` without a word list, and
    entries that can be written (to plant a defect, say)."""

    __slots__ = ("_table",)

    def __init__(self, table):
        self._table = table

    def __getitem__(self, w) -> complex:
        return self._table[w]

    def __setitem__(self, w, value) -> None:
        self._table.coeffs[self._table.position(w)] = value

    def __len__(self) -> int:
        return len(self._table.coeffs)

    def __iter__(self):
        return iter(self._table.words())


@dataclass(eq=False)  # compare tables through their coeffs arrays
class CoefficientTable:
    """Values of <S|w> at the path endpoint for all |w| <= truncation.

    ``coeffs`` holds them in graded lex order over ``letters`` letters, which
    is bijective base-L numbering (``words.graded_position``); ``values`` is
    a word-keyed view of it.  A table whose array is short of a word raises
    KeyError where that word is read."""

    coeffs: np.ndarray
    letters: int
    z0: complex
    z: complex
    truncation: int
    error_estimates: dict = field(default_factory=dict)
    steps: int = 0  # series steps taken along the path

    @property
    def values(self) -> WordValues:
        return WordValues(self)

    def position(self, w) -> int:
        """Index of w in ``coeffs``; KeyError when the table lacks it."""
        w = Word(w)
        code = graded_position(w, self.letters)
        if len(w) > self.truncation or code >= len(self.coeffs) or not all(
            0 <= i < self.letters for i in w
        ):
            raise KeyError(w)
        return code

    def __getitem__(self, w) -> complex:
        return complex(self.coeffs[self.position(w)])

    def get(self, w, default=None):
        return self.values.get(w, default)

    def __contains__(self, w):
        return w in self.values

    def words(self) -> list[Word]:
        return graded_words(self.letters, self.truncation)


_EPS = float(np.finfo(float).eps)


def _shift_poly(p: list, c: complex) -> list:
    """Coefficients of p(c + s) in powers of s (repeated synthetic division)."""
    q = list(p)
    for m in range(len(q) - 1):
        for n in range(len(q) - 2, m - 1, -1):
            q[n] += c * q[n + 1]
    return q


def _max_on_circle(terms, polys, c: complex, r: float) -> float:
    """Upper bound on max_i |u_i| over the circle of radius r about c."""
    return max(
        sum(abs(coef) * (abs(c - p) - r) ** -k for p, k, coef in ts)
        + sum(abs(q) * (abs(c) + r) ** n for n, q in enumerate(ps))
        for ts, ps in zip(terms, polys)
    )


@lru_cache(maxsize=256)
def _series_tables(K: int, orders: tuple):
    """For series order K and the pole orders of the terms: the powers m,
    the integration weights 1/m (1 at m = 0) shaped to scale rows, the rows
    C(k - 1 + m, m) per term of order k, and the signs (-1)^m."""
    m = np.arange(K)
    ratios = (np.array(orders, dtype=float)[:, None] - 1 + m[1:]) / m[1:]
    binom = np.cumprod(np.c_[np.ones(len(orders)), ratios], axis=1)
    out = m, 1.0 / np.maximum(m, 1)[:, None, None], binom, (-1.0) ** m
    for arr in out:  # shared by every call that hits the cache
        arr.flags.writeable = False
    return out


def eval_coeffs(M: Multiplier, path: PathSpec, N: int, tol: float) -> CoefficientTable:
    """Propagate the truncated coefficient system along the path by Taylor
    series, each centred mid-step and used on both sides of its centre.

    Each step carries the series of the words up to length N // 2; a
    longer word uv, |v| = N // 2, gets its value at the step's end as the
    sum over its splits of the step's own coefficient of the left part
    times the start value of the right part, where the splits that cut v
    are one kernel row for u applied to the series of v.

    ``tol`` is the absolute error target per coefficient over the whole
    path; ``error_estimates[l]`` sums over the steps the Cauchy bound on
    the series tails of length-l words at both ends of the step, with the
    words bounded on the circle of 3h about the centre by integrating from
    the step's start (at most 4h away); ``steps`` counts the steps.
    """
    if not isinstance(N, int) or N < 0:
        raise TruncationError(f"truncation must be a nonnegative integer, got {N!r}")
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError("tol must be positive and finite")
    path.validate_against(M.pole_set.approx)

    # graded lex order over L letters is base-L numbering: stratum l starts
    # at sum_(k<l) L^k, and x_i w sits at i L^(l-1) plus w's place in l-1
    L = len(M.alphabet)
    starts = graded_starts(L, N)
    mid = N // 2
    # per letter: principal-part terms (pole, order, coefficient) and the
    # polynomial part, as complex numbers; the terms also as flat arrays
    us = [M.terms[i] for i in range(L)]
    terms = [
        [(M.pole_set.approx[i], k, complex(c)) for (i, k), c in u.principal.items()]
        for u in us
    ]
    polys = [[complex(c) for c in u.poly] for u in us]
    flat = [(i, k, p, a) for i, ts in enumerate(terms) for p, k, a in ts]
    letter, order = np.array([f[:2] for f in flat], dtype=int).reshape(-1, 2).T
    pole, coef = np.array([f[2:] for f in flat], dtype=complex).reshape(-1, 2).T
    orders = tuple(order.tolist())
    term_poles = list(dict.fromkeys(f[2] for f in flat))
    of_letter = (letter == np.arange(L)[:, None]).astype(complex)
    y = np.zeros(starts[-1], dtype=complex)
    y[0] = 1.0
    est = np.zeros(N + 1)
    steps = 0
    total_len = path.length()

    for a, b in path.segments():
        seg_len = abs(b - a)
        dhat = (b - a) / seg_len
        t = 0.0
        while t < seg_len:
            start = a + dhat * t
            # the step runs from start to start + 2H about c = start + H,
            # h = |H|; dist(c, p) >= 4h is 15h^2 - 2 beta h - |q|^2 <= 0
            # with q = start - p, beta = Re(q conj(dhat)), so it holds for
            # every h up to the positive root (and the disc |s| <= 3h about
            # c stays h from every pole that carries a term)
            h = (seg_len - t) / 2.0
            for p in term_poles:
                q = start - p
                beta = (q * dhat.conjugate()).real
                aq = abs(q)
                h = min(h, (beta + sqrt(beta * beta + 15.0 * (aq * aq))) / 15.0)
            # U bounds |u_i| on the circle |s| = 2h about c.  Shrinking h
            # until 2hU <= 1 keeps the bound b_l (below) near the values
            # themselves (U only falls as h shrinks, so 0.5/U is enough).
            U = _max_on_circle(terms, polys, start + dhat * h, 2.0 * h)
            while 2.0 * h * U > 1.0:
                h = max(h / 2.0, 0.5 / U)
                U = _max_on_circle(terms, polys, start + dhat * h, 2.0 * h)
            if h < min(seg_len * 1e-14, (seg_len - t) / 2.0):
                raise StepSizeUnderflowError(f"step size {h:.3g} underflows at {start}")
            H = dhat * h
            c = start + H
            # Every point of the disc |s| <= 3h about c is within 4h of
            # start along a line inside the disc, so integrating
            # d y_(x_i w) = u_i y_w from start bounds |y_w| there by
            # b_l = sum_j Y_(l-j) (4h U_r)^j / j!, Y_l = max |y_w(start)|.
            x = 4.0 * h * _max_on_circle(terms, polys, c, 3.0 * h)
            Y = np.maximum.reduceat(np.abs(y), starts[:-1])
            b = np.convolve(Y, [x**j / factorial(j) for j in range(N + 1)])[1 : N + 1]
            # the sigma-scaled coefficients are bounded by b_l 3^-m, so K
            # terms leave a tail of at most b_l 3^-K 3/2 at each end
            share = 2.0 * h / total_len
            ratio = (3.0 * b / (np.maximum(tol, 4.0 * _EPS * b) * share)).max(initial=1.0)
            K = max(1, ceil(log(ratio) / log(3.0)))
            est[1:] += b * 3.0 * 3.0**-K
            steps += 1

            m, inv_m, binom, sign = _series_tables(K, orders)
            # u_i(c + sigma H) H = sum_m A[i, m] sigma^m, where binom[t, m] is
            # C(k - 1 + m, m) for the order k of term t; A sits behind K zeros
            d = c - pole
            padded = np.zeros((L, 2 * K), dtype=complex)
            A = padded[:, K:]
            A[:] = of_letter @ ((coef * d**-order)[:, None] * binom * (-H / d)[:, None] ** m)
            for i, ps in enumerate(polys):
                if ps:
                    qs = _shift_poly(ps, c)[:K]
                    A[i, : len(qs)] += np.array(qs) * H ** m[: len(qs)]
            A *= H
            # J[:, i] maps a series of <S|w> to that of <S|x_i w> less its
            # value at start, the integral against u_i from sigma = -1: the
            # lower-Toeplitz product with A[i] integrated from 0 (row 0 is
            # empty), less its value at -1 in row 0; as a (K L, K) matrix it
            # takes a stratum to the next in one product.  J[m, i, n] is
            # A[i, m - 1 - n] / m, read through a strided view of padded
            # whose negative lags fall on the zeros
            item = padded.itemsize
            lagged = np.ndarray(
                (K, L, K), complex, padded, (K - 1) * item, (item, 2 * K * item, -item)
            )
            J = np.multiply(lagged, inv_m, order="C")
            J[0] = -(sign @ J.reshape(K, -1)).reshape(L, K)
            prev = np.eye(K, 1, dtype=complex)  # the series of <S|1> = 1
            for ln in range(1, mid + 1):
                lo, hi = starts[ln], starts[ln + 1]
                prev = (J.reshape(K * L, K) @ prev).reshape(K, hi - lo)
                prev[0] += y[lo:hi]
                y[lo:hi] = prev.sum(axis=0)
            # Row u of R[k] is 1^T J_(u_1) ... J_(u_k): applied to a series
            # it gives the iterated integral over u at sigma = 1, and its
            # column 0 is the step's own coefficient s_u.  For |u| = k and
            # |v| = mid, <S|uv> gains R_u applied to the series of v (the
            # splits of uv past u) and s_a <S|bv> for u = ab, 0 < |a| < k;
            # strata are updated top down, so <S|bv> is still the start value
            R = [np.ones((1, K))]
            for k in range(1, N - mid + 1):
                R.append((R[-1] @ J.reshape(K, L * K)).reshape(L**k, K))
            for ln in range(N, mid, -1):
                top = y[starts[ln] : starts[ln + 1]]  # reshaped below as views
                top.reshape(-1, L**mid)[:] += R[ln - mid] @ prev
                for j in range(1, ln - mid):
                    top.reshape(L**j, -1)[:] += R[j][:, :1] * y[starts[ln - j] : starts[ln - j + 1]]
            t = seg_len if 2.0 * h >= seg_len - t else t + 2.0 * h

    estimates = {ln: float(e) for ln, e in enumerate(est)}
    return CoefficientTable(y, L, path.z0, path.z, N, estimates, steps)


def grouplike_report(T: CoefficientTable):
    """(max defect, worst pair) over pairs 1 <= |u|,|v|, |u|+|v| <= N of
    |<S|u><S|v> - <S|u shuffle v>|; (0.0, None) when no pair qualifies.

    The defect is symmetric in u and v, so each unordered pair is checked
    once and reported with u first in graded lex order.  u shuffle v sums
    the words carrying u on |u| of their positions and v on the rest
    (Reutenauer, Free Lie Algebras); with words numbered in base L, the
    codes of all of them are digit matrices times those positions' place
    values, read from the table's strata.  Every word over the table's
    letters must be present (KeyError)."""
    N, L = T.truncation, T.letters
    if N < 2:
        return 0.0, None
    starts = graded_starts(L, N)
    if len(T.coeffs) < starts[-1]:
        raise KeyError(T.words()[len(T.coeffs)])
    # per length: values and base-L digits, indexed by code
    val = [T.coeffs[starts[ln] : starts[ln + 1]] for ln in range(N + 1)]
    digits = [(np.arange(L**ln)[:, None] // L ** np.arange(ln - 1, -1, -1)) % L for ln in range(N)]
    worst, worst_pair = 0.0, None
    for p in range(1, N // 2 + 1):
        for q in range(p, N - p + 1):
            # the C(p+q, p) position sets of u; v takes the rest
            subsets = list(combinations(range(p + q), p))
            rest = [[j for j in range(p + q) if j not in s] for s in subsets]
            place = L ** np.arange(p + q - 1, -1, -1)
            code_u = digits[p] @ place[np.array(subsets)].T  # (L^p, C)
            code_v = digits[q] @ place[np.array(rest)].T  # (L^q, C)
            chunk = max(1, (1 << 18) // code_v.size)  # u rows per temporary
            for lo in range(0, len(code_u), chunk):
                rhs = val[p + q][code_u[lo : lo + chunk, None, :] + code_v].sum(axis=-1)
                defect = np.abs(val[p][lo : lo + chunk, None] * val[q] - rhs)
                if p == q:
                    defect = np.triu(defect, lo)  # only v at or after u
                iu, iv = np.unravel_index(np.argmax(defect), defect.shape)
                if defect[iu, iv] > worst:
                    worst = float(defect[iu, iv])
                    worst_pair = (Word(digits[p][lo + iu]), Word(digits[q][iv]))
    return worst, worst_pair


def grouplike_defect(T: CoefficientTable) -> float:
    return grouplike_report(T)[0]
