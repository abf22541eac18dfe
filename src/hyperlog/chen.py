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

The poles are fixed and known, so the geometry alone fixes each step's
centre, size and kernels; only the series order reads the values, through
the bound on the start values.  ``eval_coeffs`` therefore works in three
phases: it plans the steps in plain floats, fixes the orders of a batch of
steps from an a-priori bound (Chen's lemma again: the values at a step's
start are those at its batch's start times the iterated integrals between,
|<S_seg|w>| <= lam^|w| / |w|! for lam the integral of a bound on the
multipliers) and builds the batch's kernels as stacked products, and only
then runs the per-step products on the values.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import chain, combinations
from math import comb, isnan, log, sqrt

import numpy as np

from .cache import bounded_cache
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
    max_order: int = 0  # the largest series order K of a step

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

    def __contains__(self, w):
        return w in self.values

    def words(self) -> list[Word]:
        return graded_words(self.letters, self.truncation)


_EPS = float(np.finfo(float).eps)
# bytes of the stacked kernels of one batch of steps; a batch holds the
# longest run of steps that fits, and at least one
_KERNEL_BYTES = 1 << 20


def _shift_poly(p: list, c):
    """Coefficients of p(c + s) in powers of s (repeated synthetic division);
    c may be an array of centres."""
    q = list(p)
    for m in range(len(q) - 1):
        for n in range(len(q) - 2, m - 1, -1):
            q[n] += c * q[n + 1]
    return q


def _circle_bounds(letters, dist, rad: float, h: float):
    """Upper bounds on max_i |u_i| over the circles of radius 2h, 3h and h
    about a centre at distance dist[j] from pole j and rad from 0, in one
    pass over the terms; ``letters`` holds per letter its principal terms as
    (|coefficient|, pole, order) and its polynomial part as (power,
    |coefficient|)."""
    r1, r2, r3 = 2.0 * h, 3.0 * h, h
    w1 = w2 = w3 = 0.0
    for terms, poly in letters:
        s1 = s2 = s3 = 0.0
        for a, j, k in terms:
            d = dist[j]
            s1 += a * (d - r1) ** -k
            s2 += a * (d - r2) ** -k
            s3 += a * (d - r3) ** -k
        for n, q in poly:
            s1 += q * (rad + r1) ** n
            s2 += q * (rad + r2) ** n
            s3 += q * (rad + r3) ** n
        if s1 > w1:
            w1 = s1
        if s2 > w2:
            w2 = s2
        if s3 > w3:
            w3 = s3
    return w1, w2, w3


def _plan_steps(path: PathSpec, letters, poles):
    """The steps along the path, which the geometry alone fixes, as arrays:
    the centre c, the half-step H and h = |H|, x = 4h times the bound on
    the multipliers on the circle of 3h about c, and lam = 2h times their
    bound on the circle of h, which holds along the step."""
    plan = []
    for a, b in path.segments():
        seg_len = abs(b - a)
        dhat = (b - a) / seg_len
        conj = dhat.conjugate()
        t = 0.0
        while t < seg_len:
            start = a + dhat * t
            # the step runs from start to start + 2H about c = start + H,
            # h = |H|; dist(c, p) >= 4h is 15h^2 - 2 beta h - |q|^2 <= 0
            # with q = start - p, beta = Re(q conj(dhat)), so it holds for
            # every h up to the positive root (and the disc |s| <= 3h about
            # c stays h from every pole that carries a term)
            h = (seg_len - t) / 2.0
            for p in poles:
                q = start - p
                beta = (q * conj).real
                aq = abs(q)
                root = (beta + sqrt(beta * beta + 15.0 * (aq * aq))) / 15.0
                if root < h:
                    h = root
            # U bounds |u_i| on the circle |s| = 2h about c.  Shrinking h
            # until 2hU <= 1 keeps the bounds below near the values
            # themselves (U only falls as h shrinks, so 0.5/U is enough).
            # Every point of the disc |s| <= 3h about c is within 4h of
            # start along a line inside the disc, so integrating
            # d y_(x_i w) = u_i y_w from start bounds |y_w| there by
            # b_l = sum_j Y_(l-j) x^j / j!, Y_l = max |y_w(start)|, with x
            # 4h times the bound on that circle; the step itself lies in
            # the disc |s| <= h
            while True:
                c = start + dhat * h
                dist = [abs(c - p) for p in poles]
                U, U3, U1 = _circle_bounds(letters, dist, abs(c), h)
                if not 2.0 * h * U > 1.0:
                    break
                h = max(h / 2.0, 0.5 / U)
            if h < min(seg_len * 1e-14, (seg_len - t) / 2.0):
                raise StepSizeUnderflowError(f"step size {h:.3g} underflows at {start}")
            plan.append((c, dhat * h, h, 4.0 * h * U3, 2.0 * h * U1))
            t = seg_len if 2.0 * h >= seg_len - t else t + 2.0 * h
    c, H, h, x, lam = zip(*plan) if plan else ((),) * 5
    return np.array(c, complex), np.array(H, complex), np.array(h), np.array(x), np.array(lam)


def _tail_bounds(Y, x, N: int):
    """b_l = sum_j Y_(l-j) x^j / j!, l = 0..N, one row per entry of x, for
    stratum bounds Y given per row (n, N + 1) or shared (N + 1,)."""
    # rows j of the Toeplitz matrix Y_(l-j): Y behind N zeros, read
    # through a strided view
    ragged = np.concatenate((np.zeros(Y.shape[:-1] + (N,)), Y), axis=-1)
    item = ragged.itemsize
    strides = ragged.strides[:-1] + (-item, item)
    lagged = np.ndarray(Y.shape + (N + 1,), float, ragged, N * item, strides)
    powers = np.cumprod(x[:, None] / np.arange(1.0, N + 1), axis=1)  # x^j / j!, j >= 1
    return Y + (powers[:, None, :] @ lagged[..., 1:, :])[:, 0]


def _orders(b, share, tol: float):
    """The series order K per step for bounds b_l of the strata l = 1..N
    (columns 1..N) and the step's share of the path: the sigma-scaled
    coefficients are bounded by b_l 3^-m, so K terms leave a tail of at
    most b_l 3^-K 3/2 at each end, which K keeps under its share of tol,
    or at the roundoff floor 4 eps b_l (so the largest b_l decides)."""
    b = b[:, 1:].max(axis=1, initial=0.0)
    ratio = 3.0 * b / (np.maximum(tol, 4.0 * _EPS * b) * share)
    return np.ceil(np.log(np.maximum(ratio, 3.0)) / log(3.0)).astype(int)


@bounded_cache(1 << 20)
def _series_tables(K: int, orders: tuple):
    """For series order K and the pole orders of the terms: the powers m;
    the rows C(k - 1 + m, m) per term of order k; and the Hankel matrix
    hankel[t, e K + n] = w[e, t + n + 1] of the weights w[e, s] that give
    a series' value at sigma = -1, negated (e = 0), and at sigma = 1 less
    that (e = 1) from its integral's s-th coefficient s, 0 < s < K."""
    m = np.arange(K)
    ratios = (np.array(orders, dtype=float)[:, None] - 1 + m[1:]) / m[1:]
    binom = np.cumprod(np.c_[np.ones(len(orders)), ratios], axis=1)
    w = np.zeros((2, 2 * K))
    w[0, 1:K] = -((-1.0) ** m[1:]) / m[1:]
    w[1, 1:K] = 1.0 / m[1:] + w[0, 1:K]
    hankel = np.ndarray((K, 2, K), float, w, w.itemsize, (w.itemsize, w.strides[0], w.itemsize))
    return m, binom, hankel.reshape(K, 2 * K)


def _step_kernels(c, H, K: int, L: int, at, terms, polys):
    """The kernels of a batch of steps of series order K, with centres c
    and half-steps H, stacked along axis 0: JR, which maps the series of a
    stratum below N // 2 to that of the next, less its start value, and
    below that to the gain of the next over the step; and R, which maps
    the series of stratum m = N // 2 to the gain of strata m + 1 .. N
    from the splits past m, its column 0 the step's own coefficients; R's
    rows for words of length k start at at[k] - 1."""
    letter, order, pole, coef = terms
    n = len(c)
    m, binom, hankel = _series_tables(K, tuple(order.tolist()))
    # u_i(c + sigma H) H = sum_m A[i, m] sigma^m, where binom[t, m] is
    # C(k - 1 + m, m) for the order k of term t; A sits behind K zeros
    d = c[:, None] - pole
    padded = np.zeros((n, L, 2 * K), dtype=complex)
    A = padded[:, :, K:]
    A[:] = letter @ ((coef * d**-order)[..., None] * binom * (-H[:, None] / d)[..., None] ** m)
    for i, ps in enumerate(polys):
        if ps:
            qs = np.stack([np.broadcast_to(q, c.shape) for q in _shift_poly(ps, c)[:K]], axis=1)
            A[:, i, : qs.shape[1]] += qs * H[:, None] ** m[: qs.shape[1]]
    A *= H[:, None, None]
    # J[:, i] maps a series of <S|w> to that of <S|x_i w> less its value at
    # start, the integral against u_i from sigma = -1: the lower-Toeplitz
    # product with A[i] integrated from 0 (row 0 is empty), less its value
    # at -1 in row 0; as a (K L, K) matrix it takes a stratum to the next in
    # one product.  J[m, i, n] is A[i, m - 1 - n] / m, read through a
    # strided view of padded whose negative lags fall on the zeros.  (Copying
    # the view first and scaling by an array of J's shape keeps numpy from
    # buffering the product through large temporaries.  That array is
    # built per batch: kept per series order, it would hold 16 L K^2 bytes
    # each, about 1 MB on the eval-deep benchmark, for 0.5% of its time.)
    # Below J in JR sits 1^T J, the same integrals at sigma = 1.  Row 0 of
    # J and 1^T J weigh A[i, t] by w[., t + n + 1], the Hankel matrix
    item = padded.itemsize
    lagged = np.ndarray(
        (n, K, L, K), complex, padded, (K - 1) * item,
        (padded.strides[0], item, 2 * K * item, -item),
    )
    JR = np.empty((n, K * L + L, K), dtype=complex)
    J = JR[:, : K * L].reshape(n, K, L, K)
    np.copyto(J, lagged)
    J *= np.repeat(1.0 / np.maximum(m, 1) + 0j, L * K).reshape(K, L, K)
    ends = (A.reshape(n * L, K) @ hankel).reshape(n, L, 2, K)
    J[:, 0], JR[:, K * L :] = ends[:, :, 0], ends[:, :, 1]
    # Row u of R is 1^T J_(u_1) ... J_(u_k), 0 < k <= N - m, in graded
    # order: applied to a series it gives the iterated integral over u at
    # sigma = 1, and its column 0 is the step's own coefficient s_u
    R = np.empty((n, at[-1] - 1, K), dtype=complex)
    R[:, :L] = JR[:, K * L :]
    for k in range(2, len(at) - 1):
        rows = R[:, at[k] - 1 : at[k + 1] - 1].reshape(n, -1, L * K)
        np.matmul(R[:, at[k - 1] - 1 : at[k] - 1], J.reshape(n, K, L * K), out=rows)
    return JR, R


@bounded_cache(1 << 16)
def _layout(L: int, N: int):
    """Where a table of the words up to length N over L letters keeps its
    parts: the first index of each stratum (``graded_starts``), also as an
    array; ``at``, the first row of R for each length of a left part, plus
    one; and the splits past m = N // 2 that ``_advance`` updates, as
    (stratum ln of uv, length k of the left part p, R's rows for p)."""
    m = N // 2
    starts = tuple(graded_starts(L, N))
    at = tuple(graded_starts(L, N - m))
    splits = tuple(
        (ln, k, at[k] - 1, at[k + 1] - 1) for ln in range(N, m + 1, -1) for k in range(1, ln - m)
    )
    return starts, np.array(starts[:-1]), at, splits


def _advance(y, layout, L: int, kernels, Y) -> None:
    """Advance the values y over a batch of steps with their kernels,
    recording the largest |<S|w>| of each stratum at each step's start in
    the rows of Y."""
    JR, R = kernels
    starts, first, _, splits = layout
    N = len(starts) - 2
    m = N // 2
    K = JR.shape[-1]
    strata = [y[starts[ln] : starts[ln + 1]] for ln in range(N + 1)]
    upper = y[starts[m + 1] :].reshape(-1, L**m)  # words uv, |v| = m, by v
    # For |v| = m, <S|uv> gains R_u applied to the series of v (the splits
    # of uv past u) and s_p <S|bv> for u = pb, 0 < |p| < |u|: per stratum
    # of uv and length of p, the rows of R for p, and the start values of
    # bv, which stay so while the strata are updated top down
    splits = [(strata[ln].reshape(L**k, -1), lo, hi, strata[ln - k]) for ln, k, lo, hi in splits]
    unit = np.eye(K, 1, dtype=complex)  # the series of <S|1> = 1
    for j in range(len(JR)):
        np.maximum.reduceat(np.abs(y), first, out=Y[j])
        series = unit
        for ln in range(1, m + 1):
            gain = JR[j] @ series
            series = gain[: K * L].reshape(K, -1)
            series[0] += strata[ln]
            strata[ln] += gain[K * L :].reshape(-1)
        for top, lo, hi, old in splits:
            top += R[j, lo:hi, :1] * old
        upper += R[j] @ series


@bounded_cache(1 << 16)
def float_form(M: Multiplier):
    """The multiplier in floats, as the steps read it: per letter, its
    principal terms as (|coefficient|, index into ``poles``, order) and
    its polynomial part as (power, |coefficient|), for the bounds; the
    poles that carry a term; the terms as arrays (a letter-by-term 0/1
    matrix, order, pole, coefficient); and per letter its polynomial part.
    OverflowError for a coefficient outside floating-point range."""
    L = len(M.alphabet)
    us = [M.terms[i] for i in range(L)]
    flat = [
        (i, k, M.pole_set.approx[j], complex(a))
        for i, u in enumerate(us)
        for (j, k), a in u.principal.items()
    ]
    polys = tuple(tuple(complex(a) for a in u.poly) for u in us)
    poles = tuple(dict.fromkeys(f[2] for f in flat))
    letters = tuple(
        (
            tuple((abs(a), poles.index(p), k) for i, k, p, a in flat if i == x),
            tuple((n, abs(a)) for n, a in enumerate(ps)),
        )
        for x, ps in enumerate(polys)
    )
    letter, order = np.array([f[:2] for f in flat], dtype=int).reshape(-1, 2).T
    pole, coef = np.array([f[2:] for f in flat], dtype=complex).reshape(-1, 2).T
    terms = ((letter == np.arange(L)[:, None]).astype(complex), order, pole, coef)
    return letters, poles, terms, polys


def eval_coeffs(M: Multiplier, path: PathSpec, N: int, tol: float) -> CoefficientTable:
    """Propagate the truncated coefficient system along the path by Taylor
    series, each centred mid-step and used on both sides of its centre, in
    three phases.

    Plan: walk the path in floats to fix every step's centre and size and
    bounds on the multipliers about it.  Kernels: for a batch of steps at a
    time, fix each step's series order K before its values are known, and
    build the batch's kernels as stacked products.  Values: per step,
    integrate the series of the words up to length m = N // 2 stratum by
    stratum; a longer word uv, |v| = m, gets its value at the step's end as
    the sum over its splits of the step's own coefficient of the left part
    times the start value of the right part, where the splits that cut v
    are one kernel row for u applied to the series of v: one product
    updates every longer word with those.

    ``tol`` is the absolute error target per coefficient over the whole
    path; ``error_estimates[l]`` sums over the steps the Cauchy bound on
    the series tails of length-l words at both ends of the step, with the
    words bounded on the circle of 3h about the centre by integrating from
    the step's start (at most 4h away).  K keeps that bound under the
    step's share of ``tol`` for an a-priori bound on the start values:
    |<S|w>| <= lam^|w| / |w|! when the multipliers are at most U along the
    path and lam sums 2h U over its steps, which Chen's lemma applies to
    the values at the start of the step's batch.  That bound is at least
    the values, so K is at least the order they would pick.  ``steps``
    counts the steps and ``max_order`` is the largest K.
    """
    if not isinstance(N, int) or N < 0:
        raise TruncationError(f"truncation must be a nonnegative integer, got {N!r}")
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError("tol must be positive and finite")
    path.validate_against(M.pole_set.approx)

    # graded lex order over L letters is base-L numbering: stratum l starts
    # at sum_(k<l) L^k, and x_i w sits at i L^(l-1) plus w's place in l-1
    L = len(M.alphabet)
    layout = _layout(L, N)
    starts, first, at, _ = layout
    letters, poles, terms, polys = float_form(M)

    centres, halves, hs, xs, lams = _plan_steps(path, letters, poles)
    steps = len(centres)
    shares = 2.0 * hs / path.length()
    reach = np.cumsum(lams) - lams  # lam summed over the steps before each
    y = np.zeros(starts[-1], dtype=complex)
    y[0] = 1.0
    Y = np.zeros((steps, N + 1))  # max |<S|w>| per stratum at each step's start
    orders = np.zeros(steps, dtype=int)
    r_rows = at[-1] - 1
    i = 0
    while i < steps:
        # the start values of the steps ahead are bounded through Chen's
        # lemma by the values here and lam summed over the steps between,
        # so their bound b_l is that of the values here with x raised by
        # that sum
        Y0 = np.maximum.reduceat(np.abs(y), first)
        K = _orders(_tail_bounds(Y0, xs[i:] + (reach[i:] - reach[i]), N), shares[i:], tol)
        # the batch: the longest run whose stacked kernels (JR, R and the
        # padded A, all complex) fit the budget at the run's largest order
        n = Kb = 0
        for k in K.tolist():
            k = max(Kb, k)
            if n and (n + 1) * k * (r_rows + 3 * L + L * k) * 16 > _KERNEL_BYTES:
                break
            n, Kb = n + 1, k
        orders[i : i + n] = K[:n]
        if N:  # at N = 0 the values stay the unit
            kernels = _step_kernels(centres[i : i + n], halves[i : i + n], Kb, L, at, terms, polys)
            _advance(y, layout, L, kernels, Y[i : i + n])
            del kernels  # before the next batch's are built
        i += n

    # the tail bounds at both ends of each step, for the values at its start
    est = np.zeros(N + 1)
    if steps:
        est[1:] = (_tail_bounds(Y, xs, N)[:, 1:] * 3.0 ** (1 - orders)[:, None]).sum(axis=0)
    estimates = dict(enumerate(est.tolist()))
    return CoefficientTable(y, L, path.z0, path.z, N, estimates, steps, int(orders.max(initial=0)))


@bounded_cache(1 << 20)
def _shuffle_codes(L: int, p: int, q: int):
    """For words u of length p and v of length q over L letters: ``code_u``
    and ``code_v``, whose sum code_u[u, s] + code_v[v, s] numbers, in the
    stratum of length p + q, the word of u shuffle v that carries u on the
    s-th set of p positions and v on the rest (with words numbered in base
    L, they are digit matrices times those positions' place values); and
    the first run of u rows, as many as keep a run's temporaries near 2^18
    entries: its numbers code_u[:rows, None] + code_v and, for p = q, the
    mask of its pairs with v at or after u (else None).  Up to N = 7 over
    three letters every block is one run."""
    sets = comb(p + q, p)
    subsets = chain.from_iterable(combinations(range(p + q), p))
    subsets = np.fromiter(subsets, np.intp, sets * p).reshape(sets, p)
    taken = np.zeros((sets, p + q), bool)
    np.put_along_axis(taken, subsets, True, axis=1)
    rest = np.nonzero(~taken)[1].reshape(sets, q)  # each set's complement, in order
    place = L ** np.arange(p + q - 1, -1, -1)
    code_u = _digits(L, p) @ place[subsets].T  # (L^p, sets)
    code_v = _digits(L, q) @ place[rest].T  # (L^q, sets)
    first = code_u[: max(1, (1 << 18) // code_v.size), None, :] + code_v
    upper = ~np.tri(len(first), len(code_v), -1, dtype=bool) if p == q else None
    return code_u, code_v, first, upper


def _digits(L: int, n: int):
    """The n base-L digits of each word of length n, by its number."""
    return (np.arange(L**n)[:, None] // L ** np.arange(n - 1, -1, -1)) % L


def grouplike_report(T: CoefficientTable):
    """(max defect, worst pair) over pairs 1 <= |u|,|v|, |u|+|v| <= N of
    |<S|u><S|v> - <S|u shuffle v>|; (0.0, None) when no pair qualifies.

    The defect is symmetric in u and v, so each unordered pair is checked
    once and reported with u first in graded lex order; of equal defects,
    the first in the scan wins (by |u|, then |v|, then u, then v).  A NaN
    defect is the worst: the first one in the scan is reported.  u
    shuffle v sums the words carrying u on |u| of their positions and v on
    the rest (Reutenauer, Free Lie Algebras); with words numbered in base
    L, their numbers are sums of a term for u and one for v per position
    set, which depend on the letters and lengths alone, so
    ``_shuffle_codes`` keeps them across calls, with the sums for the first
    run of u rows of each block of lengths (|u|, |v|).  A run, as many rows
    as keep its temporaries near 2^18 entries, takes one gather, one sum
    over the position sets, one product and one argmax.  Every word over
    the table's letters must be present (KeyError)."""
    N, L = T.truncation, T.letters
    if N < 2:
        return 0.0, None
    starts = graded_starts(L, N)
    if len(T.coeffs) < starts[-1]:
        raise KeyError(T.words()[len(T.coeffs)])
    val = [T.coeffs[starts[ln] : starts[ln + 1]] for ln in range(N + 1)]  # indexed by number
    worst, at = 0.0, None
    for p in range(1, N // 2 + 1):
        for q in range(p, N - p + 1):
            code_u, code_v, first, upper = _shuffle_codes(L, p, q)
            chunk = len(first)  # u rows per run
            for lo in range(0, len(code_u), chunk):
                codes = first if lo == 0 else code_u[lo : lo + chunk, None, :] + code_v
                rhs = val[p + q][codes].sum(axis=-1)
                defect = np.abs(val[p][lo : lo + chunk, None] * val[q] - rhs)
                if p == q:  # only v at or after u
                    defect = np.where(upper, defect, 0.0) if lo == 0 else np.triu(defect, lo)
                iu, iv = divmod(int(defect.argmax()), defect.shape[1])  # first NaN, if any
                d = float(defect[iu, iv])
                if isnan(d):
                    return d, _pair((p, q, lo + iu, iv), L)
                if d > worst:
                    worst, at = d, (p, q, lo + iu, iv)
    return worst, None if at is None else _pair(at, L)


def _pair(at, L: int):
    """The words (u, v) at (|u|, |v|, number of u, number of v)."""
    p, q, u, v = at
    return _word(u, L, p), _word(v, L, q)


def _word(code: int, L: int, n: int) -> Word:
    """The word of length n numbered ``code`` in its stratum."""
    return Word(code // L**k % L for k in range(n - 1, -1, -1))


def grouplike_defect(T: CoefficientTable) -> float:
    return grouplike_report(T)[0]
