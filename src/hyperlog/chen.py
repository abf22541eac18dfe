"""Numeric evaluation of truncated Chen-series coefficients <S|w>, |w| <= N,
along pole-avoiding polylines, for the regular-at-z0 solution of d(S) = MS.

The coefficient family solves the lower-triangular linear system
d<S|x_i w>/dz = u_i(z) <S|w> with <S|1> = 1 and all positive-length
coefficients vanishing at the basepoint.  Each step expands the multipliers
in Taylor series about a centre c on the path, over a quarter of the distance
from c to the nearest pole that carries a term (less where the multipliers
are large), and integrates the series of length-l words from those of length
l-1.  The series order comes from a Cauchy bound on the circle of twice the
step; the tail bounds are summed per length stratum as the error estimate
(in the style of Vollinga & Weinzierl, hep-ph/0410259).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ncalg import Multiplier
from .words import Word, shuffle


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

    def reversed(self) -> "PathSpec":
        return PathSpec(self.waypoints[::-1], self.margin)


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


@dataclass
class CoefficientTable:
    """Values of <S|w> at the path endpoint for all |w| <= truncation."""

    values: dict
    z0: complex
    z: complex
    truncation: int
    error_estimates: dict = field(default_factory=dict)

    def __getitem__(self, w) -> complex:
        return self.values[Word(w)]

    def get(self, w, default=None):
        return self.values.get(Word(w), default)

    def __contains__(self, w):
        return Word(w) in self.values

    def words(self) -> list[Word]:
        return sorted(self.values)


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


def eval_coeffs(
    M: Multiplier,
    path: PathSpec,
    N: int,
    tol: float,
    degree_cap=None,
) -> CoefficientTable:
    """Propagate the truncated coefficient system along the path by Taylor
    series.

    ``tol`` is the absolute error target per coefficient over the whole
    path; ``error_estimates[l]`` is the summed Cauchy bound on the series
    tails of length-l words.  The optional ``degree_cap`` restricts words
    to a multidegree box.
    """
    if not isinstance(N, int) or N < 0:
        raise TruncationError(f"truncation must be a nonnegative integer, got {N!r}")
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError("tol must be positive and finite")
    path.validate_against(M.pole_set.approx)

    word_list = M.alphabet.words_up_to(N, degree_cap)
    index = {w: j for j, w in enumerate(word_list)}
    # graded lex ascending: strata are contiguous, and so are the words of
    # one first letter inside a stratum.  blocks[l-1] lists, per first
    # letter of stratum l, (letter, lo, hi, tail positions in stratum l-1).
    starts = np.searchsorted([len(w) for w in word_list], np.arange(N + 2)).tolist()
    blocks = []
    for ln in range(1, N + 1):
        stratum = []
        for i in range(len(M.alphabet)):
            js = [j for j in range(starts[ln], starts[ln + 1]) if word_list[j][0] == i]
            if js:
                tails = [index[word_list[j][1:]] - starts[ln - 1] for j in js]
                stratum.append((i, js[0], js[-1] + 1, np.array(tails, dtype=np.intp)))
        if not stratum:
            break
        blocks.append(stratum)

    # per letter: principal-part terms (pole, order, coefficient) and the
    # polynomial part, as complex numbers
    us = [M.terms[i] for i in range(len(M.alphabet))]
    terms = [
        [(M.pole_set.approx[i], k, complex(c)) for (i, k), c in u.principal.items()]
        for u in us
    ]
    polys = [[complex(c) for c in u.poly] for u in us]
    poles = {p for ts in terms for p, _, _ in ts}
    y = np.zeros(len(word_list), dtype=complex)
    y[0] = 1.0
    est = np.zeros(N + 1)
    total_len = path.length()
    top = len(blocks)

    for a, b in path.segments():
        seg_len = abs(b - a)
        dhat = (b - a) / seg_len
        t = 0.0
        while t < seg_len:
            c = a + dhat * t
            h = min([seg_len - t] + [abs(c - p) / 4.0 for p in poles])
            # Cauchy bounds on the circle |s| = 2h: |u_i| <= U, |y_w| <= B_l.
            # Shrinking h until 2hU <= 1 keeps B_l near the values themselves
            # (U only falls as the circle shrinks, so 0.5/U is always enough).
            U = _max_on_circle(terms, polys, c, 2.0 * h)
            while 2.0 * h * U > 1.0:
                h = max(h / 2.0, 0.5 / U)
                U = _max_on_circle(terms, polys, c, 2.0 * h)
            if h < min(seg_len * 1e-14, seg_len - t):
                raise StepSizeUnderflowError(f"step size {h:.3g} underflows at {c}")
            H = dhat * h
            r = 2.0 * h
            B = [1.0]
            for ln in range(1, top + 1):
                lo, hi = starts[ln], starts[ln + 1]
                B.append(float(np.abs(y[lo:hi]).max()) + r * U * B[-1])
            # the sigma-scaled coefficients are bounded by B_l 2^-m, so K
            # terms leave a tail of at most B_l 2^(1-K)
            share = h / total_len
            ratio = max([1.0] + [Bl / (max(tol, 4.0 * _EPS * Bl) * share) for Bl in B[1:]])
            K = 1 + int(np.ceil(np.log2(ratio)))
            est[1 : top + 1] += np.array(B[1:]) * 2.0 ** (1 - K)

            # u_i(c + sigma H) H = sum_m A[i, m] sigma^m
            m = np.arange(K)
            A = np.zeros((len(terms), K), dtype=complex)
            for i, (ts, ps) in enumerate(zip(terms, polys)):
                for p, k, coef in ts:
                    d = c - p
                    binom = np.cumprod(np.r_[1.0, (k - 1 + m[1:]) / m[1:]])
                    A[i] += coef * d ** -k * binom * (-H / d) ** m
                if ps:
                    q = _shift_poly(ps, c)[:K]
                    A[i, : len(q)] += np.array(q) * H ** m[: len(q)]
            A *= H
            # J[i] maps a series of <S|w> to that of <S|x_i w> - <S|x_i w>(c):
            # the lower-Toeplitz product with A[i], integrated in sigma
            lag = m[:, None] - 1 - m[None, :]
            J = np.where(lag >= 0, A[:, np.maximum(lag, 0)], 0) / np.maximum(m, 1)[:, None]
            prev = np.eye(K, 1, dtype=complex)  # the series of <S|1> = 1
            for ln, stratum in enumerate(blocks, start=1):
                if ln == top:
                    for i, lo, hi, tails in stratum:
                        y[lo:hi] += J[i].sum(axis=0) @ prev[:, tails]
                    break
                lo0 = starts[ln]
                cur = np.empty((K, starts[ln + 1] - lo0), dtype=complex)
                for i, lo, hi, tails in stratum:
                    cur[:, lo - lo0 : hi - lo0] = J[i] @ prev[:, tails]
                cur[0] = y[lo0 : starts[ln + 1]]
                y[lo0 : starts[ln + 1]] = cur.sum(axis=0)
                prev = cur
            t = seg_len if h >= seg_len - t else t + h

    values = {w: complex(y[j]) for w, j in index.items()}  # y[0] = <S|1> = 1
    estimates = {ln: float(e) for ln, e in enumerate(est)}
    return CoefficientTable(values, path.z0, path.z, N, estimates)


def grouplike_report(T: CoefficientTable):
    """(max defect, worst pair) over pairs 1 <= |u|,|v|, |u|+|v| <= N of
    |<S|u><S|v> - <S|u shuffle v>|; (0.0, None) when no pair qualifies."""
    N = T.truncation
    words_pos = [w for w in T.words() if 1 <= len(w)]
    worst = 0.0
    worst_pair = None
    for u in words_pos:
        for v in words_pos:
            if len(u) + len(v) > N:
                continue
            lhs = T[u] * T[v]
            rhs = sum(n * T[w] for w, n in shuffle(u, v).items())
            defect = abs(lhs - rhs)
            if defect > worst:
                worst = defect
                worst_pair = (u, v)
    return worst, worst_pair


def grouplike_defect(T: CoefficientTable) -> float:
    return grouplike_report(T)[0]
