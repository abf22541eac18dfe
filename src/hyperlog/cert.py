"""Linear-independence certification for the coefficient family of
d(S) = MS, and exact discovery and verification of linear relations
when independence fails.

A combination sum_x alpha_x u_x has a primitive inside the pole-localized
field exactly when its simple-pole residues all vanish (higher-order
principal parts and polynomial parts always integrate rationally), so the
whole decision reduces to the exact nullspace of the residue matrix.

Every coefficient has a unique normal form <S|w> = sum_v r_(w,v) L_v over
the hyperlogarithms L_v of the poles, which are free over the
pole-localized field, so a constant relation is exactly a Q(i)-kernel
vector of the coefficients of the r_(w,v), and a claimed relation Q with
pole-localized coefficients holds exactly when the normal form of its
reduction D(Q) is zero and <Q|1> vanishes at the basepoint.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .chen import PathGeometryError, build_path, eval_coeffs
from .ncalg import Multiplier, NCPolynomial, reduce as reduce_poly
from .ncalg import pair  # noqa: F401  (hyperbench/tracing.py wraps cert.pair)
from .ratfun import (
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    PoleLocalizedRational,
    PoleSetMismatchError,
    ResidueObstruction,
)
from .words import Word

# the number of fresh sample endpoints at which a relation's defect is read
FRESH_SAMPLES = 8


@dataclass(frozen=True)
class Independent:
    """The coefficient family is free: the residue matrix has full column
    rank, witnessed by the pivot columns."""

    residue_matrix: tuple
    pivots: tuple

    @property
    def is_independent(self) -> bool:
        return True


@dataclass(frozen=True)
class Dependent:
    """alpha (not all zero) and f with d(f) = sum_x alpha_x u_x exactly."""

    alpha: tuple
    witness_f: PoleLocalizedRational

    @property
    def is_independent(self) -> bool:
        return False


IndependenceVerdict = Independent | Dependent


class RelationStatus(enum.Enum):
    EXACT = "EXACT"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass
class Relation:
    """A claimed kernel element Q with pair(S, Q) = 0: ``EXACT`` when it is
    proved, ``INCONCLUSIVE`` when it is not a relation.  ``defect`` is the
    worst numeric residual seen, if one was read."""

    poly: NCPolynomial
    status: RelationStatus
    defect: float | None = None


@dataclass
class RationalCoefficientTable:
    """Exact closed forms of <S|w> (normalized to vanish at z0) for the
    words where the integration stays rational; the rest are blocked."""

    entries: dict
    blocked: set
    z0: GaussianRational
    truncation: int


def residue_matrix(M: Multiplier):
    """Rows indexed by poles, columns by letters: entry (i, x) is the
    residue of u_x at a_i."""
    n_poles = len(M.pole_set)
    return [
        [M.terms[letter.index].residue(i) for letter in M.alphabet]
        for i in range(n_poles)
    ]


def _nullspace(rows, n_cols):
    """Exact RREF over Q(i); returns (pivot columns, nullspace basis), each
    basis vector sparse as {column: nonzero entry}, one per free column.

    Rows are kept sparse, as {column: nonzero entry}: an update touches only
    the pivot row's nonzero columns, and a row that becomes zero is dropped.
    On a three-pole dependent multiplier at depth 4 (221 rows, 31 words) dense
    elimination took 0.83 s and this 0.03 s."""
    pending = [row for row in ({c: v for c, v in enumerate(r) if not v.is_zero} for r in rows) if row]
    reduced = []  # (pivot column, row monic there), in pivot order
    for col in range(n_cols):
        holders = [k for k, row in enumerate(pending) if col in row]
        if not holders:
            continue
        # the RREF is the same whichever row is the pivot; the sparsest one
        # fills in the fewest entries
        prow = pending.pop(min(holders, key=lambda k: len(pending[k])))
        inv = GR_ONE / prow[col]
        prow = {c: inv * v for c, v in prow.items()}
        for row in (*pending, *(r for _, r in reduced)):
            factor = row.get(col)
            if factor is None:
                continue
            for c, b in prow.items():
                v = row.get(c, GR_ZERO) - factor * b
                if v.is_zero:
                    del row[c]
                else:
                    row[c] = v
        pending = [row for row in pending if row]
        reduced.append((col, prow))
    pivots = [pc for pc, _ in reduced]
    pivot_set = set(pivots)
    # a reduced row holds its pivot and free columns only
    basis = {free: {free: GR_ONE} for free in range(n_cols) if free not in pivot_set}
    for pc, row in reduced:
        for c, v in row.items():
            if c != pc:
                basis[c][pc] = -v
    return pivots, list(basis.values())


def certify(M: Multiplier) -> IndependenceVerdict:
    """Decide freeness of (<S|w>)_w over the pole-localized field.

    Empty nullspace of the residue matrix certifies independence; any
    nullspace vector alpha yields a dependence witness f as the rational
    primitive of sum alpha_x u_x, which exists by construction.
    """
    R = residue_matrix(M)
    n_letters = len(M.alphabet)
    pivots, basis = _nullspace(R, n_letters)
    frozen = tuple(tuple(row) for row in R)
    if not basis:
        return Independent(residue_matrix=frozen, pivots=tuple(pivots))
    alpha = tuple(basis[0].get(c, GR_ZERO) for c in range(n_letters))
    combo = PoleLocalizedRational.zero(M.pole_set)
    for letter in M.alphabet:
        a = alpha[letter.index]
        if not a.is_zero:
            combo = combo + M.terms[letter.index] * a
    f = combo.rational_primitive()
    assert f.derivative() == combo, "witness must satisfy d(f) = sum alpha_x u_x"
    return Dependent(alpha=alpha, witness_f=f)


def witness_to_degree1_relation(
    verdict: Dependent, M: Multiplier, z0
) -> Relation:
    """Q = (f(z0) - f)·1 + sum_x alpha_x x, which pairs to zero against the
    regular-at-z0 solution; always exactly verifiable.  D(Q) = alpha·u - d(f)
    is zero, so :func:`verify_relation` reads only the depth-0 form."""
    if not isinstance(verdict, Dependent):
        raise ValueError("relation extraction needs a Dependent verdict")
    if verdict.witness_f.pole_set != M.pole_set:
        raise PoleSetMismatchError("verdict was produced for a different multiplier")
    z0 = GaussianRational.of(z0)
    f = verdict.witness_f
    f_at_z0 = f.evaluate_exact(z0)
    ps = M.pole_set
    terms = {Word(): PoleLocalizedRational.constant(ps, f_at_z0) - f}
    for letter in M.alphabet:
        a = verdict.alpha[letter.index]
        if not a.is_zero:
            terms[Word((letter.index,))] = PoleLocalizedRational.constant(ps, a)
    return verify_relation(NCPolynomial(terms), M, z0)


def rational_coefficient_table(M: Multiplier, z0, N: int) -> RationalCoefficientTable:
    """Breadth-first exact integration of the coefficient recursion
    d<S|x_i v> = u_i <S|v>: each entry is a rational closed form vanishing
    at z0; words whose step hits a residue obstruction are blocked and not
    extended."""
    if type(N) is not int or N < 0:
        raise ValueError(f"table depth must be an int >= 0, got {N!r}")
    z0 = GaussianRational.of(z0)
    if any(z0 == a for a in M.pole_set):
        raise ValueError("basepoint coincides with a pole")
    entries = {Word(): PoleLocalizedRational.one(M.pole_set)}
    blocked: set[Word] = set()
    frontier = [Word()]
    for _ in range(N):
        new_frontier = []
        for v in frontier:
            for letter in M.alphabet:
                w = Word((letter.index,)) + v
                g = M.terms[letter.index] * entries[v]
                try:
                    F = g.rational_primitive()
                except ResidueObstruction:
                    blocked.add(w)
                    continue
                entries[w] = F - F.evaluate_exact(z0)
                new_frontier.append(w)
        frontier = new_frontier
    return RationalCoefficientTable(
        entries=entries, blocked=blocked, z0=z0, truncation=N
    )


def _add(form: dict, v, r) -> None:
    """form[v] += r."""
    form[v] = form[v] + r if v in form else r


def _primitive_form(integrand: dict, ps, z0: GaussianRational) -> dict:
    """The normal form of the primitive vanishing at z0 of sum_v g_v L_v,
    for ``integrand`` = {v: g_v}.

    Each residue c/(z - a_j) of g_v integrates to c L_(j.v).  The
    residue-free rest, with rational primitive F, integrates by parts to
    F L_v - (the primitive of F/(z - a_(v_1)) L_(v_2...)), and to
    F - F(z0) at v = (); the longest words go first, so each v is
    integrated once, with every term it receives.
    """
    by_length = {}
    for v, g in integrand.items():
        by_length.setdefault(len(v), {})[v] = g
    form = {}
    for n in range(max(by_length, default=-1), -1, -1):
        for v, g in by_length.get(n, {}).items():
            for (j, k), c in g.principal.items():
                if k == 1:
                    _add(form, (j,) + v, PoleLocalizedRational.constant(ps, c))
            rest = {jk: c for jk, c in g.principal.items() if jk[1] > 1}
            F = PoleLocalizedRational(ps, g.poly, rest).rational_primitive()
            if not v:
                F = F - F.evaluate_exact(z0)
            elif F:
                F_over_pole = F * PoleLocalizedRational.simple_pole(ps, v[0])
                _add(by_length.setdefault(n - 1, {}), v[1:], -F_over_pole)
            _add(form, v, F)
    return {v: r for v, r in form.items() if r}


def normal_form_table(M: Multiplier, z0, N: int) -> dict:
    """{w: {v: r_(w,v)}} for every word w of length <= N: the normal form
    <S|w> = sum_v r_(w,v) L_v, with S normalized to 1 at z0.

    v runs over words of pole indices and L_v is the hyperlogarithm
    L_(j.v)(z) = integral from z0 to z of L_v(t) dt/(t - a_j), L_() = 1;
    the r_(w,v) are nonzero pole-localized rationals, built breadth-first
    from d<S|x.v> = u_x <S|v> by :func:`_primitive_form`.
    """
    if type(N) is not int or N < 0:
        raise ValueError(f"table depth must be an int >= 0, got {N!r}")
    z0 = GaussianRational.of(z0)
    if any(z0 == a for a in M.pole_set):
        raise ValueError("basepoint coincides with a pole")
    ps = M.pole_set
    forms = {Word(): {(): PoleLocalizedRational.one(ps)}}
    frontier = [Word()]
    for _ in range(N):
        new_frontier = []
        for tail in frontier:
            for letter in M.alphabet:
                u = M.terms[letter.index]
                w = Word((letter.index,)) + tail
                forms[w] = _primitive_form({v: u * r for v, r in forms[tail].items()}, ps, z0)
                new_frontier.append(w)
        frontier = new_frontier
    return forms


def verify_relation(Q: NCPolynomial, M: Multiplier, z0) -> Relation:
    """Decide pair(S, Q) = 0 exactly; returns Q as an ``EXACT`` Relation
    when it holds and an ``INCONCLUSIVE`` one when it does not.

    S is 1 at z0 and d<S|Q> = <S|D(Q)> for D = ``reduce_poly(Q, M)`` (Chen),
    so Q is a relation iff <Q|1> vanishes at z0 and sum_w <D|w> <S|w> is
    the zero normal form (:func:`normal_form_table` to the degree of D).
    The reduction only differentiates, where the form of Q itself would
    integrate every letter once more.
    """
    z0 = GaussianRational.of(z0)
    D = reduce_poly(Q, M)
    forms = normal_form_table(M, z0, 0 if D.is_zero else D.degree())
    const = Q.coeff(Word(), None)
    if const is not None and not const.evaluate_exact(z0).is_zero:
        return Relation(Q, RelationStatus.INCONCLUSIVE)
    total = {}
    for w, c in D.terms.items():
        for v, r in forms[w].items():
            _add(total, v, c * r)
    return Relation(Q, RelationStatus.INCONCLUSIVE if any(total.values()) else RelationStatus.EXACT)


def _sample_points(M: Multiplier, z0c: complex, count: int, margin: float, seed: int):
    """Deterministic endpoints clear of the poles, stratified for spread:
    clusters near each pole (where the coefficient functions are farthest
    from low-degree polynomials), a mid annulus around the basepoint, and
    a far field."""
    rng = np.random.default_rng(seed)
    poles = M.pole_set.approx
    scale = max(max((abs(a - z0c) for a in poles), default=1.0), 1.0)
    guard = max(2.0 * margin, 0.02 * scale)
    modes = []
    for p in poles:
        modes += [("pole", p), ("pole", p)]
    modes += [("mid", None), ("far", None)]
    points = []
    attempts = 0
    k = 0
    while len(points) < count:
        attempts += 1
        if attempts > 1000 * count:
            raise PathGeometryError("could not place sample endpoints clear of the poles")
        kind, p = modes[k % len(modes)]
        k += 1
        theta = rng.uniform(0.0, 2.0 * np.pi)
        if kind == "pole":
            d = guard * (1.05 + rng.uniform(0.0, 1.0) ** 3 * 6.0)
            zc = p + d * np.exp(1j * theta)
        elif kind == "mid":
            zc = z0c + rng.uniform(0.3, 1.2) * scale * np.exp(1j * theta)
        else:
            zc = z0c + rng.uniform(1.2, 2.5) * scale * np.exp(1j * theta)
        if all(abs(zc - a) > guard for a in poles) and abs(zc - z0c) > 1e-9:
            points.append(complex(zc))
    return points


def _endpoint_tables(
    M: Multiplier, z0, N: int, count: int, seed: int, eval_tol: float, margin: float
):
    """(endpoint, coefficient table to depth N) at each of ``count`` sample
    endpoints, along the path that ``build_path`` lays from z0."""
    z0c = complex(GaussianRational.of(z0))
    for zc in _sample_points(M, z0c, count, margin, seed):
        path = build_path(z0c, zc, M.pole_set.approx, margin)
        yield zc, eval_coeffs(M, path, N, eval_tol)


def sample_matrix(
    M: Multiplier,
    z0,
    N: int,
    sample_count: int,
    *,
    eval_tol: float = 1e-12,
    margin: float = 0.05,
    seed: int = 0,
):
    """Numeric evaluation matrix: rows are sample endpoints, columns the
    words of length <= N in graded lex order."""
    word_list = M.alphabet.words_up_to(N)
    A = np.zeros((sample_count, len(word_list)), dtype=complex)
    tables = _endpoint_tables(M, z0, N, sample_count, seed, eval_tol, margin)
    for r, (_, T) in enumerate(tables):
        A[r, :] = T.coeffs
    return A, word_list


def numeric_relation_defect(
    Q: NCPolynomial,
    M: Multiplier,
    z0,
    *,
    seed: int = 1,
    eval_tol: float = 1e-12,
    margin: float = 0.05,
) -> float:
    """max over FRESH_SAMPLES sample endpoints of |sum_w <Q|w>(z) <S|w>(z)|."""
    deg = 0 if Q.is_zero else Q.degree()
    worst = 0.0
    for zc, T in _endpoint_tables(M, z0, deg, FRESH_SAMPLES, seed, eval_tol, margin):
        total = 0j
        for w, c in Q.terms.items():
            total += c.evaluate(zc) * T[w]
        worst = max(worst, abs(total))
    return worst


def discover_relations(
    M: Multiplier,
    z0,
    N: int,
    *,
    eval_tol: float = 1e-12,
    margin: float = 0.05,
    seed: int = 0,
) -> list[Relation]:
    """Every constant-coefficient relation on words of length <= N, as the
    reduced echelon basis of the exact kernel, each vector monic at its
    greatest word; all are ``EXACT``.

    A family that ``certify`` finds free has none, and is answered ``[]``.
    Otherwise the kernel is that of the matrix whose rows are the (v,
    polynomial degree or (pole, order)) coefficients of the normal forms
    and whose columns are the words.  Each relation's ``defect`` is
    max |sum_w alpha_w <S|w>| over FRESH_SAMPLES endpoints of seed + 1.
    """
    if certify(M).is_independent:
        return []
    forms = normal_form_table(M, z0, N)
    word_list = M.alphabet.words_up_to(N)
    rows = {}
    for col, w in enumerate(word_list):
        for v, r in forms[w].items():
            for key, c in (*enumerate(r.poly), *r.principal.items()):
                rows.setdefault((v, key), [GR_ZERO] * len(word_list))[col] = c
    _, basis = _nullspace(rows.values(), len(word_list))
    if not basis:
        return []
    A, _ = sample_matrix(M, z0, N, FRESH_SAMPLES, eval_tol=eval_tol, margin=margin, seed=seed + 1)
    kernel = np.zeros((len(basis), len(word_list)), dtype=complex)
    for k, alpha in enumerate(basis):
        for col, a in alpha.items():
            kernel[k, col] = complex(a)
    defects = np.abs(A @ kernel.T).max(axis=0)
    ps = M.pole_set
    relations = []
    for alpha, defect in zip(basis, defects.tolist()):
        Q = NCPolynomial(
            {word_list[c]: PoleLocalizedRational.constant(ps, a) for c, a in sorted(alpha.items())}
        )
        relations.append(Relation(Q, RelationStatus.EXACT, defect))
    relations.sort(key=lambda rel: sorted(rel.poly.terms))
    return relations
