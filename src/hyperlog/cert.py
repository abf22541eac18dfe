"""Linear-independence certification for the coefficient family of
d(S) = MS, and discovery plus exact verification of linear relations
when independence fails.

A combination sum_x alpha_x u_x has a primitive inside the pole-localized
field exactly when its simple-pole residues all vanish (higher-order
principal parts and polynomial parts always integrate rationally), so the
whole decision reduces to the exact nullspace of the residue matrix.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .chen import PathGeometryError, build_path, eval_coeffs
from .ncalg import Multiplier, NCPolynomial, pair, reduce as reduce_poly
from .ratfun import (
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    PoleLocalizedRational,
    PoleSetMismatchError,
    ResidueObstruction,
)
from .words import Word, graded_starts

# a numeric relation check passes below this defect, at this many endpoints
NUMERIC_TOL = 1e-8
FRESH_SAMPLES = 8
# the relation search samples max(MIN_SAMPLES, words) endpoints and keeps the
# right singular vectors below RELATION_TOL times the largest singular value
MIN_SAMPLES = 24
RELATION_TOL = 1e-8
# kernel entries snap to the closest Gaussian rationals of denominator at most
# SNAP_DENOMINATOR, which must lie within SNAP_DISTANCE; entries below
# SNAP_DISTANCE leave the support
SNAP_DENOMINATOR = 10**4
SNAP_DISTANCE = 1e-6


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
    NUMERIC = "NUMERIC"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass
class Relation:
    """A claimed kernel element Q with pair(S, Q) = 0, plus how strongly
    it has been checked.  ``defect`` is the worst numeric residual seen."""

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
    """Exact RREF over Q(i); returns (pivot columns, nullspace basis)."""
    mat = [list(r) for r in rows]
    pivots = []
    rank = 0
    for col in range(n_cols):
        sel = None
        for r in range(rank, len(mat)):
            if not mat[r][col].is_zero:
                sel = r
                break
        if sel is None:
            continue
        mat[rank], mat[sel] = mat[sel], mat[rank]
        inv = GR_ONE / mat[rank][col]
        mat[rank] = [inv * v for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and not mat[r][col].is_zero:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        pivots.append(col)
        rank += 1
    basis = []
    pivot_set = set(pivots)
    for free in range(n_cols):
        if free in pivot_set:
            continue
        vec = [GR_ZERO] * n_cols
        vec[free] = GR_ONE
        for r, pc in enumerate(pivots):
            vec[pc] = -mat[r][free]
        basis.append(vec)
    return pivots, basis


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
    alpha = tuple(basis[0])
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
    regular-at-z0 solution; always exactly verifiable."""
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
    Q = NCPolynomial(terms)
    return verify_relation(Q, M, z0, rational_coefficient_table(M, z0, 0))


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


def verify_relation(
    Q: NCPolynomial,
    M: Multiplier,
    z0,
    table: RationalCoefficientTable,
    *,
    seed: int = 1,
    eval_tol: float = 1e-12,
    margin: float = 0.05,
) -> Relation:
    """Check pair(S, Q) = 0 via the reduction: d<S|Q> = <S|D(Q)>, so Q is
    a relation iff <S|D(Q)> is identically zero and <S|Q> vanishes at z0.

    When every word of supp(D(Q)) has an exact entry the check is exact;
    otherwise it falls back to the numeric defect at sample endpoints.
    Returns Q as a Relation with that status and defect.
    """
    z0 = GaussianRational.of(z0)
    D = reduce_poly(Q, M)
    if all(w in table.entries for w in D.terms):
        value = pair(table.entries, D)
        if isinstance(value, int):
            value = PoleLocalizedRational.constant(M.pole_set, value)
        const = Q.coeff(Word(), None)
        const_ok = const is None or const.evaluate_exact(z0).is_zero
        if value.is_zero and const_ok:
            return Relation(Q, RelationStatus.EXACT)
        return Relation(Q, RelationStatus.INCONCLUSIVE)
    defect = numeric_relation_defect(Q, M, z0, seed=seed, eval_tol=eval_tol, margin=margin)
    if defect <= NUMERIC_TOL:
        return Relation(Q, RelationStatus.NUMERIC, defect)
    return Relation(Q, RelationStatus.INCONCLUSIVE, defect)


def _sample_points(M: Multiplier, z0c: complex, count: int, margin: float, seed: int):
    """Deterministic endpoints clear of the poles, stratified for spread:
    clusters near each pole (where the coefficient functions are farthest
    from low-degree polynomials), a mid annulus around the basepoint, and
    a far field.  Spread keeps the evaluation matrix well conditioned when
    the family is actually independent."""
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


def _canonical_nullspace_basis(B: np.ndarray) -> list:
    """Float RREF of the near-null row space, pivoting on the last column
    (columns are words in graded lex order) still available.

    SVD returns an arbitrary unitary basis of a multi-dimensional kernel;
    reduced echelon form restores the sparse representatives with each
    vector monic at its greatest support word, so rationalization can
    succeed vector by vector.
    """
    B = np.array(B, dtype=complex)
    done = 0
    for col in reversed(range(B.shape[1])):
        if done >= len(B):
            break
        block = np.abs(B[done:, col])
        pivot = done + int(np.argmax(block))
        scale = float(np.abs(B[done:]).max())
        if scale == 0.0 or abs(B[pivot, col]) < 1e-6 * scale:
            continue
        B[[done, pivot]] = B[[pivot, done]]
        B[done] = B[done] / B[done, col]
        for r in range(len(B)):
            if r != done:
                B[r] = B[r] - B[r, col] * B[done]
        done += 1
    return [B[r] for r in range(done)]


def _snap_gaussian(zc: complex):
    """The closest Gaussian rational whose parts have denominators at most
    SNAP_DENOMINATOR, if its parts lie within SNAP_DISTANCE of zc's; else None."""
    parts = (zc.real, zc.imag)
    snapped = [Fraction(x).limit_denominator(SNAP_DENOMINATOR) for x in parts]
    if all(abs(float(q) - x) <= SNAP_DISTANCE for q, x in zip(snapped, parts)):
        return GaussianRational(*snapped)
    return None


def relation_samples(n_words: int) -> int:
    """The sample endpoints of the relation search over ``n_words`` words."""
    return max(MIN_SAMPLES, n_words)


def discover_relations(
    M: Multiplier,
    z0,
    N: int,
    *,
    eval_tol: float = 1e-12,
    margin: float = 0.05,
    seed: int = 0,
) -> list[Relation]:
    """Numeric kernel search over the constant-coefficient ansatz on words
    of length <= N, followed by exact (or numeric) verification.

    A family that ``certify`` finds free has no constant-coefficient
    relation, so it is answered ``[]`` without sampling.  Otherwise,
    near-null right singular vectors (singular value below RELATION_TOL
    times the largest) are normalized monic at their greatest word and
    snapped to Gaussian rationals; a vector with an entry that does not
    snap is no candidate.  Each candidate keeps the status
    ``verify_relation`` gives it, and those that fail are dropped.
    """
    if certify(M).is_independent:
        return []
    z0 = GaussianRational.of(z0)
    samples = relation_samples(graded_starts(len(M.alphabet), N)[-1])
    A, word_list = sample_matrix(M, z0, N, samples, eval_tol=eval_tol, margin=margin, seed=seed)
    _, sing, Vh = np.linalg.svd(A)  # sing[0] > 0: the empty word's column is all ones
    null_rows = [np.conj(Vh[j]) for j in range(len(sing)) if sing[j] <= RELATION_TOL * sing[0]]
    if not null_rows:
        return []
    table = rational_coefficient_table(M, z0, N)
    ps = M.pole_set
    fresh = dict(seed=seed + 1, eval_tol=eval_tol, margin=margin)  # checks use new endpoints
    relations = []
    for v in _canonical_nullspace_basis(null_rows):
        v = v / np.max(np.abs(v))
        support = [i for i in range(len(v)) if abs(v[i]) > SNAP_DISTANCE]
        if not support:
            continue
        lead = support[-1]
        if len(word_list[lead]) == 0:
            continue  # a constant alone cannot pair to zero since <S|1> = 1
        v = v / v[lead]
        snapped = {word_list[i]: _snap_gaussian(complex(v[i])) for i in support}
        if None in snapped.values():
            continue  # a coefficient that does not snap: no candidate
        Q = NCPolynomial({w: PoleLocalizedRational.constant(ps, g) for w, g in snapped.items()})
        if any(Q == rel.poly for rel in relations):
            continue
        rel = verify_relation(Q, M, z0, table, **fresh)
        if rel.status is RelationStatus.INCONCLUSIVE:
            continue
        if rel.defect is None:
            rel.defect = numeric_relation_defect(Q, M, z0, **fresh)
        relations.append(rel)
    relations.sort(key=lambda rel: sorted(rel.poly.terms))
    return relations
