import hashlib
import random
from fractions import Fraction

import pytest

from hyperlog import cert
from hyperlog import (
    Alphabet,
    Dependent,
    GaussianRational,
    Multiplier,
    NCPolynomial,
    PoleLocalizedRational,
    PoleSet,
    PoleSetMismatchError,
    RelationStatus,
    Word,
    certify,
    discover_relations,
    format_plr,
    numeric_relation_defect,
    normal_form_table,
    pair,
    parse_gaussian,
    rational_coefficient_table,
    reduce,
    residue_matrix,
    shuffle_product,
    verify_relation,
    witness_to_degree1_relation,
)

from conftest import random_gaussian, random_plr, random_pole_set
from test_exact_workload import HYPERBENCH, load_workloads

PLR = PoleLocalizedRational
E = Word()
X0 = Word((0,))
X1 = Word((1,))


def expected_counterexample_relation(poles, z0: Fraction) -> NCPolynomial:
    """Coefficients of the depth-2 relation as functions of the basepoint:
    Q = x1x0 + x0x1 + (1 - 1/z0) x1 + (z0/(1-z0)) x0."""
    c1 = 1 - Fraction(1) / z0
    c0 = z0 / (1 - z0)
    return NCPolynomial(
        {
            Word((1, 0)): PLR.one(poles),
            Word((0, 1)): PLR.one(poles),
            X1: PLR.constant(poles, c1),
            X0: PLR.constant(poles, c0),
        }
    )


class TestResidueMatrix:
    def test_polylog(self, polylog_multiplier):
        R = residue_matrix(polylog_multiplier)
        assert R == [
            [GaussianRational(1), GaussianRational(0)],
            [GaussianRational(0), GaussianRational(-1)],
        ]

    def test_counterexample_all_zero(self, counterexample_multiplier):
        R = residue_matrix(counterexample_multiplier)
        assert all(c.is_zero for row in R for c in row)

    def test_poleless_term_gives_zero_column(self, poles01):
        a = Alphabet(["x0"])
        M = Multiplier(a, poles01, {0: PLR.from_poly(poles01, [0, 1])})
        R = residue_matrix(M)
        assert all(c.is_zero for row in R for c in row)


class TestCertify:
    def test_polylog_independent(self, polylog_multiplier):
        v = certify(polylog_multiplier)
        assert v.is_independent
        assert v.pivots == (0, 1)

    def test_counterexample_dependent(self, counterexample_multiplier, poles01):
        v = certify(counterexample_multiplier)
        assert not v.is_independent
        assert v.alpha == (GaussianRational(1), GaussianRational(0))
        assert v.witness_f == PLR.pole_term(poles01, 0, 1, -1)  # -1/z
        # soundness: d(f) = sum alpha_x u_x, here just u0
        assert v.witness_f.derivative() == counterexample_multiplier.terms[0]

    def test_zero_weight_letter_dependent(self, poles01):
        a = Alphabet(["x0"])
        M = Multiplier(a, poles01, {0: PLR.zero(poles01)})
        v = certify(M)
        assert not v.is_independent
        assert v.alpha == (GaussianRational(1),)
        assert v.witness_f.is_zero

    def test_single_simple_pole_independent(self, poles01):
        a = Alphabet(["x0"])
        M = Multiplier(a, poles01, {0: PLR.simple_pole(poles01, 0)})
        assert certify(M).is_independent

    def test_shared_pole_is_dependent(self, poles01):
        # two letters with kernels proportional at one pole
        a = Alphabet(["x0", "x1"])
        M = Multiplier.fuchsian(a, poles01, {0: (0, 2), 1: (0, 3)})
        v = certify(M)
        assert not v.is_independent
        combo = PLR.zero(poles01)
        for letter in a:
            combo = combo + M.terms[letter.index] * v.alpha[letter.index]
        assert v.witness_f.derivative() == combo

    def test_random_fuchsian_independent(self):
        rng = random.Random(99)
        for _ in range(10):
            n = rng.randint(1, 5)
            pts = []
            while len(pts) < n:
                q = GaussianRational(
                    Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                    Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                )
                if q not in pts:
                    pts.append(q)
            ps = PoleSet(pts)
            a = Alphabet([f"x{i}" for i in range(n)])
            weights = {}
            for i in range(n):
                w = GaussianRational(0)
                while w.is_zero:
                    w = GaussianRational(
                        Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                        Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                    )
                weights[i] = (i, w)
            M = Multiplier.fuchsian(a, ps, weights)
            assert certify(M).is_independent


class TestWitnessRelation:
    def test_counterexample_degree1(self, counterexample_multiplier, poles01):
        v = certify(counterexample_multiplier)
        rel = witness_to_degree1_relation(v, counterexample_multiplier, -1)
        assert rel.status is RelationStatus.EXACT
        # Q = (f(z0) - f)·1 + x0 with f = -1/z, f(-1) = 1
        expected_const = PLR(poles01, (1,), {(0, 1): 1})  # 1 + 1/z
        assert rel.poly.coeff(E) == expected_const
        assert rel.poly.coeff(X0) == PLR.one(poles01)
        assert X1 not in rel.poly.terms
        # numeric spot check: <S|x0> = 1/z0 - 1/z
        defect = numeric_relation_defect(rel.poly, counterexample_multiplier, -1)
        assert defect < 1e-9

    def test_second_nullspace_direction(self, counterexample_multiplier, poles01):
        # alpha = (0, 1): f = 1/(1-z) - analogue for x1
        M = counterexample_multiplier
        alpha = (GaussianRational(0), GaussianRational(1))
        f = M.terms[1].rational_primitive()
        v = Dependent(alpha=alpha, witness_f=f)
        rel = witness_to_degree1_relation(v, M, -1)
        assert rel.status is RelationStatus.EXACT

    def test_fuchsian_precondition(self, polylog_multiplier):
        v = certify(polylog_multiplier)
        with pytest.raises(ValueError):
            witness_to_degree1_relation(v, polylog_multiplier, -1)


class TestRationalCoefficientTable:
    def test_counterexample_depth2(self, counterexample_multiplier, poles01):
        tab = rational_coefficient_table(counterexample_multiplier, -1, 2)
        # <S|x0> = 1/z0 - 1/z = -1 - 1/z at z0 = -1
        assert tab.entries[X0] == PLR(poles01, (-1,), {(0, 1): -1})
        assert tab.entries[X1] == PLR(poles01, (Fraction(-1, 2),), {(1, 1): -1})
        assert set(tab.blocked) == {Word((0, 1)), Word((1, 0))}
        assert set(tab.entries) == {E, X0, X1, Word((0, 0)), Word((1, 1))}
        # invariant: d(entries[x_i v]) = u_i entries[v], entries vanish at z0
        M = counterexample_multiplier
        z0 = GaussianRational(-1)
        for w, F in tab.entries.items():
            if not w:
                continue
            tail = tab.entries[Word(w[1:])]
            assert F.derivative() == M.terms[w[0]] * tail
            assert F.evaluate_exact(z0).is_zero

    def test_polylog_blocks_immediately(self, polylog_multiplier):
        tab = rational_coefficient_table(polylog_multiplier, -1, 2)
        assert set(tab.entries) == {E}
        assert set(tab.blocked) == {X0, X1}

    def test_basepoint_at_pole_rejected(self, counterexample_multiplier):
        with pytest.raises(ValueError):
            rational_coefficient_table(counterexample_multiplier, 0, 1)

    def test_bad_depth_rejected(self, counterexample_multiplier):
        for N in (-3, -1, 2.5, True, "2", None):
            with pytest.raises(ValueError, match="table depth"):
                rational_coefficient_table(counterexample_multiplier, -1, N)
        assert set(rational_coefficient_table(counterexample_multiplier, -1, 0).entries) == {E}

    def test_invariants_on_seeded_exact_tasks(self, monkeypatch):
        """On 60 tasks of the benchmark's exact generator at depth 4, every
        entry integrates its step, d(entries[x v]) = u_x entries[v], and
        vanishes at z0; every blocked word's step has a nonzero residue; and
        every step from an entry below depth 4 is either taken or blocked."""
        exact = load_workloads(monkeypatch).Exact(str(HYPERBENCH.parent), None)
        cycles = exact.cycles(2)
        for _ in range(60):
            (task,) = next(cycles)
            M, z0, _, _ = exact.prepare(task)
            tab = rational_coefficient_table(M, z0, 4)
            for w, F in tab.entries.items():
                if w:
                    assert F.derivative() == M.terms[w[0]] * tab.entries[Word(w[1:])]
                    assert F.evaluate_exact(z0) == 0
            for w in tab.blocked:
                step = M.terms[w[0]] * tab.entries[Word(w[1:])]
                assert any(step.residue(i) for i in range(len(M.pole_set)))
            for v in tab.entries:
                steps = {Word((x.index,)) + v for x in M.alphabet}
                assert len(v) == 4 or steps <= tab.entries.keys() | tab.blocked
            assert all(len(w) <= 4 for w in (*tab.entries, *tab.blocked))

    MIXED_Z0 = GaussianRational(-1, Fraction(1, 2))

    @staticmethod
    def mixed_multiplier():
        """Polynomial parts of degree 0-2 and principal orders 1-3 at three
        poles, one non-real.  x1 is a multiple of x0 = f', so every word over
        {x0, x1} has an entry; a product with x2 or x3 keeps a residue."""
        ps = PoleSet(["0", "1", "1/2+i"])
        u0 = PLR(ps, (-2, GaussianRational(1, -1), 1), {(0, 2): -1, (1, 3): 1, (2, 3): -2})
        return Multiplier(
            Alphabet(["x0", "x1", "x2", "x3"]),
            ps,
            {
                0: u0,
                1: u0.scale(GaussianRational(Fraction(1, 2), -1)),
                2: PLR(ps, (0, -1), {(0, 3): GaussianRational(0, 1), (2, 1): 1}),
                3: PLR(ps, (Fraction(1, 3),), {(1, 1): 1}),
            },
        )

    @pytest.mark.parametrize(
        "case, digest",
        [
            ("mixed", "43138c738532b81fb9ef9234c4addc070e9aed10f121536a51b7ba2cd8ce4216"),
            ("counterexample", "f9489db8dd351987e3a15feb44e0b2a3ef1638a983e022560d69f891202ddebf"),
        ],
        ids=["mixed", "counterexample"],
    )
    def test_depth4_text_forms_pinned(self, case, digest, counterexample_multiplier):
        """The exact text of every depth-4 entry and the blocked set, hashed;
        a rewrite of the product or of the scalars must leave it unchanged."""
        if case == "mixed":
            M, z0 = self.mixed_multiplier(), self.MIXED_Z0
        else:
            M, z0 = counterexample_multiplier, GaussianRational(-1)
        assert self.text_form_digest(rational_coefficient_table(M, z0, 4), M) == digest

    def test_depth6_text_forms_pinned(self):
        """The mixed multiplier to depth 6: products of principal orders up
        to 18 at three poles, one non-real."""
        M = self.mixed_multiplier()
        tab = rational_coefficient_table(M, self.MIXED_Z0, 6)
        assert (len(tab.entries), len(tab.blocked)) == (127, 126)
        assert self.text_form_digest(tab, M) == (
            "d3d48942fa00bc38bf3e29455c0fdf003f165823bc84c1db2a1bff423fffccf4")

    @staticmethod
    def text_form_digest(tab, M):
        fmt = M.alphabet.format_word
        lines = sorted(f"{fmt(w)}\t{format_plr(F)}" for w, F in tab.entries.items())
        lines += sorted(f"blocked\t{fmt(w)}" for w in tab.blocked)
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def form_derivative(form, ps):
    """d(sum_v r_v L_v) = sum_v r_v' L_v + r_v L_(v_2...)/(z - a_(v_1))."""
    out = {}
    for v, r in form.items():
        parts = [(v, r.derivative())]
        if v:
            parts.append((v[1:], r * PLR.simple_pole(ps, v[0])))
        for key, f in parts:
            out[key] = out[key] + f if key in out else f
    return {v: f for v, f in out.items() if f}


class TestNormalFormTable:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_multipliers_match_table_and_derivative(self, seed):
        """Two oracles at depth 3: the forms without hyperlogarithms are the
        rational table's entries, their first extensions its blocked words,
        and each form differentiates to u_x times the form it extends."""
        rng = random.Random(seed)
        ps = random_pole_set(rng)
        a = Alphabet(["x0", "x1"])
        M = Multiplier(a, ps, {i: random_plr(rng, ps) for i in range(2)})
        z0 = random_gaussian(rng)
        while z0 in ps.points:
            z0 = random_gaussian(rng)
        forms = normal_form_table(M, z0, 3)
        tab = rational_coefficient_table(M, z0, 3)

        def rational(w):  # the form of w and of each of its suffixes lacks L_v, v != ()
            return all(set(forms[Word(w[k:])]) <= {()} for k in range(len(w) + 1))

        entries = {w: F.get((), PLR.zero(ps)) for w, F in forms.items() if rational(w)}
        blocked = {w for w in forms if w and rational(w[1:]) and not rational(w)}
        assert (entries, blocked) == (tab.entries, tab.blocked)
        for w, form in forms.items():
            if w:
                u = M.terms[w[0]]
                want = {v: f for v, r in forms[Word(w[1:])].items() if (f := u * r)}
                assert form_derivative(form, ps) == want, w

    def test_fuchsian_form_is_one_hyperlogarithm(self, polylog_multiplier):
        # u_x = c_x/(z - a_x): <S|x_1...x_n> = c_1...c_n L_(a_1...a_n), so every
        # form is one term, the forms are free and the kernel is empty
        M = polylog_multiplier
        forms = normal_form_table(M, "1/2", 5)
        assert len(forms) == 63
        for w, form in forms.items():
            weight = PLR.one(M.pole_set)
            for i in w:
                weight = weight * M.terms[i].residue(M.fuchsian_form[i][0])
            assert form == {tuple(M.fuchsian_form[i][0] for i in w): weight}

    def test_rejects_bad_depth_and_basepoint(self, counterexample_multiplier):
        with pytest.raises(ValueError):
            normal_form_table(counterexample_multiplier, -1, -1)
        with pytest.raises(ValueError):
            normal_form_table(counterexample_multiplier, 1, 2)


class TestVerifyRelation:
    def test_true_relation_exact(self, counterexample_multiplier, poles01):
        M = counterexample_multiplier
        Q = expected_counterexample_relation(poles01, Fraction(-1))
        out = verify_relation(Q, M, -1)
        assert out.status is RelationStatus.EXACT

    def test_non_relation_rejected(self, counterexample_multiplier):
        M = counterexample_multiplier
        Q = NCPolynomial({X0: PLR.one(M.pole_set)})
        out = verify_relation(Q, M, -1)
        assert out.status is RelationStatus.INCONCLUSIVE

    def test_constant_rejected(self, counterexample_multiplier):
        M = counterexample_multiplier
        Q = NCPolynomial({E: PLR.constant(M.pole_set, 5)})
        out = verify_relation(Q, M, -1)
        assert out.status is RelationStatus.INCONCLUSIVE

    def test_blocked_words_decided_by_the_form(self, counterexample_multiplier, poles01):
        # shuffle a true relation with x0: still a true relation, but its
        # reduction support hits the blocked words x0x1 / x1x0
        M = counterexample_multiplier
        R2 = expected_counterexample_relation(poles01, Fraction(-1))
        Q3 = shuffle_product(R2, NCPolynomial({X0: PLR.one(poles01)}))
        tab = rational_coefficient_table(M, -1, 3)
        assert not all(w in tab.entries for w in reduce(Q3, M).terms)
        out = verify_relation(Q3, M, -1)
        assert out.status is RelationStatus.EXACT
        assert out.defect is None
        # one more word is no longer a relation, which the form shows exactly
        out = verify_relation(Q3 + NCPolynomial({Word((0, 1, 0)): PLR.one(poles01)}), M, -1)
        assert out.status is RelationStatus.INCONCLUSIVE


def table_decision(Q, M, z0, tab):
    """Reference for verify_relation where supp D(Q) lies in the exact
    entries of ``tab``: <S|D(Q)> read off the entries, and <Q|1> at z0;
    None where D(Q) reaches a word the table lacks."""
    D = reduce(Q, M)
    if not D.terms.keys() <= tab.entries.keys():
        return None
    const = Q.coeff(E, None)
    holds = not pair(tab.entries, D) and (const is None or not const.evaluate_exact(z0))
    return RelationStatus.EXACT if holds else RelationStatus.INCONCLUSIVE


class TestVerifyRelationAgainstTable:
    """verify_relation decides on the normal form of D(Q) alone; where D(Q)
    stays in a rational table's entries, pairing against them decides too."""

    @staticmethod
    def dependent_tasks(monkeypatch, seed, n_tasks):
        exact = load_workloads(monkeypatch).Exact(str(HYPERBENCH.parent), None)
        cycles = exact.cycles(seed)
        for _ in range(n_tasks):
            (task,) = next(cycles)
            M, z0, _, _ = exact.prepare(task)
            verdict = certify(M)
            if not verdict.is_independent:
                yield M, z0, verdict

    @pytest.mark.parametrize("seed", [2, 5])
    def test_witness_relations(self, monkeypatch, seed):
        # the witness relation, and it plus 1 or plus x0, which are not relations
        count = 0
        for M, z0, verdict in self.dependent_tasks(monkeypatch, seed, 200):
            rel = witness_to_degree1_relation(verdict, M, z0)
            tab = rational_coefficient_table(M, z0, 1)
            one = PLR.one(M.pole_set)
            for Q, want in (
                (rel.poly, RelationStatus.EXACT),
                (rel.poly + NCPolynomial({E: one}), RelationStatus.INCONCLUSIVE),
                (rel.poly + NCPolynomial({X0: one}), RelationStatus.INCONCLUSIVE),
            ):
                assert table_decision(Q, M, z0, tab) is want
                assert verify_relation(Q, M, z0).status is want
            count += 1
        assert count > 100

    @pytest.mark.parametrize("seed", [2, 5])
    def test_random_polynomials_of_degree_three(self, monkeypatch, seed):
        # true relations R shuffle P, and them plus a random Q on two entries
        # (D(Q) stays in the entries, which are closed under suffixes), each
        # of degree <= 3; compared where D stays in the depth-3 table
        rng = random.Random(seed)
        decided = {RelationStatus.EXACT: 0, RelationStatus.INCONCLUSIVE: 0}
        for M, z0, verdict in self.dependent_tasks(monkeypatch, seed, 120):
            ps = M.pole_set
            tab = rational_coefficient_table(M, z0, 3)
            R = witness_to_degree1_relation(verdict, M, z0).poly
            P = NCPolynomial({w: PLR.constant(ps, random_gaussian(rng))
                              for w in rng.sample(M.alphabet.words_up_to(2), 2)})
            entries = sorted(tab.entries)
            noise_words = rng.sample(entries, min(2, len(entries)))
            noise = NCPolynomial({w: random_plr(rng, ps) for w in noise_words})
            for Q in (shuffle_product(R, P), shuffle_product(R, P) + noise, noise):
                want = table_decision(Q, M, z0, tab)
                if want is not None:
                    assert verify_relation(Q, M, z0).status is want
                    decided[want] += 1
        assert min(decided.values()) >= 10, decided

    def test_free_family_words_are_not_relations(self, polylog_multiplier):
        # polylog is free, so no word is a relation; for |w| >= 2 the form
        # of D(w) = u_(w_1) (w_2...) has no rational part, only hyperlogarithms
        M = polylog_multiplier
        for w in M.alphabet.words_up_to(3):
            if w:
                out = verify_relation(NCPolynomial({w: PLR.one(M.pole_set)}), M, "1/2")
                assert out.status is RelationStatus.INCONCLUSIVE, w

    def test_zero_polynomial_is_exact(self, counterexample_multiplier):
        out = verify_relation(NCPolynomial(), counterexample_multiplier, -1)
        assert out.status is RelationStatus.EXACT

    def test_rejects_foreign_coefficients(self, counterexample_multiplier):
        M = counterexample_multiplier
        with pytest.raises(PoleSetMismatchError):
            verify_relation(NCPolynomial({X0: PLR.one(PoleSet(["0", "2"]))}), M, -1)
        with pytest.raises(TypeError):
            verify_relation(NCPolynomial({X0: GaussianRational(1)}), M, -1)

    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_discovered_relations(self, counterexample_multiplier, N):
        # every relation found verifies; one more word breaks it, since no
        # <S|w> with w nonempty vanishes on the counterexample
        M = counterexample_multiplier
        rels = discover_relations(M, -1, N)
        assert len(rels) == {2: 1, 3: 5, 4: 16}[N]
        for rel in rels:
            assert verify_relation(rel.poly, M, -1).status is RelationStatus.EXACT
            extra = next(w for w in M.alphabet.words_up_to(N) if w and w not in rel.poly.terms)
            Q = rel.poly + NCPolynomial({extra: PLR.one(M.pole_set)})
            assert verify_relation(Q, M, -1).status is RelationStatus.INCONCLUSIVE


class TestDiscoverRelations:
    def test_counterexample_z0_minus_one(self, counterexample_multiplier, poles01):
        rels = discover_relations(counterexample_multiplier, -1, 2)
        assert len(rels) == 1
        assert rels[0].poly == expected_counterexample_relation(poles01, Fraction(-1))
        assert rels[0].status is RelationStatus.EXACT
        assert rels[0].defect < 1e-9

    def test_basepoint_parametric_family(self, counterexample_multiplier, poles01):
        rels = discover_relations(counterexample_multiplier, -3, 2)
        assert len(rels) == 1
        assert rels[0].poly == expected_counterexample_relation(poles01, Fraction(-3))
        assert rels[0].status is RelationStatus.EXACT

    def test_depth3_kernel_is_canonicalized(self, counterexample_multiplier, poles01):
        # the depth-3 kernel is multi-dimensional; its basis is the reduced
        # echelon one, each vector monic at its greatest word
        rels = discover_relations(counterexample_multiplier, -1, 3)
        assert len(rels) == 5
        depth2 = expected_counterexample_relation(poles01, Fraction(-1))
        assert any(r.poly == depth2 and r.status is RelationStatus.EXACT for r in rels)
        for r in rels:
            lead = max(r.poly.terms)
            assert r.poly.coeff(lead) == PLR.one(poles01)
            assert r.defect < 1e-9
            for c in r.poly.terms.values():
                assert all(q.re.denominator <= 64 and q.im.denominator <= 64
                           for q in c.poly)

    def test_polylog_finds_nothing(self, polylog_multiplier):
        assert discover_relations(polylog_multiplier, -1, 2) == []

    @pytest.mark.parametrize("N", range(7))
    def test_free_family_is_not_sampled(self, polylog_multiplier, monkeypatch, N):
        # the residue criterion answers a free family: no normal form is
        # built and no table is evaluated
        def no_table(*args, **kwargs):
            raise AssertionError("a free family must not be sampled")

        monkeypatch.setattr(cert, "eval_coeffs", no_table)
        monkeypatch.setattr(cert, "normal_form_table", no_table)
        assert discover_relations(polylog_multiplier, -1, N) == []

    @pytest.mark.parametrize(
        "z0, seed",
        [("-1", 0), ("-3", 0), ("-1+i", 0), ("-1/2", 0), ("3/2", 0), ("-1/2", 3)],
        ids=["-1", "-3", "-1+i", "-half", "three-halves", "-half-seed3"],
    )
    def test_depth4_counterexample(self, counterexample_multiplier, poles01, z0, seed):
        # the relations have Gaussian-rational coefficients (27/128 at -3,
        # 26/375*i at -1+i), so their count depends on neither z0 nor the seed
        z0 = parse_gaussian(z0)
        rels = discover_relations(counterexample_multiplier, z0, 4, seed=seed)
        assert len(rels) == 16
        assert all(r.status is RelationStatus.EXACT for r in rels)
        depth2 = expected_counterexample_relation(poles01, z0)
        assert any(r.poly == depth2 for r in rels)
        assert len({max(r.poly.terms) for r in rels}) == 16
        for r in rels:
            assert r.poly.coeff(max(r.poly.terms)) == PLR.one(poles01)
            assert r.defect < 1e-9

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("z0", ["-1", "1/2", "-1+i"])
    def test_counterexample_counts_through_depth6(self, counterexample_multiplier, z0, seed):
        # the kernel is exact at every depth: the rank, words - relations,
        # is (N+1)(N+2)/2, and each relation checks out at fresh endpoints
        for N, count in zip(range(2, 7), (1, 5, 16, 42, 99)):
            rels = discover_relations(counterexample_multiplier, parse_gaussian(z0), N, seed=seed)
            assert len(rels) == count, N
            assert 2 ** (N + 1) - 1 - count == (N + 1) * (N + 2) // 2
            assert all(r.status is RelationStatus.EXACT and r.defect < 1e-8 for r in rels)

    def test_truncation_zero(self, counterexample_multiplier):
        assert discover_relations(counterexample_multiplier, -1, 0) == []
