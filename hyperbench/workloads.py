"""Workloads of the hyperlog benchmark: input generation from a seed, the
timed task, and the oracle check that runs outside the timed region.

Every workload hands the program only the inputs generated here.  Tasks
come in cycles: a cycle holds one task of every stratum (config, endpoint
kind, pole), in an order the seed draws, and a run always ends on a whole
cycle, so every run weighs the strata alike whatever the seed.
"""

from __future__ import annotations

import cmath
import io
import math
import os
import random
from contextlib import redirect_stderr
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import oracles

RELATIONS_SAMPLES = 24  # the bundled configs' sample count
RELATIONS_WORDS = 7  # words of length <= 2 over two letters
RELATION_DEFECT_TOL = 1e-8  # the bundled configs' relation_tol
EVAL_TOL = 1e-12  # the bundled configs' tol


@dataclass
class Outcome:
    """Oracle verdict on one task, with what the metrics count from it."""

    ok: bool
    coeffs: int = 0
    err_over_tol: float = 0.0
    output_bytes: int = 0
    note: str = ""


def _cli_main(argv):
    """Run the CLI in-process; returns the exit code and what it wrote to
    standard error."""
    from hyperlog import cli

    sink = io.StringIO()
    with redirect_stderr(sink):
        rc = cli.main(argv)
    return rc, sink.getvalue()


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _shuffled_strata(seed, strata):
    """Endless cycles, each every stratum once in a seeded order, with the
    generator that draws the rest of the cycle's inputs."""
    rng = random.Random(seed)
    while True:
        order = list(strata)
        rng.shuffle(order)
        yield order, rng


# ----- reference kernels --------------------------------------------------------
#
# On a shared 2-core VM the same code ran up to 1.8x slower in spells of
# seconds to minutes.  Each workload names a fixed kernel of the
# kind of work its tasks spend their time in (Python fractions for the exact
# layers, small complex-vector steps for the integrator); the runner times it
# between tasks and scales task time by it, so that a slow spell slows the
# kernel and the tasks alike and cancels out.  The kernels use no hyperlog
# code, so a change to the program cannot move them.


def fraction_reference():
    total = Fraction(0)
    for i in range(1, 1000):
        total += Fraction(1, i) * Fraction(i + 1, i + 2)
    return total


_VECTOR_RNG = np.random.default_rng(0)
_VECTOR_X = _VECTOR_RNG.standard_normal(2047) + 1j * _VECTOR_RNG.standard_normal(2047)
_VECTOR_GATHER = _VECTOR_RNG.permutation(2047)


def vector_reference():
    y = _VECTOR_X.copy()
    for _ in range(800):
        y = y * (0.999 + 0.001j) + _VECTOR_X[_VECTOR_GATHER] * 1e-3
    return y


# ----- relations --------------------------------------------------------------

# Each block pairs a basepoint whose sample paths are slow (they graze the
# double poles) with one whose paths are fast, and runs both configs at both
# basepoints, so that blocks differ less in cost than single tasks do.
RELATION_BLOCKS = (("2", "i"), ("-3", "1/2"), ("-1", "1+i"), ("-1/2", "-1+i"))


@dataclass(frozen=True)
class RelationsTask:
    config: str
    z0: str
    sampling_seed: int

    @property
    def stratum(self):
        return self.config, self.z0


class Relations:
    name = "relations"
    TRACE_CYCLES = 1  # one block: both configs at two basepoints
    reference = staticmethod(vector_reference)
    REFERENCE_S = 0.0125  # scaled times are times where the kernel takes this

    def __init__(self, root, workdir):
        self.configs = {
            "dependent": os.path.join(root, "configs", "counterexample.yaml"),
            "independent": os.path.join(root, "configs", "polylog.yaml"),
        }
        self.out = os.path.join(workdir, "relations.txt")

    def setup(self):
        from hyperlog import cli

        for path in self.configs.values():
            cli.load_config(path)

    def warmup_task(self):
        return RelationsTask("independent", "1/2", 0)

    def cycles(self, seed):
        for blocks, rng in _shuffled_strata(seed, RELATION_BLOCKS):
            for block in blocks:
                pair = list(block)
                rng.shuffle(pair)
                yield [
                    RelationsTask(kind, z0, rng.randrange(1 << 16))
                    for z0 in pair
                    for kind in ("dependent", "independent")
                ]

    def prepare(self, task):
        return task

    def run(self, task):
        return _cli_main(
            [
                "relations",
                f"--config={self.configs[task.config]}",
                f"--z0={task.z0}",
                "--N=2",
                f"--seed={task.sampling_seed}",
                f"--output={self.out}",
            ]
        )

    def check(self, task, _prepared, result):
        rc, err = result
        if rc != 0:
            return Outcome(False, note=f"exit {rc}: {err.strip()}")
        text = _read(self.out)
        lines = text.strip().splitlines()
        coeffs = RELATIONS_SAMPLES * RELATIONS_WORDS
        if task.config == "independent":
            ok = lines == ["no relations found"]
            return Outcome(ok, coeffs, 0.0, len(text), "" if ok else f"got {lines!r}")
        if len(lines) != 1:
            return Outcome(False, note=f"want one relation, got {lines!r}")
        poly_txt, status, defect_txt = lines[0].split("\t")
        want = oracles.expected_double_pole_relation(oracles.parse_gq(task.z0))
        got = oracles.parse_relation(poly_txt)
        err = float(defect_txt) / RELATION_DEFECT_TOL
        ok = status == "EXACT" and got == want and err <= 1.0
        return Outcome(ok, coeffs, err, len(text), "" if ok else f"got {lines[0]!r}")


# ----- eval-deep --------------------------------------------------------------

THREE_LETTER_CONFIG = """\
# generated by the benchmark: three Fuchsian letters
poles: ["0", "1", "-1"]
letters:
  - {name: x0, pole: "0", weight: "1"}
  - {name: x1, pole: "1", weight: "-1"}
  - {name: x2, pole: "-1", weight: "1"}
basepoint: "1/2*i"
tol: 1.0e-12
margin: 0.05
"""

MARGIN = 0.05


@dataclass(frozen=True)
class EvalGeometry:
    """What the oracle needs to know about a config, kept outside the
    program: letters as (pole, weight), the basepoint and truncation."""

    path: str
    N: int
    z0: complex
    letters: tuple

    @property
    def poles(self):
        return tuple(p for p, _ in self.letters)


@dataclass(frozen=True)
class EvalTask:
    geometry: EvalGeometry
    kind: str
    pole: complex | None  # the pole a detour or near-pole endpoint is about
    z: complex

    @property
    def stratum(self):
        return self.geometry.path, self.kind, self.pole


def _point_text(z):
    return f"{z.real!r},{z.imag!r}"


def _segment_distance(a, b, p):
    d = b - a
    t = ((p - a).real * d.real + (p - a).imag * d.imag) / abs(d) ** 2
    t = min(1.0, max(0.0, t))
    return abs(p - (a + t * d))


class EvalDeep:
    name = "eval-deep"
    TRACE_CYCLES = 2  # every stratum twice
    reference = staticmethod(vector_reference)
    REFERENCE_S = 0.0125  # scaled times are times where the kernel takes this

    def __init__(self, root, workdir):
        three_path = os.path.join(workdir, "three-letter.yaml")
        self.geometries = (
            EvalGeometry(
                os.path.join(root, "configs", "polylog.yaml"), 10, -1 + 0j,
                ((0j, 1), (1 + 0j, -1)),
            ),
            EvalGeometry(three_path, 6, 0.5j, ((0j, 1), (1 + 0j, -1), (-1 + 0j, 1))),
        )
        self.out = os.path.join(workdir, "eval.tsv")
        self.gl_out = os.path.join(workdir, "grouplike.txt")

    def setup(self):
        from hyperlog import cli

        with open(self.geometries[1].path, "w", encoding="utf-8") as fh:
            fh.write(THREE_LETTER_CONFIG)
        for g in self.geometries:
            cli.load_config(g.path)

    def warmup_task(self):
        return EvalTask(self.geometries[1], "straight", None, 0.5 + 0.25j)

    def _endpoint(self, g, kind, pole, rng):
        """A valid endpoint of the given kind (detours and near-pole
        endpoints are about ``pole``); the program's own path builder
        filters out the rare draw it cannot route."""
        from hyperlog.chen import PathGeometryError, build_path

        while True:
            if kind == "straight":
                z = g.z0 + rng.uniform(0.9, 1.1) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
                if any(_segment_distance(g.z0, z, p) < 3 * MARGIN for p in g.poles):
                    continue
            elif kind == "detour":
                d = (pole - g.z0) / abs(pole - g.z0)
                z = pole + d * rng.uniform(0.4, 0.6) + 1j * d * rng.uniform(-0.02, 0.02)
            else:
                # on the basepoint's side of the pole, so that the path reaches
                # it without a detour
                toward_z0 = cmath.phase(g.z0 - pole)
                angle = toward_z0 + rng.uniform(-math.pi / 2, math.pi / 2)
                z = pole + rng.uniform(2.0, 6.0) * MARGIN * cmath.exp(1j * angle)
            if any(abs(z - q) <= 2 * MARGIN for q in g.poles):
                continue
            try:
                path = build_path(g.z0, z, g.poles, MARGIN)
            except PathGeometryError:
                continue
            if kind == "detour" and len(path.waypoints) < 3:
                continue
            return z

    def cycles(self, seed):
        # One stratum per config, kind and pole, with narrow draws inside a
        # stratum: which pole a path meets, how far it runs and how close it
        # comes set its cost, and a run of about four cycles cannot average
        # out a wide spread of costs.
        strata = [
            (g, kind, pole)
            for g in self.geometries
            for kind, poles in (("straight", (None,)), ("detour", g.poles), ("near-pole", g.poles))
            for pole in poles
        ]
        for order, rng in _shuffled_strata(seed, strata):
            yield [EvalTask(g, kind, pole, self._endpoint(g, kind, pole, rng)) for g, kind, pole in order]

    def prepare(self, task):
        return task

    def run(self, task):
        g = task.geometry
        common = [f"--config={g.path}", f"--z={_point_text(task.z)}"]
        rc_eval, err = _cli_main(["eval", *common, f"--N={g.N}", f"--output={self.out}"])
        if rc_eval != 0:
            return rc_eval, None, err
        rc_gl, err = _cli_main(["grouplike", *common, "--N=5", f"--output={self.gl_out}"])
        return rc_eval, rc_gl, err

    def check(self, task, _prepared, result):
        from hyperlog.chen import build_path

        rc_eval, rc_gl, err = result
        if rc_eval != 0 or rc_gl != 0:
            return Outcome(False, note=f"exit eval={rc_eval} grouplike={rc_gl}: {err.strip()}")
        g = task.geometry
        text = _read(self.out)
        rows = {}
        for line in text.splitlines():
            word, re_t, im_t, _ = line.split("\t")
            rows[word] = complex(float(re_t), float(im_t))
        n_words = sum(len(g.letters) ** n for n in range(g.N + 1))
        if len(rows) != n_words:
            return Outcome(False, note=f"{len(rows)} rows, want {n_words}")
        waypoints = build_path(g.z0, task.z, g.poles, MARGIN).waypoints
        worst = 0.0
        for i, (pole, weight) in enumerate(g.letters):
            closed = oracles.power_word_values(waypoints, pole, weight, g.N)
            for n, want in enumerate(closed, start=1):
                got = rows[".".join([f"x{i}"] * n)]
                worst = max(worst, abs(got - want) / EVAL_TOL)
        size = len(text) + os.path.getsize(self.gl_out)
        ok = worst <= 1.0
        return Outcome(ok, n_words, worst, size, "" if ok else f"x^n error {worst:.3g} tol")


# ----- exact -------------------------------------------------------------------

SMALL = tuple(Fraction(n, d) for n in range(-2, 3) for d in (1, 2) if d == 1 or n % 2)


def _small_gq(rng, nonzero=False):
    while True:
        z = (rng.choice(SMALL), rng.choice(SMALL))
        if not nonzero or z != (0, 0):
            return z


@dataclass(frozen=True)
class ExactTask:
    poles: tuple  # (re, im) pairs
    letters: tuple  # per letter: (poly coefficients, ((pole, order), coefficient) pairs)
    z0: tuple
    P: tuple  # ((word, coefficient), ...)
    Q: tuple

    stratum = "exact"  # independent draws from one distribution


class Exact:
    name = "exact"
    TABLE_DEPTH = 4
    TRACE_CYCLES = 1000  # a cycle is one task
    reference = staticmethod(fraction_reference)
    REFERENCE_S = 0.009  # scaled times are times where the kernel takes this

    def __init__(self, root, workdir):
        pass

    def setup(self):
        """Nothing to load: every task builds its own multiplier."""

    def warmup_task(self):
        return next(self.cycles(0))[0]

    def _task(self, rng):
        n_poles = rng.randint(1, 3)
        poles = []
        while len(poles) < n_poles:
            p = _small_gq(rng)
            if p not in poles:
                poles.append(p)
        n_letters = rng.randint(2, 3)
        letters = []
        for _ in range(n_letters):
            poly = [_small_gq(rng, True) for _ in range(rng.choice((0, 1, 2)))]
            order = rng.randint(1, 3)
            pp = {}
            for i in range(n_poles):
                if rng.random() < 0.6:
                    for k in range(1, order + 1):
                        if rng.random() < 0.7:
                            pp[(i, k)] = _small_gq(rng, True)
            if not pp and not poly:
                pp[(rng.randrange(n_poles), 1)] = _small_gq(rng, True)
            letters.append((tuple(poly), tuple(sorted(pp.items()))))
        while True:
            z0 = _small_gq(rng)
            if z0 not in poles:
                break

        def ncpoly():
            terms = {}
            for _ in range(rng.randint(2, 4)):
                w = tuple(rng.randrange(n_letters) for _ in range(rng.randint(0, 4)))
                terms[w] = _small_gq(rng, True)
            return tuple(terms.items())

        return ExactTask(tuple(poles), tuple(letters), z0, ncpoly(), ncpoly())

    def cycles(self, seed):
        """Independent random tasks, so a cycle is a single task."""
        rng = random.Random(seed)
        while True:
            yield [self._task(rng)]

    @staticmethod
    def prepare(task):
        """Program objects for a task, built outside the timed region."""
        from hyperlog import Alphabet, GaussianRational, Multiplier, NCPolynomial
        from hyperlog import PoleLocalizedRational, PoleSet, Word

        def gr(z):
            return GaussianRational(z[0], z[1])

        ps = PoleSet([gr(p) for p in task.poles])
        alphabet = Alphabet([f"x{i}" for i in range(len(task.letters))])
        terms = {
            i: PoleLocalizedRational(ps, [gr(c) for c in poly], {ik: gr(c) for ik, c in pp})
            for i, (poly, pp) in enumerate(task.letters)
        }
        M = Multiplier(alphabet, ps, terms)
        P = NCPolynomial({Word(w): gr(c) for w, c in task.P})
        Q = NCPolynomial({Word(w): gr(c) for w, c in task.Q})
        return M, gr(task.z0), P, Q

    def run(self, built):
        from hyperlog import cert, ncalg

        M, z0, P, Q = built
        verdict = cert.certify(M)
        relation = None
        if not verdict.is_independent:
            relation = cert.witness_to_degree1_relation(verdict, M, z0)
        table = cert.rational_coefficient_table(M, z0, self.TABLE_DEPTH)
        product = ncalg.shuffle_product(P, Q)
        return verdict, relation, table, product

    def check(self, task, built, result):
        from hyperlog import PoleLocalizedRational

        M, _, _, _ = built
        verdict, relation, table, product = result
        n_letters = len(task.letters)
        residues = np.array(
            [
                [complex(*map(float, dict(pp).get((i, 1), (0, 0)))) for _, pp in task.letters]
                for i in range(len(task.poles))
            ]
        )
        rank = int(np.linalg.matrix_rank(residues))
        if verdict.is_independent:
            if rank != n_letters:
                return Outcome(False, note=f"INDEPENDENT but residue rank {rank} < {n_letters}")
        else:
            combo = PoleLocalizedRational.zero(M.pole_set)
            for i, a in enumerate(verdict.alpha):
                combo = combo + M.terms[i] * a
            if rank == n_letters:
                return Outcome(False, note="DEPENDENT but residue matrix has full rank")
            if all(a.is_zero for a in verdict.alpha) or verdict.witness_f.derivative() != combo:
                return Outcome(False, note="witness f fails d(f) = sum alpha_x u_x")
            if relation.status.value != "EXACT":
                return Outcome(False, note=f"degree-1 relation came back {relation.status.value}")
        got = (Fraction(0), Fraction(0))
        for c in product.terms.values():
            got = (got[0] + c.re, got[1] + c.im)
        if got != oracles.shuffle_coefficient_sum(dict(task.P), dict(task.Q)):
            return Outcome(False, note="shuffle coefficient sum mismatch")
        return Outcome(True, len(table.entries))


WORKLOADS = {w.name: w for w in (Relations, EvalDeep, Exact)}
