import random
from fractions import Fraction

import pytest
from hypothesis import settings

from hyperlog import (
    Alphabet,
    GaussianRational,
    Multiplier,
    PoleLocalizedRational,
    PoleSet,
)

# Property tests replay the same examples on every run and never fail on
# wall-clock time, so tier-1 stays deterministic on a slow or busy machine.
settings.register_profile("deterministic", deadline=None, derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def alphabet01():
    return Alphabet(["x0", "x1"])


@pytest.fixture(scope="session")
def poles01():
    return PoleSet(["0", "1"])


@pytest.fixture(scope="session")
def polylog_multiplier(alphabet01, poles01):
    """u0 = 1/z, u1 = 1/(1-z) = -1/(z-1)."""
    return Multiplier.fuchsian(alphabet01, poles01, {0: (0, 1), 1: (1, -1)})


@pytest.fixture(scope="session")
def counterexample_multiplier(alphabet01, poles01):
    """u0 = 1/z^2, u1 = 1/(1-z)^2 = 1/(z-1)^2."""
    return Multiplier(
        alphabet01,
        poles01,
        {
            0: PoleLocalizedRational.pole_term(poles01, 0, 2, 1),
            1: PoleLocalizedRational.pole_term(poles01, 1, 2, 1),
        },
    )


def random_gaussian(rng: random.Random, span: int = 4) -> GaussianRational:
    def frac():
        return Fraction(rng.randint(-span, span), rng.randint(1, span))

    return GaussianRational(frac(), frac())


def random_plr(rng: random.Random, pole_set: PoleSet) -> PoleLocalizedRational:
    """Random element: polynomial degree <= 3, principal orders <= 3."""
    poly = [random_gaussian(rng) if rng.random() < 0.6 else GaussianRational() for _ in range(rng.randint(0, 4))]
    pp = {}
    for i in range(len(pole_set)):
        for k in range(1, 4):
            if rng.random() < 0.35:
                pp[(i, k)] = random_gaussian(rng)
    return PoleLocalizedRational(pole_set, poly, pp)


def random_pole_set(rng: random.Random, max_poles: int = 3) -> PoleSet:
    pts = []
    while len(pts) < rng.randint(1, max_poles):
        p = random_gaussian(rng, span=3)
        if p not in pts:
            pts.append(p)
    return PoleSet(pts)
