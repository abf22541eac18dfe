"""The per-process caches of structure that depends only on a call's
letters, truncation, series order or multiplier."""

import numpy as np
import pytest

from hyperlog import Alphabet, Multiplier, PoleSet, build_path, eval_coeffs, grouplike_report
from hyperlog import chen
from hyperlog.cache import CACHES, bounded_cache
from hyperlog.chen import CoefficientTable
from hyperlog.tsv import coefficient_tsv


def assert_within_budget():
    for c in CACHES:
        assert c.nbytes == sum(size for _, size in c.entries.values()) <= c.budget, c.__name__


def test_caches_stay_within_budget():
    poles = PoleSet(["0", "1", "-1"])
    path = build_path(0.5j, 0.5 + 0.25j, poles.approx, 0.05)
    for L in (1, 2, 3):
        alphabet = Alphabet([f"x{i}" for i in range(L)])
        names = [letter.name for letter in alphabet]
        M = Multiplier.fuchsian(alphabet, poles, {i: (i, 1 - 2 * (i % 2)) for i in range(L)})
        for N in range(8 if L < 3 else 7):
            T = eval_coeffs(M, path, N, 1e-12)
            grouplike_report(T)
            coefficient_tsv(T, names)
            assert_within_budget()
        # deeper group-like checks, whose shuffle codes outgrow their budget
        for N in range(8, {1: 19, 2: 13, 3: 10}[L]):
            coeffs = np.zeros(sum(L**k for k in range(N + 1)), complex)
            coeffs[0] = 1.0
            assert grouplike_report(CoefficientTable(coeffs, L, 0j, 1j, N)) == (0.0, None)
            assert_within_budget()
    assert {c.__name__ for c in CACHES} >= {
        "float_form", "_layout", "_series_tables", "_shuffle_codes", "_spelled"
    }
    assert len(chen._shuffle_codes.entries) < chen._shuffle_codes.misses


def test_bounded_cache_drops_the_least_recent():
    made = []

    @bounded_cache(4096)
    def block(n):
        made.append(n)
        return np.zeros(n)

    try:
        for n in (100, 200, 100, 150):  # 800, 1600 and 1200 bytes; 100 is reused
            assert len(block(n)) == n
        assert made == [100, 200, 150] and block.nbytes == 3600
        block(80)  # past the budget: 200, the least recent, goes
        assert list(block.entries) == [(100,), (150,), (80,)] and block.nbytes == 2640
        big = block(1000)  # larger than the budget: built, not kept
        assert len(big) == 1000 and (1000,) not in block.entries
        block(1000)
        assert made.count(1000) == 2 and block.misses == len(made)
        with pytest.raises(ValueError):
            block(100)[0] = 1.0  # shared results are read-only
    finally:
        CACHES.remove(block)
