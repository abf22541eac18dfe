import copy
import math
import pickle
import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperlog import (
    Alphabet,
    EMPTY_WORD,
    Word,
    coshuffle,
    graded_lex_compare,
    multi_degree,
    partial_degree,
    shuffle,
)
from hyperlog.words import graded_position, graded_starts


def brute_interleavings(u, v):
    """Independent oracle: recursive enumeration of all interleavings."""
    if not u:
        return [tuple(v)]
    if not v:
        return [tuple(u)]
    return [(u[0],) + rest for rest in brute_interleavings(u[1:], v)] + [
        (v[0],) + rest for rest in brute_interleavings(u, v[1:])
    ]


words = st.lists(st.integers(0, 2), max_size=5).map(Word)


def brute_shuffle(u, v):
    out = {}
    for w in brute_interleavings(tuple(u), tuple(v)):
        out[Word(w)] = out.get(Word(w), 0) + 1
    return out


class TestOrdering:
    def test_single_letters(self):
        assert graded_lex_compare(Word((0,)), Word((1,))) == -1

    def test_length_dominates(self):
        assert graded_lex_compare(Word((1, 1)), Word((0, 0, 0))) == -1

    def test_first_differing_letter(self):
        assert graded_lex_compare(Word((0, 1)), Word((1, 0))) == -1

    def test_equal(self):
        assert graded_lex_compare(Word((0, 1)), Word((0, 1))) == 0

    def test_word_comparisons_match_compare(self):
        a = Alphabet(["a", "b", "c"])
        words = a.words_up_to(3)
        rng = random.Random(7)
        for _ in range(300):
            u, v = rng.choice(words), rng.choice(words)
            c = graded_lex_compare(u, v)
            assert (u < v) == (c == -1)
            assert (u == v) == (c == 0)

    def test_total_order_on_short_words(self):
        a = Alphabet(["a", "b"])
        words = a.words_up_to(4)
        for u in words:
            for v in words:
                c = graded_lex_compare(u, v)
                assert c == -graded_lex_compare(v, u)
                if u == v:
                    assert c == 0
        # transitivity via sortedness of the enumeration order
        assert words == sorted(words)

    @pytest.mark.parametrize("letters", [1, 2, 3])
    def test_positions_follow_words_up_to(self, letters):
        # graded lex order is bijective base-L numbering
        for n in range(5):
            words = Alphabet([f"x{i}" for i in range(letters)]).words_up_to(n)
            assert [graded_position(w, letters) for w in words] == list(range(len(words)))
            starts = graded_starts(letters, n)
            assert starts[-1] == len(words)
            assert [words[i] for i in starts[:-1]] == [Word((0,) * ln) for ln in range(n + 1)]

    def test_rejects_foreign_words(self):
        a = Alphabet(["a", "b"])
        with pytest.raises(ValueError):
            graded_lex_compare(Word((0,)), Word((5,)), a)


class TestShuffle:
    def test_two_distinct_letters(self):
        assert shuffle(Word((0,)), Word((1,))) == {Word((0, 1)): 1, Word((1, 0)): 1}

    def test_repeated_letter(self):
        assert shuffle(Word((0,)), Word((0,))) == {Word((0, 0)): 2}

    def test_letter_against_pair(self):
        # oracle: brute-force enumeration of all 3 interleavings
        u, v = Word((0,)), Word((0, 1))
        expected = brute_shuffle(u, v)
        assert expected == {Word((0, 0, 1)): 2, Word((0, 1, 0)): 1}
        assert shuffle(u, v) == expected

    def test_empty_word_is_unit(self):
        w = Word((1, 0, 1))
        assert shuffle(EMPTY_WORD, w) == {w: 1}
        assert shuffle(w, EMPTY_WORD) == {w: 1}

    def test_matches_brute_force_on_random_pairs(self):
        rng = random.Random(11)
        for _ in range(60):
            u = Word(rng.randrange(3) for _ in range(rng.randint(0, 4)))
            v = Word(rng.randrange(3) for _ in range(rng.randint(0, 4)))
            assert shuffle(u, v) == brute_shuffle(u, v)

    @given(words, words)
    def test_commutative_and_binomial_sum(self, u, v):
        # grouplike_report checks each unordered pair once on this symmetry
        sh = shuffle(u, v)
        assert sh == shuffle(v, u)
        assert sum(sh.values()) == math.comb(len(u) + len(v), len(u))

    def test_associative(self):
        rng = random.Random(17)

        def shuffle_poly(terms, w):
            out = {}
            for word, c in terms.items():
                for ww, n in shuffle(word, w).items():
                    out[ww] = out.get(ww, 0) + c * n
            return out

        for _ in range(60):
            u, v, w = (
                Word(rng.randrange(3) for _ in range(rng.randint(0, 3)))
                for _ in range(3)
            )
            left = shuffle_poly(shuffle(u, v), w)
            right = shuffle_poly(shuffle(v, w), u)
            assert left == right


class TestCoshuffle:
    def test_unit(self):
        assert coshuffle(EMPTY_WORD) == {(EMPTY_WORD, EMPTY_WORD): 1}

    def test_letter_is_primitive(self):
        x = Word((0,))
        assert coshuffle(x) == {(x, EMPTY_WORD): 1, (EMPTY_WORD, x): 1}

    def test_two_letter_word(self):
        # oracle: apply the recursion Delta(xu) = (x (x) 1 + 1 (x) x) Delta(u) twice
        w = Word((0, 1))
        assert coshuffle(w) == {
            (Word((0, 1)), EMPTY_WORD): 1,
            (Word((0,)), Word((1,))): 1,
            (Word((1,)), Word((0,))): 1,
            (EMPTY_WORD, Word((0, 1))): 1,
        }

    def test_duality_with_shuffle(self):
        rng = random.Random(19)
        for _ in range(60):
            u = Word(rng.randrange(3) for _ in range(rng.randint(0, 3)))
            v = Word(rng.randrange(3) for _ in range(rng.randint(0, 2)))
            sh = shuffle(u, v)
            for w, coeff in sh.items():
                assert coshuffle(w).get((u, v), 0) == coeff


class TestDegrees:
    def test_count(self):
        assert partial_degree(Word((0, 1, 0)), 0) == 2

    def test_empty(self):
        assert partial_degree(EMPTY_WORD, 0) == 0

    def test_absent(self):
        assert partial_degree(Word((1, 1)), 0) == 0

    def test_multi_degree_total(self):
        w = Word((0, 1, 0, 2))
        md = multi_degree(w)
        assert sum(md.values()) == len(w)
        assert md[0] == 2 and md[1] == 1 and md[2] == 1

    def test_concat_additivity(self):
        rng = random.Random(23)
        for _ in range(100):
            u = Word(rng.randrange(3) for _ in range(rng.randint(0, 5)))
            v = Word(rng.randrange(3) for _ in range(rng.randint(0, 5)))
            got = multi_degree(u + v)
            want = multi_degree(u) + multi_degree(v)
            assert got == want


class TestAlphabet:
    def test_parse_format_round_trip(self):
        a = Alphabet(["x0", "x1"])
        for text in ["1", "x0", "x0.x1.x0", "x1.x1"]:
            assert a.format_word(a.word(text)) == text

    def test_unknown_letter(self):
        a = Alphabet(["x0"])
        with pytest.raises(ValueError):
            a.word("x0.z9")

    def test_distinct_names_required(self):
        with pytest.raises(ValueError):
            Alphabet(["a", "a"])

    def test_nonempty_required(self):
        with pytest.raises(ValueError):
            Alphabet([])

    @pytest.mark.parametrize("name", ["", "1", 1, "x.0", "a\tb", "a b", "a\0b", "a\nb", "\x1b", "a\u2028b"])
    def test_name_that_spells_ambiguously_rejected(self, name):
        with pytest.raises(ValueError, match="letter name"):
            Alphabet(["x0", name])

    def test_immutable(self):
        # a config's alphabet is shared by every load of the same text
        a = Alphabet(["x0", "x1"])
        for name in ("letters", "_by_name", "other"):
            with pytest.raises(FrozenInstanceError):
                setattr(a, name, ())
        with pytest.raises(FrozenInstanceError):
            delattr(a, "letters")
        with pytest.raises(TypeError):
            a._by_name["x2"] = a[0]
        for b in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
            assert b == a and b.word("x1.x0") == a.word("x1.x0")

    def test_non_ascii_names(self):
        a = Alphabet(["ω0", "ω1"])
        assert a.format_word(a.word("ω1.ω0")) == "ω1.ω0"

    def test_words_up_to_counts_and_order(self):
        a = Alphabet(["a", "b", "c"])
        words = a.words_up_to(3)
        assert len(words) == 1 + 3 + 9 + 27
        assert words == sorted(words)
