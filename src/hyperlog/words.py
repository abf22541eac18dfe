"""Alphabets, words over them, the graded lexicographic order, and the
shuffle / coshuffle combinatorics of the free monoid."""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator


@dataclass(frozen=True)
class Letter:
    index: int
    name: str


class Word(tuple):
    """Finite sequence of letter indices; the empty word is the unit.

    Comparison operators implement the graded lexicographic order
    (shorter first, then letter order = index order), so ``sorted`` on
    words is the order used for leading monomials.
    """

    __slots__ = ()

    def __new__(cls, indices: Iterable[int] = ()):
        return super().__new__(cls, (int(i) for i in indices))

    def __add__(self, other):
        return Word(tuple.__add__(self, Word(other)))

    def __lt__(self, other):
        return graded_lex_key(self) < graded_lex_key(other)

    def __le__(self, other):
        return graded_lex_key(self) <= graded_lex_key(other)

    def __gt__(self, other):
        return graded_lex_key(self) > graded_lex_key(other)

    def __ge__(self, other):
        return graded_lex_key(self) >= graded_lex_key(other)

    def __repr__(self):
        return "Word(%r)" % (tuple(self),)


EMPTY_WORD = Word()


class Alphabet:
    """Ordered letters; list position is both the index and the letter order."""

    def __init__(self, names: Iterable[str]):
        names = list(names)
        if not names:
            raise ValueError("alphabet must be nonempty")
        if len(set(names)) != len(names):
            raise ValueError("letter names must be distinct")
        self.letters = tuple(Letter(i, str(n)) for i, n in enumerate(names))
        self._by_name = {l.name: l for l in self.letters}

    def __len__(self):
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __getitem__(self, i) -> Letter:
        return self.letters[i]

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.letters == other.letters

    def __repr__(self):
        return "Alphabet([%s])" % ", ".join(l.name for l in self.letters)

    def letter(self, name: str) -> Letter:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no letter named {name!r}") from None

    def contains_word(self, w: Word) -> bool:
        return all(0 <= i < len(self.letters) for i in w)

    def word(self, text: str) -> Word:
        """Parse dot syntax: `x0.x1.x0`; the empty word is spelled `1`."""
        text = text.strip()
        if text == "1":
            return EMPTY_WORD
        try:
            return Word(self._by_name[part].index for part in text.split("."))
        except KeyError as exc:
            raise ValueError(f"unknown letter in word {text!r}: {exc}") from None

    def format_word(self, w: Word) -> str:
        if not w:
            return "1"
        return ".".join(self.letters[i].name for i in w)

    def words_of_length(self, n: int) -> Iterator[Word]:
        """Length-n words in ascending (graded) lex order."""
        for combo in itertools.product(range(len(self.letters)), repeat=n):
            yield Word(combo)

    def words_up_to(self, n: int, degree_cap=None) -> list[Word]:
        """All words of length <= n, graded lex ascending; ``degree_cap``
        (letter index -> max count) keeps only words inside that multidegree."""
        out = []
        for ln in range(n + 1):
            for w in self.words_of_length(ln):
                if degree_cap is not None:
                    counts = Counter(w)
                    if any(counts[i] > degree_cap.get(i, 0) for i in counts):
                        continue
                out.append(w)
        return out


def graded_lex_key(w: Word):
    return (len(w), tuple(w))


def graded_lex_compare(u: Word, v: Word, alphabet: Alphabet | None = None) -> int:
    """-1, 0, or +1 for u before / equal to / after v in graded lex order."""
    if alphabet is not None:
        for w in (u, v):
            if not alphabet.contains_word(Word(w)):
                raise ValueError(f"word {tuple(w)} not over alphabet {alphabet!r}")
    ku, kv = graded_lex_key(u), graded_lex_key(v)
    return (ku > kv) - (ku < kv)


MultiDegree = Counter


def partial_degree(w: Word, letter) -> int:
    """Number of occurrences of the letter in w."""
    idx = letter.index if isinstance(letter, Letter) else int(letter)
    return sum(1 for i in w if i == idx)


def multi_degree(w: Word) -> MultiDegree:
    return Counter(w)


def shuffle(u, v) -> dict[Word, int]:
    """Shuffle product u ⧢ v: all interleavings preserving internal order,
    as a word -> multiplicity map.

    The coefficient of w counts the position subsets of w carrying u with
    the complement carrying v, so the coefficients sum to C(|u|+|v|, |u|).
    Built from the suffix recursion au ⧢ bv = a(u ⧢ bv) + b(au ⧢ v): row i
    of the table holds u[i:] ⧢ v[j:] for every j, computed from row i + 1.
    """
    u, v = tuple(Word(u)), tuple(Word(v))
    row = [{v[j:]: 1} for j in range(len(v) + 1)]
    for i in range(len(u) - 1, -1, -1):
        a = u[i : i + 1]
        below, row = row, [None] * len(v) + [{u[i:]: 1}]
        for j in range(len(v) - 1, -1, -1):
            acc = {a + w: n for w, n in below[j].items()}
            b = v[j : j + 1]
            for w, n in row[j + 1].items():
                acc[b + w] = acc.get(b + w, 0) + n
            row[j] = acc
    # letters were coerced to int on entry; skip Word's per-letter int()
    return {tuple.__new__(Word, w): n for w, n in row[0].items()}


def coshuffle(w) -> dict[tuple[Word, Word], int]:
    """Coproduct dual to the shuffle: sum of (subword, complement) pairs
    over all position subsets, with multiplicities collected."""
    w = Word(w)
    out: dict[tuple[Word, Word], int] = {}
    for r in range(len(w) + 1):
        for positions in itertools.combinations(range(len(w)), r):
            chosen = set(positions)
            left = Word(w[i] for i in positions)
            right = Word(w[i] for i in range(len(w)) if i not in chosen)
            key = (left, right)
            out[key] = out.get(key, 0) + 1
    return out
