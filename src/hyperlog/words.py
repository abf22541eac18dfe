"""Alphabets, words over them, the graded lexicographic order, and the
shuffle / coshuffle combinatorics of the free monoid."""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator

from .ratfun import _Frozen


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


class Alphabet(_Frozen):
    """Ordered letters; list position is both the index and the letter order.

    Names are nonempty, not ``1`` and free of ``.``, whitespace and control
    characters, so that dot syntax spells every word one way.  Immutable."""

    __slots__ = ("letters", "_by_name")

    def __init__(self, names: Iterable[str]):
        names = list(names)
        if not names:
            raise ValueError("alphabet must be nonempty")
        names = [str(n) for n in names]
        if len(set(names)) != len(names):
            raise ValueError("letter names must be distinct")
        for n in names:
            if n in ("", "1") or "." in n or not n.isprintable() or any(c.isspace() for c in n):
                raise ValueError(
                    f"letter name {n!r} must be nonempty, not '1', and free of "
                    "'.', whitespace and control characters"
                )
        letters = tuple(Letter(i, n) for i, n in enumerate(names))
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "_by_name", MappingProxyType({l.name: l for l in letters}))

    def __reduce__(self):
        return Alphabet, ([l.name for l in self.letters],)

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

    def words_up_to(self, n: int) -> list[Word]:
        """All words of length <= n, graded lex ascending."""
        return graded_words(len(self.letters), n)


def graded_words(letters: int, n: int) -> list[Word]:
    """All words of length <= n over letter indices ``0 .. letters-1``, graded
    lex ascending.  This is bijective base-``letters`` numbering: w sits at
    ``graded_position(w, letters)``, and length l starts at
    ``graded_starts(letters, n)[l]``."""
    # product yields tuples of ints already; skip Word's per-letter int()
    return [
        tuple.__new__(Word, combo)
        for ln in range(n + 1)
        for combo in itertools.product(range(letters), repeat=ln)
    ]


def graded_position(w, letters: int) -> int:
    """Index of w in ``graded_words(letters, n)`` for every n >= |w|:
    sum_k (w_k + 1) letters^(|w|-1-k)."""
    code = 0
    for i in w:
        code = code * letters + i + 1
    return code


def graded_starts(letters: int, n: int) -> list[int]:
    """Index of the first word of each length 0..n in graded lex order,
    sum_(k<l) letters^k, then the number of words of length <= n."""
    starts = [0]
    for ln in range(n + 1):
        starts.append(starts[-1] + letters**ln)
    return starts


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
