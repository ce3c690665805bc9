"""Binary words over {A, B} and the two quadratic Parry morphism families.

A morphism is determined by parameters (p, q) and a family tag:

    simple       A -> A^p B,   B -> A^q        with p >= q >= 1
    non-simple   A -> A^p B,   B -> A^q B      with p >  q >= 1

Each such morphism fixes a unique infinite word obtained by iterating on
the letter A.  This module provides morphism validation and application,
Parikh-vector accounting through the 2x2 incidence matrix, and
generation of prefixes of the fixed point and of its two extremal
companion words (the B-poorest word v and the B-richest word w) by
iterating the morphism.  Nothing is cached between calls.

All arithmetic is exact (Python ints).  Words are plain ASCII strings over
"A"/"B"; CPython stores those at one byte per letter, which keeps long
prefixes compact and makes windowed scans cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

A = "A"
B = "B"
_LETTERS = frozenset((A, B))

#: Ceiling on generated prefix lengths, in letters.  Requests beyond this
#: raise CapExceededError instead of attempting the allocation.
GENERATION_CAP = 1 << 28

#: Word targets accepted by word_prefix.
UBETA = "ubeta"
W = "w"
V = "v"
_TARGETS = (UBETA, W, V)


class Family(str, Enum):
    """Which of the two quadratic Parry morphism families a morphism is in."""

    SIMPLE = "simple"
    NONSIMPLE = "nonsimple"


class CapExceededError(RuntimeError):
    """A word-prefix request exceeded the configured generation cap."""


class UnsupportedConstructionError(ValueError):
    """The simple family with q = 1 admits no v/w construction."""


class ParikhVector(NamedTuple):
    """Letter counts (|w|_A, |w|_B) of a finite word."""

    count_a: int
    count_b: int


@dataclass(frozen=True)
class Morphism:
    """A validated (p, q, family) triple.

    Instances are immutable, hashable, and safe to share across threads;
    they key the per-morphism caches used throughout the package.
    """

    p: int
    q: int
    family: Family

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", Family(self.family))
        for name, value in (("p", self.p), ("q", self.q)):
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if self.family is Family.SIMPLE and self.p < self.q:
            raise ValueError(
                f"simple family requires p >= q, violated by p={self.p} < q={self.q}")
        if self.family is Family.NONSIMPLE and self.p <= self.q:
            raise ValueError(
                f"non-simple family requires p > q, violated by p={self.p} <= q={self.q}")

    @property
    def image_a(self) -> str:
        return A * self.p + B

    @property
    def image_b(self) -> str:
        return A * self.q + (B if self.family is Family.NONSIMPLE else "")


def make_morphism(p: int, q: int, family: Family | str) -> Morphism:
    """Validate and build a morphism.

    Raises ValueError naming the violated constraint (values below 1,
    simple with p < q, non-simple with p <= q).
    """
    return Morphism(p, q, Family(family))


# --- Parikh accounting -------------------------------------------------------

def _check_word(word: str) -> None:
    if not isinstance(word, str):
        raise TypeError(f"expected a word as str, got {type(word).__name__}")
    # two C-level counts; the set of stray letters is built only for the message
    if word.count(A) + word.count(B) != len(word):
        stray = set(word) - _LETTERS
        raise ValueError(f"word contains letters outside {{A, B}}: {sorted(stray)}")


def parikh(word: str) -> ParikhVector:
    """Exact letter counts (|w|_A, |w|_B)."""
    _check_word(word)
    return ParikhVector(word.count(A), word.count(B))


def parikh_image(m: Morphism, pv: tuple[int, int]) -> ParikhVector:
    """Parikh vector of the image of a word: the row vector times the incidence matrix."""
    a, b = pv
    if m.family is Family.NONSIMPLE:
        return ParikhVector(a * m.p + b * m.q, a + b)
    return ParikhVector(a * m.p + b * m.q, a)


def _image(m: Morphism, word: str, head: str = "") -> str:
    """head + phi(word), for a head without A's.

    Three replace passes beat str.translate by about 2x on long words.  The
    lowercase b marks the source B's so that the A pass leaves them alone,
    and the head joins the short source rather than its long image.
    """
    return (head + word.replace(B, "b")).replace(A, m.image_a).replace("b", m.image_b)


def apply(m: Morphism, word: str) -> str:
    """Image of a finite word: the concatenation of its letter images."""
    _check_word(word)
    return _image(m, word)


# --- word generation -----------------------------------------------------------

def _iterate(m: Morphism, head: str, start: str, length: int) -> str:
    """Length-`length` prefix of the word T = head + phi(T) that begins with start.

    The prefix is the limit of T <- head + phi(T) from T = start, and only
    the first `source` letters of T are mapped.  T has no factor BB, so at
    least every other one of them is an A, whose image has p + 1 letters;
    that makes their image longer than `length`, and no step builds much
    more than 2 * length letters.
    """
    source = 2 * length // (m.p + 2) + 2
    word = start
    while len(word) < length:
        word = word[:source]  # free the unmapped rest before mapping
        word = _image(m, word, head)
    return word[:length]


def _stage_product(m: Morphism, seed: str, length: int) -> str:
    """v (seed A) or w (seed B) of the simple family with q > 1.

    Each is the seed followed by blocks (phi^k(A))^(q-1), k = 0, 2, 4, ...
    for v and k = 1, 3, 5, ... for w.  phi^k(A) is the fixed point's prefix
    of length U_k, the sum of the row (1, 0) M^k, so the fixed point is
    generated only as far as the longest block that is needed.
    """
    row = (1, 0) if seed == A else parikh_image(m, (1, 0))
    sizes, total = [], 1
    while total < length:
        sizes.append(sum(row))
        total += (m.q - 1) * sizes[-1]
        row = parikh_image(m, parikh_image(m, row))
    fixed_point = _iterate(m, "", A, min(sizes[-1], length)) if sizes else ""
    pieces, total = [seed], 1
    for size in sizes:
        block = fixed_point[:size]
        for _ in range(m.q - 1):
            pieces.append(block[:length - total])
            total += len(pieces[-1])
    return "".join(pieces)


def word_prefix(m: Morphism, target: str, length: int) -> str:
    """Length-`length` prefix of the fixed point ("ubeta"), w, or v."""
    if target not in _TARGETS:
        raise ValueError(f"unknown word target {target!r}; expected one of {_TARGETS}")
    if not isinstance(length, int) or isinstance(length, bool) or length < 0:
        raise ValueError(f"length must be a nonnegative integer, got {length!r}")
    if length > GENERATION_CAP:
        raise CapExceededError(
            f"requested {length} letters, generation cap is {GENERATION_CAP}")
    if target == V and m.family is Family.NONSIMPLE:
        # the B-poorest word of the non-simple family is the fixed point itself
        target = UBETA
    if target != UBETA and m.family is Family.SIMPLE and m.q == 1:
        raise UnsupportedConstructionError(
            "the simple family with q = 1 is Sturmian and has no v/w construction")
    if length == 0:
        return ""
    if target == UBETA:
        return _iterate(m, "", A, length)
    if m.family is Family.NONSIMPLE:
        # the B-richest word of the non-simple family satisfies w = B + phi(w)
        return _iterate(m, B, B, length)
    return _stage_product(m, A if target == V else B, length)


def fixed_point_prefix(m: Morphism, length: int) -> str:
    """The unique length-`length` prefix of the fixed point.

    Deterministic and prefix-stable: the result for a shorter length is
    always a prefix of the result for a longer one.  Each call costs
    O(length) time and memory; nothing is cached between calls.
    """
    return word_prefix(m, UBETA, length)
