"""Binary words over {A, B} and the two quadratic Parry morphism families.

A morphism is determined by parameters (p, q) and a family tag:

    simple       A -> A^p B,   B -> A^q        with p >= q >= 1
    non-simple   A -> A^p B,   B -> A^q B      with p >  q >= 1

Each such morphism fixes a unique infinite word obtained by iterating on
the letter A.  This module provides morphism validation and application,
Parikh-vector accounting through the 2x2 incidence matrix, and
generation of prefixes of the fixed point and of its two extremal
companion words (the B-poorest word v and the B-richest word w).  One
iteration T <- head + phi^r(T) builds all of them:

    fixed point u        u = phi(u)
    non-simple w         w = B phi(w)          (v is u)
    simple v, w, q > 1   y = A^(q-1) phi^2(y),  v = A y,  w = B phi(y)

so that phi^2(w) = A^p w and v = phi(w).  Nothing is cached between calls.

All arithmetic is exact (Python ints).  Words are plain ASCII strings over
"A"/"B"; CPython stores those at one byte per letter, which keeps long
prefixes compact and makes windowed scans cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from operator import index
from typing import NamedTuple

A = "A"
B = "B"
_LETTERS = frozenset((A, B))

#: The one size limit, refused before any allocation: the most letters of a
#: word prefix or the oracle's scanned word, and the most places normal_u_rep pads.
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
    """A word-prefix or padding request exceeded the generation cap."""


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
    they key numeration's one plan per morphism and the oracle's one-entry
    cache.
    """

    p: int
    q: int
    family: Family

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", Family(self.family))
        for name, value in (("p", self.p), ("q", self.q)):
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {_shown(value)}")
        if self.family is Family.SIMPLE and self.p < self.q:
            raise ValueError(
                f"simple family requires p >= q, violated by p={_shown(self.p)} < q={_shown(self.q)}")
        if self.family is Family.NONSIMPLE and self.p <= self.q:
            raise ValueError(
                f"non-simple family requires p > q, violated by p={_shown(self.p)} <= q={_shown(self.q)}")

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


def _integer(value: int, name: str, floor: int | None = 1) -> int:
    """value as a plain int, for every length, stage and index the library takes.

    A float or fraction raises TypeError (operator.index); Python, numpy and
    bool integers pass.  Below floor, 1 or 0, it raises ValueError; floor
    None leaves the range to the caller's own check.
    """
    value = index(value)
    if floor is not None and value < floor:
        raise ValueError(f"{name} must be {'positive' if floor else 'nonnegative'}, got {_shown(value)}")
    return value


def _shown(value: object) -> str:
    """repr(value) for a message, but an int of more than 20 digits by its size, from its top
    bits: a decimal conversion of a long int takes seconds on Python 3.10 and 3.11."""
    if not isinstance(value, int) or -10 ** 20 < value < 10 ** 20:
        return repr(value)
    digits = int(math.log10(abs(value))) + 1  # one too many only just below a power of 10
    return f"<{'negative ' if value < 0 else ''}integer of about {digits} digits>"


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


def _image(word: str, image_a: str, image_b: str, head: str = "") -> str:
    """head + word with every A replaced by image_a and every B by image_b.

    Two replace passes beat str.translate by about 2x on long words.  The
    source is lowered so that the passes leave the images and the head,
    all upper case, alone; the head joins the short source rather than its
    long image.
    """
    return (head + word.lower()).replace("a", image_a).replace("b", image_b)


def apply(m: Morphism, word: str) -> str:
    """Image of a finite word: the concatenation of its letter images."""
    _check_word(word)
    return _image(word, m.image_a, m.image_b)


# --- word generation -----------------------------------------------------------

def _cut_images(m: Morphism, length: int) -> tuple[str, str]:
    """phi(A) and phi(B), each cut to at most length + 1 letters and never built whole."""
    keep, tail_b = length + 1, B if m.family is Family.NONSIMPLE else ""
    return (A * min(m.p, keep) + B)[:keep], (A * min(m.q, keep) + tail_b)[:keep]


def _source_cut(word: str, images: tuple[str, str], length: int) -> int:
    """The shortest prefix of word whose image has more than `length` letters, or all of it.

    Each round takes as many more letters as could at most fill the
    deficit plus one, so it never passes the shortest such prefix, and
    counts the B's among them to size their image.
    """
    size_a, size_b = len(images[0]), len(images[1])
    cut = count_b = size = 0
    while size <= length and cut < len(word):
        more = (length - size) // size_a + 1
        count_b += word.count(B, cut, cut + more)
        cut = min(cut + more, len(word))
        size = cut * size_a - count_b * (size_a - size_b)
    return cut


def _image_prefix(word: str, images: tuple[str, str], length: int, head: str = "") -> str:
    """head + word mapped by A, B -> images, cut to more than `length` letters after the head."""
    return _image(word[:_source_cut(word, images, length)], *images, head)


def _iterate(m: Morphism, head: str, start: str, length: int, power: int = 1) -> str:
    """Length-`length` prefix of the word T = head + phi^power(T) that begins with start.

    It is the limit of T <- head + phi^power(T) from T = start, stepped by one
    pass of phi^power's letter images, each cut to more than `length` letters.
    A letter whose image is cut ends the source of its step, so the first
    `length` letters are those of the whole images, and no step builds more
    than length + |head| letters plus one letter image.
    """
    images = base = _cut_images(m, length)
    for _ in range(power - 1):  # a cut B image stays no longer than A's, as _source_cut needs
        images = tuple(_image_prefix(image, base, length) for image in images)
    word = start
    while len(word) < length:
        shorter = len(word)
        word = _image_prefix(word, images, length, head)
        assert len(word) > shorter, f"a step from {shorter} letters stopped the growth"
    return word[:length]


def word_prefix(m: Morphism, target: str, length: int) -> str:
    """Length-`length` prefix of the fixed point ("ubeta"), w, or v."""
    if target not in _TARGETS:
        raise ValueError(f"unknown word target {target!r}; expected one of {_TARGETS}")
    length = _integer(length, "length", 0)
    if length > GENERATION_CAP:
        raise CapExceededError(
            f"requested {_shown(length)} letters, generation cap is {GENERATION_CAP}")
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
    # simple q > 1: y = A^(q-1) phi^2(y), v = A y and w = B phi(y), where
    # phi(y) = phi(A^(q-1)) phi^2(phi(y)) has the same form.  A head cut to
    # more than `length` letters is the whole prefix, and no step is taken.
    head = A * min(m.q - 1, length + 1)
    if target == W:
        head = _image_prefix(head, _cut_images(m, length), length)
    return (A if target == V else B) + _iterate(m, head, head, length - 1, power=2)


def fixed_point_prefix(m: Morphism, length: int) -> str:
    """The unique length-`length` prefix of the fixed point.

    Deterministic and prefix-stable: the result for a shorter length is
    always a prefix of the result for a longer one.  Each call costs
    O(length) time and memory, whatever p and q; nothing is cached between
    calls.
    """
    return word_prefix(m, UBETA, length)
