"""Binary words over {A, B} and the two quadratic Parry morphism families.

A morphism is determined by parameters (p, q) and a family tag:

    simple       A -> A^p B,   B -> A^q        with p >= q >= 1
    non-simple   A -> A^p B,   B -> A^q B      with p >  q >= 1

Each such morphism fixes a unique infinite word obtained by iterating on
the letter A.  This module provides morphism validation and application,
Parikh-vector accounting through the 2x2 incidence matrix, and
demand-driven generation of prefixes of the fixed point and of its two
extremal companion words (the B-poorest word v and the B-richest word w).

All arithmetic is exact (Python ints).  Words are plain ASCII strings over
"A"/"B"; CPython stores those at one byte per letter, which keeps long
prefixes compact and makes windowed scans cheap.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

A = "A"
B = "B"
_LETTERS = frozenset((A, B))

#: Ceiling on generated prefix lengths, in letters.  Requests beyond this
#: raise CapExceededError instead of attempting the allocation.
GENERATION_CAP = 1 << 28

#: Word targets accepted by WordStream and word_prefix.
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

    def image(self, letter: str) -> str:
        if letter == A:
            return self.image_a
        if letter == B:
            return self.image_b
        raise ValueError(f"letter must be {A!r} or {B!r}, got {letter!r}")

    @property
    def sturmian(self) -> bool:
        """True when the fixed point is Sturmian, i.e. AC(n) = 2 for every n."""
        if self.family is Family.SIMPLE:
            return self.q == 1
        return self.p == self.q + 1


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
    stray = set(word) - _LETTERS
    if stray:
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


@lru_cache(maxsize=None)
def _image_table(m: Morphism) -> dict[int, str]:
    return str.maketrans({A: m.image_a, B: m.image_b})


def apply(m: Morphism, word: str) -> str:
    """Image of a finite word: the concatenation of its letter images."""
    _check_word(word)
    return word.translate(_image_table(m))


# --- demand-driven word generation -------------------------------------------

class _SelfReadingStream:
    """Stream for an infinite word T satisfying T = head + image(T).

    The buffer is output and input at once: every consumed letter appends
    its image, which later gets consumed in turn.  Consumption never
    catches up with production because letter images are at least as long
    as their source and the words involved contain no BB factor, so only
    the requested number of letters (plus a bounded overshoot) is ever
    materialized.
    """

    def __init__(self, m: Morphism, text: str, consumed: int):
        self._table = _image_table(m)
        self._max_image = m.p + 1
        self._text = text
        self._consumed = consumed
        self._lock = threading.Lock()

    def prefix(self, n: int) -> str:
        if n <= len(self._text):
            return self._text[:n]
        with self._lock:
            pieces = [self._text]
            total = len(self._text)
            joined = total
            consumed = self._consumed
            while total < n:
                if consumed >= joined:
                    pieces = ["".join(pieces)]
                    joined = total
                # consume enough to cover the deficit without a large overshoot
                want = (n - total) // self._max_image + 64
                run = pieces[0][consumed:consumed + min(want, joined - consumed)]
                piece = run.translate(self._table)
                pieces.append(piece)
                total += len(piece)
                consumed += len(run)
            self._text = "".join(pieces)
            self._consumed = consumed
            return self._text[:n]


class _StageProductStream:
    """Extremal words of the simple family (q > 1).

    Both are products of a seed letter and repeated blocks (phi^k(A))^(q-1)
    with k stepping by 2: even powers build the B-poorest word v, odd
    powers the B-richest word w.  Blocks are prefixes of the fixed point,
    so they are sliced from the shared fixed-point stream; a block that
    would overrun the request is truncated without being stored.
    """

    def __init__(self, m: Morphism, seed: str, first_power: int):
        self._m = m
        self._text = seed
        self._copies_left = m.q - 1
        self._row = (1, 0)
        for _ in range(first_power):
            self._row = parikh_image(m, self._row)
        self._lock = threading.Lock()

    def _advance_block(self) -> None:
        self._copies_left -= 1
        if self._copies_left == 0:
            self._copies_left = self._m.q - 1
            self._row = parikh_image(self._m, parikh_image(self._m, self._row))

    def prefix(self, n: int) -> str:
        if n <= len(self._text):
            return self._text[:n]
        with self._lock:
            while len(self._text) < n:
                block = sum(self._row)
                need = n - len(self._text)
                if block > need:
                    return self._text + _stream(self._m, UBETA).prefix(need)
                self._text += _stream(self._m, UBETA).prefix(block)
                self._advance_block()
            return self._text[:n]


_streams: dict[tuple[Morphism, str], object] = {}
_streams_lock = threading.Lock()


def _make_stream(m: Morphism, target: str):
    if target == UBETA:
        # the fixed point T satisfies T = image(T); seed with image(A), one letter consumed
        return _SelfReadingStream(m, m.image_a, 1)
    if m.family is Family.NONSIMPLE:
        # target is W; the B-richest word satisfies w = B + image(w)
        return _SelfReadingStream(m, B, 0)
    if m.q == 1:
        raise UnsupportedConstructionError(
            "the simple family with q = 1 is Sturmian and has no v/w construction")
    if target == W:
        return _StageProductStream(m, B, 1)
    return _StageProductStream(m, A, 0)


def _stream(m: Morphism, target: str):
    if target == V and m.family is Family.NONSIMPLE:
        # the B-poorest word of the non-simple family is the fixed point itself
        target = UBETA
    key = (m, target)
    found = _streams.get(key)
    if found is None:
        with _streams_lock:
            found = _streams.get(key)
            if found is None:
                found = _make_stream(m, target)
                _streams[key] = found
    return found


def word_prefix(m: Morphism, target: str, length: int) -> str:
    """Length-`length` prefix of the fixed point ("ubeta"), w, or v."""
    if target not in _TARGETS:
        raise ValueError(f"unknown word target {target!r}; expected one of {_TARGETS}")
    if not isinstance(length, int) or isinstance(length, bool) or length < 0:
        raise ValueError(f"length must be a nonnegative integer, got {length!r}")
    if length > GENERATION_CAP:
        raise CapExceededError(
            f"requested {length} letters, generation cap is {GENERATION_CAP}")
    stream = _stream(m, target)
    if length == 0:
        return ""
    return stream.prefix(length)


def fixed_point_prefix(m: Morphism, length: int) -> str:
    """The unique length-`length` prefix of the fixed point.

    Deterministic and prefix-stable: the result for a shorter length is
    always a prefix of the result for a longer one.  Cost is O(length)
    time and memory on first generation; prefixes are cached per morphism.
    """
    return word_prefix(m, UBETA, length)


class WordStream:
    """Single-owner cursor over the fixed point, w, or v.

    take(k) returns the next k letters; successive calls are equivalent to
    one combined call (prefix stability).  Use one stream per thread; the
    underlying prefix cache is shared and append-only.
    """

    def __init__(self, morphism: Morphism, target: str = UBETA):
        if target not in _TARGETS:
            raise ValueError(f"unknown word target {target!r}; expected one of {_TARGETS}")
        _stream(morphism, target)  # fail fast on unsupported constructions
        self.morphism = morphism
        self.target = target
        self._position = 0

    @property
    def position(self) -> int:
        return self._position

    def take(self, count: int) -> str:
        if count < 0:
            raise ValueError(f"count must be nonnegative, got {count}")
        end = self._position + count
        text = word_prefix(self.morphism, self.target, end)
        out = text[self._position:end]
        self._position = end
        return out
