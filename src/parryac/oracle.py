"""Brute-force Abelian complexity from the B positions of generated words.

Everything here is computed from generated words alone, never from the
closed-form modules, so it can serve as an independent oracle for them.
The extreme B-counts over a word's length-n windows come from the order
statistics of its B positions.  With P[0] < ... < P[b-1] the positions of
the b B's of a word of L letters, framed by P[-1] = -1 and P[b] = L, let

    G(v) = min_j (P[j+v-1] - P[j] + 1),  the shortest span holding v B's,
    H(v) = max_j (P[j+v] - P[j-1] - 1),  the longest stretch holding
                                          exactly v B's.

A window holding c B's spans at least G(c) letters, and a span of G(v)
letters widens to a window of any n >= G(v) (n <= L) with at least v
B's, so max_b(n) = max{v : G(v) <= n}.  A window holding c B's lies in a
stretch of exactly c B's, and a stretch of H(v) >= n letters holds a
length-n window with at most v B's, so min_b(n) = min{v : H(v) >= n}.
Both G and H rise strictly with v, so max_b and min_b rise by 0 or 1 as
n rises: a walk over n reads one O(b) reduction for each value it
passes, and one n starts from the B-count of its first window, which
lies between the two, and steps down and up from it.

oracle_ac scans one word that provably holds every factor of length n.
The fixed point u satisfies u = phi^k(u), so it is a concatenation of
blocks phi^k(A) and phi^k(B), none shorter than phi^k(B) (phi(B) is a
factor of phi(A) in both families).  Take the least k with
n - 1 <= |phi^k(B)|.  A length-n window that reached three blocks would
cover a whole block and one letter on each side, n + 1 letters or more.
So every length-n factor of u is a window of phi^k(xy) for a two-letter
factor xy of u, and every such window is a factor of u.  The two-letter
factors are AA, AB and BA (BB never occurs: every letter image starts
with A and holds at most one B, at its end), and phi^k(AABA) holds them
at blocks 1-2, 2-3 and 3-4, with no window reaching three of its blocks
either.  So its length-n windows are exactly the length-n factors: the
standard block argument for primitive substitutions (Queffelec,
Substitution Dynamical Systems - Spectral Analysis, LNM 1294; Durand,
"Linearly recurrent subshifts have a finite number of non-periodic
subshift factors", Ergodic Theory Dynam. Systems 20 (2000)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Iterator

from .words import (
    GENERATION_CAP,
    B,
    Morphism,
    _integer,
    _shown,
    apply,
    fixed_point_prefix,
    parikh_image,
)

if TYPE_CHECKING:
    import numpy as np

_B_CODE = ord(B)


class OracleInstabilityError(RuntimeError):
    """The certified scan for n needs more letters than GENERATION_CAP allows.

    Raised by oracle_ac before any word is generated.
    """


@dataclass(frozen=True)
class ParikhInterval:
    """Extreme B-counts over all length-n windows of one scanned word.

    Every B-count between min_b and max_b is realized by some window
    (consecutive windows change their count by at most one), so the
    corresponding complexity value is simply 1 + max_b - min_b.  Both
    extremes are read from the word's B positions (see the module
    docstring), not from a pass over its windows.

    prefix_len_used is the length of the scanned word: the prefix length
    for parikh_extrema, |phi^k(AABA)| for oracle_ac.  stabilized is True
    only from oracle_ac, whose scanned word is certified to hold every
    length-n factor.
    """

    n: int
    min_b: int
    max_b: int
    prefix_len_used: int
    stabilized: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.min_b <= self.max_b <= self.n:
            raise ValueError(f"inconsistent interval: {self}")

    @property
    def ac(self) -> int:
        return 1 + self.max_b - self.min_b


def _b_positions(text: str) -> np.ndarray:
    """The B positions of text in order, framed by -1 and len(text), as int32."""
    import numpy as np  # deferred: only the oracle needs numpy

    # a span from the frame -1 to len(text) has len(text) + 1 letters
    assert len(text) + 1 < 1 << 31, f"{len(text)} letters overflow the int32 spans"
    found = np.flatnonzero(np.frombuffer(text.encode("ascii"), dtype=np.uint8) == _B_CODE)
    framed = np.empty(len(found) + 2, dtype=np.int32)
    framed[0], framed[1:-1], framed[-1] = -1, found, len(text)
    return framed


def _extrema(framed: np.ndarray, start: int, stop: int) -> Iterator[tuple[int, int]]:
    """(min_b, max_b) over the length-n windows of a word, for n = start..stop in order.

    framed comes from _b_positions, and stop is at most the word's length.
    G and H are the module docstring's, one numpy reduction each; `span`
    holds G(high + 1) and `reach` H(low), so a value is read again only
    when n passes it.
    """
    count = len(framed) - 2

    def shortest(v: int) -> int:  # G(v) for v >= 1, past any window for v > count
        if v > count:
            return int(framed[-1]) + 1
        return int((framed[v:count + 1] - framed[1:count + 2 - v]).min()) + 1

    def longest(v: int) -> int:  # H(v) for 0 <= v <= count
        return int((framed[v + 1:] - framed[:count + 1 - v]).max()) - 1

    # the B-count of the first window lies between min_b and max_b
    low = high = int(framed.searchsorted(start)) - 1
    while low and longest(low - 1) >= start:
        low -= 1
    # one n needs no H(low): the first window, or the step down, shows H(low) >= start
    reach = longest(low) if stop > start else start
    span = shortest(high + 1)
    for n in range(start, stop + 1):
        while reach < n:
            low += 1
            reach = longest(low)
        while span <= n:
            high += 1
            span = shortest(high + 1)
        yield low, high


def parikh_extrema(m: Morphism, n: int, prefix_len: int) -> ParikhInterval:
    """Min and max B-count over all length-n windows of the given prefix.

    Read from the prefix's B positions (see the module docstring), in at
    most max_b - min_b + 2 numpy reductions over them.
    """
    n, prefix_len = _integer(n, "n"), _integer(prefix_len, "prefix_len", None)
    if prefix_len < n:
        raise ValueError(f"prefix_len={_shown(prefix_len)} must be at least n={_shown(n)}")
    low, high = next(_extrema(_b_positions(fixed_point_prefix(m, prefix_len)), n, n))
    return ParikhInterval(n, low, high, prefix_len)


@lru_cache(maxsize=1)
def _block_pair_positions(m: Morphism, k: int) -> np.ndarray:
    """The framed B positions of phi^k(AABA), which holds phi^k(AA), phi^k(AB), phi^k(BA).

    One entry serves a library loop that calls oracle_ac for n upwards:
    consecutive n share their level, so each level's word is built once.
    """
    word = "AABA"
    for _ in range(k):
        word = apply(m, word)
    return _b_positions(word)


def _certified_extrema(m: Morphism, start: int, stop: int) -> Iterator[tuple[int, int, int]]:
    """(|phi^k(AABA)|, min_b, max_b) of oracle_ac for each n = start..stop, in order.

    The level k and its rows step up only when n passes |phi^k(B)| + 1.  A
    range checks every level's length against the cap before it builds the
    first, builds each once, and walks its n over its B positions.  Every n
    gets ParikhInterval's check, and its error, without the record.
    """
    levels, k, row_a, row_b = [], 0, (1, 0), (0, 1)
    first = start
    while first <= stop:
        while sum(row_b) < first - 1:
            k, row_a, row_b = k + 1, parikh_image(m, row_a), parikh_image(m, row_b)
        letters = 3 * sum(row_a) + sum(row_b)
        if letters > GENERATION_CAP:
            raise OracleInstabilityError(
                f"the certified scan for n={_shown(first)} needs phi^{k}(AABA) of {_shown(letters)} "
                f"letters, over the generation cap of {GENERATION_CAP}")
        last = min(sum(row_b) + 1, stop)  # the last n this level serves
        levels.append((k, letters, first, last))
        first = last + 1
    for k, letters, first, last in levels:
        framed = _block_pair_positions(m, k)
        for n, (low, high) in enumerate(_extrema(framed, first, last), first):
            if not 0 <= low <= high <= n:
                ParikhInterval(n, low, high, letters, True)  # raises the inconsistent interval
            yield letters, low, high


def oracle_ac(m: Morphism, n: int) -> ParikhInterval:
    """Certified window interval for length n; its `ac` is 1 + max - min.

    Scans phi^k(AABA) for the least k with |phi^k(B)| >= n - 1; its
    windows are exactly the length-n factors of the fixed point (see the
    module docstring), and prefix_len_used is |phi^k(AABA)|.  Reports
    stabilized=True.  Raises OracleInstabilityError, before generating
    anything, when phi^k(AABA) is longer than GENERATION_CAP.
    """
    n = _integer(n, "n")
    letters, low, high = next(_certified_extrema(m, n, n))
    return ParikhInterval(n, low, high, letters, True)
