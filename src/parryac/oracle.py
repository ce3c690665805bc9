"""Brute-force Abelian complexity by sliding-window enumeration.

Everything here is computed from generated words alone, never from the
closed-form modules, so it can serve as an independent oracle for them.
A length-n window scan over a word uses a cumulative B-count array and
costs O(len(word)) regardless of n.

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
    apply,
    fixed_point_prefix,
    parikh_image,
)

if TYPE_CHECKING:
    import numpy as np

#: Largest factor length oracle_ac accepts.
ORACLE_N_CAP = 10 ** 5

_B_CODE = ord(B)


class OracleInstabilityError(RuntimeError):
    """The certified scan for n needs more letters than GENERATION_CAP allows.

    Raised by oracle_ac before any word is generated.
    """


@dataclass(frozen=True)
class ParikhInterval:
    """Extreme B-counts over all length-n windows of the scanned words.

    Every B-count between min_b and max_b is realized by some window
    (consecutive windows change their count by at most one), so the
    corresponding complexity value is simply 1 + max_b - min_b.

    prefix_len_used is the number of letters scanned: the prefix length
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


def _cumulative_b(text: str) -> np.ndarray:
    """Array c with c[i] = number of B's among the first i letters of text."""
    import numpy as np  # deferred: only the oracle needs numpy

    assert len(text) < 1 << 31, f"{len(text)} letters overflow the int32 counts"
    cum = np.zeros(len(text) + 1, dtype=np.int32)
    cum[1:] = np.frombuffer(text.encode("ascii"), dtype=np.uint8) == _B_CODE
    np.cumsum(cum[1:], out=cum[1:])  # in place: a cumsum that casts the mask copies it whole
    return cum


def _interval(cum: np.ndarray, n: int, stabilized: bool = False) -> ParikhInterval:
    """Extreme B-counts over the length-n windows of the word behind cum."""
    win = cum[n:] - cum[:-n]
    return ParikhInterval(n, int(win.min()), int(win.max()), len(cum) - 1, stabilized)


def parikh_extrema(m: Morphism, n: int, prefix_len: int) -> ParikhInterval:
    """Min and max B-count over all length-n windows of the given prefix."""
    n, prefix_len = _integer(n, "n"), _integer(prefix_len, "prefix_len", None)
    if prefix_len < n:
        raise ValueError(f"prefix_len={prefix_len} must be at least n={n}")
    return _interval(_cumulative_b(fixed_point_prefix(m, prefix_len)), n)


@lru_cache(maxsize=1)
def _block_pair_counts(m: Morphism, k: int) -> np.ndarray:
    """Cumulative B-count of phi^k(AABA), which holds phi^k(AA), phi^k(AB), phi^k(BA).

    One entry serves a library loop that calls oracle_ac for n upwards:
    consecutive n share their level, so each level's word is built once.
    """
    word = "AABA"
    for _ in range(k):
        word = apply(m, word)
    return _cumulative_b(word)


def _intervals(m: Morphism, start: int, stop: int) -> Iterator[ParikhInterval]:
    """oracle_ac's interval for each n = start..stop, in order.

    The level k and its rows step up only when n passes |phi^k(B)| + 1, so
    a range searches and checks each level once, not once per n.
    """
    k, row_a, row_b = 0, (1, 0), (0, 1)
    last = start - 1  # the last n the current level serves; none yet
    for n in range(start, stop + 1):
        if n > last:
            while sum(row_b) < n - 1:
                k, row_a, row_b = k + 1, parikh_image(m, row_a), parikh_image(m, row_b)
            letters = 3 * sum(row_a) + sum(row_b)
            if letters > GENERATION_CAP:
                raise OracleInstabilityError(
                    f"the certified scan for n={n} needs phi^{k}(AABA) of {letters} letters, "
                    f"over the generation cap of {GENERATION_CAP}")
            cum, last = _block_pair_counts(m, k), sum(row_b) + 1
        yield _interval(cum, n, True)


def oracle_ac(m: Morphism, n: int) -> ParikhInterval:
    """Certified window interval for length n; its `ac` is 1 + max - min.

    Scans phi^k(AABA) for the least k with |phi^k(B)| >= n - 1; its
    windows are exactly the length-n factors of the fixed point (see the
    module docstring), and prefix_len_used is |phi^k(AABA)|.  Reports
    stabilized=True.  Raises OracleInstabilityError, before generating
    anything, when phi^k(AABA) is longer than GENERATION_CAP.
    """
    n = _integer(n, "n")
    if n > ORACLE_N_CAP:
        raise ValueError(f"n={n} exceeds the oracle cap {ORACLE_N_CAP}")
    return next(_intervals(m, n, n))
