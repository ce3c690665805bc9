"""The length sequence U_k = |phi^k(A)| and its greedy numeration system.

One table per morphism holds the rows (1, 0) M^k = (|phi^k(A)|_A,
|phi^k(A)|_B) of the incidence matrix M as two lists, grown by
`parikh_image`.  Only this module reads it: other modules get U_k from
`u_value` and hand the rows of `place_rows` to `b_weights`, the one
weighted greedy pass.  U_k, the row's sum, starts at 1 and strictly
increases, so it is the base of a positional numeration: every n >= 0 has
a greedy digit string (d_N, ..., d_0), most significant first, with
n = sum d_j U_j and every digit at most p.  The length-n prefix of the
fixed point is then (phi^N(A))^{d_N} ... (phi(A))^{d_1} A^{d_0}.

Any fixed combination x_k of row k's entries obeys x_{k+2} = t x_{k+1} -
d x_k, with t and d the trace and determinant of M.  Summed over k, that
gives x_0 + ... + x_k = (x_0 + x_1 - t x_0 + d x_k - x_{k+1}) / (1 - t + d)
in O(1).  The division is exact, since the numerator is the integer sum
times 1 - t + d = det(I - M), which is -q (non-simple) or 1 - p - q
(simple), never 0.  Sums over every other k use M^2 (t^2 - 2d and d^2),
whose divisor det(I - M) det(I + M) is never 0 either.

n = 0 is accepted throughout this module (it shows up as a difference of
lengths in the complexity formulas) even though the complexity itself is
defined only for n >= 1.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from functools import lru_cache
from typing import Sequence

from .words import Family, Morphism, parikh_image

_rows_lock = threading.Lock()


@lru_cache(maxsize=None)
def _rows_cache(m: Morphism) -> tuple[list[int], list[int]]:
    return [1], [0]


def _power_rows(m: Morphism, k: int) -> tuple[list[int], list[int]]:
    """The lists of |phi^j(A)|_A and |phi^j(A)|_B, grown to cover j <= k.

    They only grow, under a lock, the first list before the second, so any
    index below the second's length may be read concurrently.
    """
    counts_a, counts_b = _rows_cache(m)
    if len(counts_b) <= k:
        with _rows_lock:
            while len(counts_b) <= k:
                row = parikh_image(m, (counts_a[-1], counts_b[-1]))
                counts_a.append(row.count_a)
                counts_b.append(row.count_b)
    return counts_a, counts_b


def u_value(m: Morphism, k: int) -> int:
    """U_k = |phi^k(A)|, memoized per morphism."""
    if k < 0:
        raise ValueError(f"index must be nonnegative, got {k}")
    counts_a, counts_b = _power_rows(m, k)
    return counts_a[k] + counts_b[k]


def top_index(m: Morphism, n: int) -> int:
    """Smallest N >= 0 with n < U_{N+1}: the top place of n's greedy digits."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    counts_a, counts_b = _rows_cache(m)
    while counts_a[-1] <= n:
        _power_rows(m, len(counts_b))
    # |phi^j(A)|_A <= U_j <= |phi^{j+1}(A)|_A, so with j the last index where
    # |phi^j(A)|_A <= n, N is j or j - 1 (and 0 for n = 0, where j = -1)
    j = bisect_right(counts_a, n) - 1
    return max(j - (counts_a[j] + counts_b[j] > n), 0)


def recurrence_sum(m: Morphism, weights: tuple[int, int], k: int, step: int = 1) -> int:
    """Sum over 0 <= j <= k, j = k (mod step 1 or 2), of x_j = weights . row j.

    Weights (1, 1) sum U, (0, 1) sum |phi^j(A)|_B; k < 0 gives 0.
    """
    if k < 0:
        return 0
    a, b = _power_rows(m, k + step)
    wa, wb = weights
    r = k % step
    x0, x1 = wa * a[r] + wb * b[r], wa * a[r + step] + wb * b[r + step]
    xk, xk1 = wa * a[k] + wb * b[k], wa * a[k + step] + wb * b[k + step]
    e = 1 if m.family is Family.NONSIMPLE else 0  # M = ((p, 1), (q, e))
    trace, det = m.p + e, m.p * e - m.q
    if step == 2:
        trace, det = trace * trace - 2 * det, det * det
    return (x0 + x1 - trace * x0 + det * xk - xk1) // (1 - trace + det)


def place_rows(m: Morphism, top: int) -> tuple[list[int], list[int]]:
    """The rows of places top down to 0, as b_weights reads them.

    One slice of the table: callers that run many passes over the same
    places take it once and reuse it.
    """
    counts_a, counts_b = _power_rows(m, top)
    return counts_a[top::-1], counts_b[top::-1]


def b_weights(rows: tuple[list[int], list[int]], x: int, y: int = 0) -> tuple[int, int]:
    """sum_j d_j |phi^j(A)|_B over the greedy digits (d) of x, and the same for y.

    rows comes from place_rows(m, top); x and y must be below U_{top+1}.
    The two greedy passes share each U_j = |phi^j(A)|_A + |phi^j(A)|_B, and
    leading zero digits add nothing, so any top that covers x and y gives
    the same sums.
    """
    weight_x = weight_y = 0
    for count_a, count_b in zip(*rows):
        u = count_a + count_b
        if x >= u:
            digit, x = divmod(x, u)
            weight_x += digit * count_b
        if y >= u:
            digit, y = divmod(y, u)
            weight_y += digit * count_b
    return weight_x, weight_y


def normal_u_rep(m: Morphism, n: int, min_places: int | None = None) -> tuple[int, ...]:
    """Greedy digit string of n in the U system, most significant first.

    The number of places is the smallest that covers n (so the leading
    digit of a positive n is nonzero), left-padded with zeros to
    min_places when that is larger.  Padding never changes the value:
    sum(d_j * U_j) == n either way.  n = 0 yields (0,).
    """
    if min_places is not None and min_places < 1:
        raise ValueError(f"min_places must be positive, got {min_places}")
    top = top_index(m, n)
    if min_places is not None:
        top = max(top, min_places - 1)
    counts_a, counts_b = _power_rows(m, top)
    digits = []
    rest = n
    for j in range(top, -1, -1):
        d, rest = divmod(rest, counts_a[j] + counts_b[j])
        digits.append(d)
    return tuple(digits)


def u_rep_value(m: Morphism, digits: Sequence[int]) -> int:
    """sum d_j U_j for a most-significant-first digit string.

    Inverse of normal_u_rep on greedy strings, but accepts any digit
    string, normal or not.
    """
    top = len(digits) - 1
    counts_a, counts_b = _power_rows(m, top)
    return sum(d * (counts_a[top - i] + counts_b[top - i]) for i, d in enumerate(digits))


def prefix_decomposition(m: Morphism, n: int) -> tuple[tuple[int, int], ...]:
    """Decompose the length-n prefix of the fixed point into morphism powers.

    Returns pairs (power, exponent), highest power first, such that
    (phi^N(A))^{d_N} (phi^{N-1}(A))^{d_{N-1}} ... A^{d_0} equals the
    prefix.  Zero exponents are retained; n = 0 gives the empty tuple.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n == 0:
        return ()
    digits = normal_u_rep(m, n)
    top = len(digits) - 1
    return tuple((top - i, d) for i, d in enumerate(digits))


def prefix_b_count(m: Morphism, n: int) -> int:
    """Number of B's in the length-n prefix of the fixed point.

    Evaluated as sum d_i * |phi^i(A)|_B over the greedy digits of n.  In
    the non-simple family |phi^i(A)|_B = U_{i-1} for i >= 1, so the sum
    collapses to sum_{j>=1} d_j U_{j-1}; the tests check both forms agree.
    """
    return b_weights(place_rows(m, top_index(m, n)), n)[0]
