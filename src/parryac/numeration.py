"""The length sequence U_k = |phi^k(A)| and its greedy numeration system.

U_k, the sum of the row (1, 0) M^k = (|phi^k(A)|_A, |phi^k(A)|_B) of the
incidence matrix M, starts at 1 and strictly increases, so it is the base
of a positional numeration: every n >= 0 has a greedy digit string
(d_N, ..., d_0), most significant first, with n = sum d_j U_j and every
digit at most p.  The length-n prefix of the fixed point is then
(phi^N(A))^{d_N} ... (phi(A))^{d_1} A^{d_0}.

One sequence gives both columns of the rows.  With t and d the trace and
determinant of M (p + 1 and p - q in the non-simple family, p and -q in
the simple one), let s_{-1} = 0, s_0 = 1 and s_{j+1} = t s_j - d s_{j-1}.
Then |phi^j(A)|_B = s_{j-1}, and U_j = s_j (non-simple) or s_j + s_{j-1}
(simple), so the window (s_j, s_{j-1}) holds row j.  A window comes from
2x2 matrix powering, by doubling in O(log j) products, and moves up i
places as s_{j+i} = s_i s_j - d s_{i-1} s_{j-1} and down i places by one
exact division by d^i.  Each morphism keeps one plan, built whole, with
the rows j < 128: they cover every n below about 2^88 and end every pass.

Above the list, the greedy pass (`b_weights`, and `digit_lists` with
the digits) walks down in blocks of b places, b about 128 bits' worth and
at least 4.  Place lo + i of a block is U_{lo+i} = u0_i s_lo + u1_i
s_{lo-1} with small integers u0_i, u1_i, so the block's digits collapse
to one exact update x -= X s_lo + Y s_{lo-1}, X = sum d_i u0_i and Y =
sum d_i u1_i, and the weight sum_j d_j |phi^j(A)|_B to another (one sum
of the digits against coefficients packed side by side gives all four);
the window then moves down b places by one exact division by d^b.  The
digits come from x, s_lo and s_{lo-1} cut to their top bits (x >> S and
so on, G bits for s_lo).  The cut puts x / 2^S in [x', x' + 1) and
U_{lo+i} / 2^S in [U' + low_i, U' + high_i], low_i and high_i the sums of
the negative and the positive coefficients, and each digit d taken widens
the interval of the rest by d high_i below and by -d low_i above.  A
digit is certified when that whole interval lies in [0, U' + low_i); a
block with an uncertified digit is redone with exact divmod.  The
widening stays below 2^(G-64-log2 beta) units, so that happens about once
in 2^64 places, and at inputs that sit on a place's edge, such as U_j or
U_j - 1.

Any fixed combination x_k of row k's entries obeys x_{k+2} = t x_{k+1} -
d x_k.  Summed over k, that gives x_0 + ... + x_k = (x_0 + x_1 - t x_0 +
d x_k - x_{k+1}) / (1 - t + d) in O(1).  The division is exact, since the
numerator is the integer sum times 1 - t + d = det(I - M), which is -q
(non-simple) or 1 - p - q (simple), never 0.  Sums over every other k use
M^2 (t^2 - 2d and d^2), whose divisor det(I - M) det(I + M) is never 0
either.

n = 0 is accepted throughout this module (it shows up as a difference of
lengths in the complexity formulas) even though the complexity itself is
defined only for n >= 1.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache
from itertools import repeat
from operator import add, floordiv, index, itemgetter, mul, sub
from typing import Sequence

from .words import Family, Morphism

#: Rows j below this are kept per morphism; places at or above it are
#: reached from windows.
_LOW_PLACES = 128
#: Bits of n that one block of places spans, and the guard bits that the
#: truncated values carry beyond their error bounds.
_BLOCK_BITS = 128
_GUARD_BITS = 64


class _Plan:
    """One morphism's recurrence, its rows j < 128 and its block of places.

    s holds s_{-1}, s_0, ... and q_coef Q_{-1} = 1, Q_i = -d s_{i-1}, at
    index i + 1, for the rows j < 128 and for one block: a window (s_k,
    s_{k-1}) gives s_{k+i} = s_i s_k + Q_i s_{k-1}.  places holds (U_j,
    |phi^j(A)|_B) for j < 128.  The block columns u0, u1 and packed hold
    offsets width - 1 down to 0, top first.
    """

    __slots__ = ("m", "simple", "trace", "det", "steps", "log2_beta", "s", "q_coef", "places",
                 "width", "precision", "u0", "u1", "field", "packed", "star")

    def __init__(self, m: Morphism):
        self.m = m
        self.simple = simple = 1 if m.family is Family.SIMPLE else 0  # U_j = s_j + simple s_{j-1}
        self.trace, self.det = trace, det = m.p + 1 - simple, m.p - m.q if not simple else -m.q
        self.steps = (trace, det), (trace * trace - 2 * det, det * det)  # of M and of M^2
        self.log2_beta = math.log2(trace) + math.log2((1 + math.sqrt(1 - 4 * det / trace ** 2)) / 2)
        # wide places still take a few per block, to share each window step
        self.width = width = max(4, int(_BLOCK_BITS / self.log2_beta))
        s = [0, 1]  # s_{-1}, s_0, ...
        while len(s) < max(_LOW_PLACES, width) + 2:
            s.append(trace * s[-1] - det * s[-2])
        q_coef = [1, *(-det * s_i for s_i in s[:-1])]  # Q_{-1}, Q_0, ...
        self.s, self.q_coef = s, q_coef
        self.places = [(s[j + 1] + simple * s[j], s[j]) for j in range(_LOW_PLACES)]
        top_first = range(width, 0, -1)  # i + 1 for i = width - 1 .. 0
        self.u0 = u0 = tuple(s[i] + simple * s[i - 1] for i in top_first)
        self.u1 = u1 = tuple(q_coef[i] + simple * q_coef[i - 1] for i in top_first)
        # u0 >= 0, and u1 >= 0 (simple) or <= 0 (non-simple): the pass relies on it
        assert min(u0) >= 0 and (min(u1) >= 0 if simple else max(u1) <= 0), m
        # the bound on a block's error, and room for rests as small as U_lo / beta,
        # which digit strings near Parry's quasi-greedy one leave at every place
        spread = 1 + m.p * sum(u0) + m.p * sum(map(abs, u1))
        # |phi^j(A)|_B = s_{j-1} has coefficients s_{i-1} and Q_{i-1}, no larger
        # than u0 and |u1|, and Q_{i-1} has u1's sign but at i = 0 (Q_{-1} = 1),
        # which the pass adds apart in the non-simple family.  A block's digits
        # are at most p + 1, even from truncated values below U_{top+1}, so with
        # fields of 2 spread one sum of the digits times `packed` gives all
        # four of a block's sums without carries between them.
        self.field = field = (2 * spread).bit_length()
        self.packed = tuple(a + (abs(b) << field) + (s[i - 1] << 2 * field)
                            + ((abs(q_coef[i - 1]) if simple or i > 1 else 0) << 3 * field)
                            for a, b, i in zip(u0, u1, top_first))
        self.precision = spread.bit_length() + math.ceil(self.log2_beta) + _GUARD_BITS  # G
        self.star = m.p, m.q - simple  # the first two letters of d*, for the odometer

    # The odometer: n -> n + 1 and n -> n - 1 on greedy digits kept least
    # significant first.  The greedy digits of U_i - 1 are the first i letters
    # of Parry's quasi-greedy string d* = p q q q ... (non-simple) or p (q-1)
    # p (q-1) ... (simple), so a step rewrites only the places up to one i.
    # The weight sum_j d_j |phi^j(A)|_B is the B-count of the prefix of length
    # n, so a step changes it by the letter between the two prefixes: the last
    # letter of phi^i(A), which is B for i >= 1 (non-simple) or odd i (simple).

    def up(self, digits: list[int]) -> int:
        """Add 1 to greedy digits, least significant first, in place; return the weight's gain.

        The digit at i*, the largest i whose lowest i digits read top first
        are d*'s first i letters (0 if none are), grows by 1, and every
        digit below it becomes 0.  The list needs a place above the top
        digit of the result.
        """
        p, second = self.star
        first = digits[0]
        if first != p and first != second:  # no run of d*'s letters: i* = 0
            digits[0] = first + 1
            return 0
        i = 0
        if self.simple:
            # the run from place 0 that alternates p and q - 1, cut to end in p
            letter, after = (p, second) if first == p else (second, p)
            while digits[i] == letter:
                i += 1
                letter, after = after, letter
            if after != p:
                i -= 1
        else:
            # a run of q from place 0, under a p
            while digits[i] == second:
                i += 1
            i = i + 1 if digits[i] == p else 0
        if not i:
            digits[0] = first + 1
            return 0
        digits[:i] = [0] * i
        digits[i] += 1
        return i & 1 if self.simple else 1

    def down(self, digits: list[int]) -> int:
        """Subtract 1 from positive greedy digits, as `up` adds it; return the weight's change.

        The lowest nonzero digit, at place i, falls by 1, and d*'s first i
        letters fill the places below it.
        """
        if digits[0]:
            digits[0] -= 1
            return 0
        i = 1
        while not digits[i]:
            i += 1
        digits[i] -= 1
        p, second = self.star
        if self.simple:
            letters = [p, second] if i & 1 else [second, p]
            digits[:i] = (letters * (i + 1 >> 1))[:i]
            return -(i & 1)
        digits[:i] = [second] * (i - 1) + [p]
        return -1


_plan = lru_cache(maxsize=None)(_Plan)


def _window(plan: _Plan, k: int) -> tuple[int, int]:
    """(s_k, s_{k-1}) for k >= 0, by doubling from a window of the s list."""
    if k + 1 < len(plan.s):
        return plan.s[k + 1], plan.s[k]
    trace, det = plan.trace, plan.det
    shift = k.bit_length() - 7
    s, s1 = _window(plan, k >> shift)
    for bit in range(shift - 1, -1, -1):
        # s_{2j} = s_j^2 - d s_{j-1}^2, s_{2j+1} = s_j (t s_j - 2d s_{j-1})
        # and s_{2j-1} = s_{j-1} (2 s_j - t s_{j-1})
        even = s * s - det * (s1 * s1)
        if k >> bit & 1:
            s, s1 = s * (trace * s - 2 * det * s1), even
        else:
            s, s1 = even, s1 * (2 * s - trace * s1)
    return s, s1


def _step_down(plan: _Plan, s0: int, s1: int, places: int) -> tuple[int, int]:
    """The window `places` (<= width) below (s0, s1), by one exact division by d^places."""
    s, q_coef = plan.s, plan.q_coef
    divisor = plan.det ** places
    return ((q_coef[places] * s0 - q_coef[places + 1] * s1) // divisor,
            (s[places + 1] * s1 - s[places] * s0) // divisor)


class Rows:
    """The rows (1, 0) M^j of one morphism, read from one window at place `top`.

    The greedy pass reads places top down to 0; a stage reads U_j and
    sums for j from top - 2 to top + 4.  Rows j < 128 come from the plan,
    the others from the window (s_top, s_{top-1}): above it as s_{top+i} =
    s_i s_top + Q_i s_{top-1}, up to a block below it by one _step_down
    (farther off by doubling).  `at` moves to a nearby top the same way, so
    a walk over stages pays for one window by doubling.  `low` holds (U_j,
    |phi^j(A)|_B) for the list's places min(top, 127) down to 0.
    """

    __slots__ = ("m", "top", "low", "_plan", "_s_top", "_s_prev")

    def __init__(self, plan: _Plan, top: int, window: tuple[int, int] | None = None):
        self.m, self.top, self._plan = plan.m, top, plan
        self.low = plan.places[min(top, _LOW_PLACES - 1)::-1]
        self._s_top, self._s_prev = window or _window(plan, top)

    def window(self, j: int) -> tuple[int, int]:
        """(s_j, s_{j-1}), for j >= 0."""
        plan = self._plan
        i = j - self.top
        if 0 <= i < len(plan.s) - 1:
            s, q_coef, s_top, s_prev = plan.s, plan.q_coef, self._s_top, self._s_prev
            return s[i + 1] * s_top + q_coef[i + 1] * s_prev, s[i] * s_top + q_coef[i] * s_prev
        if -plan.width <= i < 0:
            return _step_down(plan, self._s_top, self._s_prev, -i)
        return _window(plan, j)  # far from the window, as for an explicit k in ac_nonsimple

    def at(self, j: int) -> Rows:
        """The rows at top j, from this window: products above it, _step_down below."""
        return Rows(self._plan, j, self.window(j) if j >= _LOW_PLACES else None)

    def place(self, j: int) -> tuple[int, int]:
        """(U_j, |phi^j(A)|_B)."""
        if j < _LOW_PLACES:
            return self._plan.places[j]
        s_j, s_prev = self.window(j)
        return s_j + self._plan.simple * s_prev, s_prev

    def u(self, j: int) -> int:
        """U_j."""
        return self.place(j)[0]

    def sum(self, weights: tuple[int, int], k: int, step: int = 1) -> int:
        """Sum over 0 <= j <= k, j = k (mod step 1 or 2), of x_j = weights . row j.

        Weights (1, 1) sum U, (0, 1) sum |phi^j(A)|_B; k < 0 gives 0.  The
        rows read are k and k + step, so take rows with top near k.
        """
        if k < 0:
            return 0
        places = self._plan.places
        # below place 128 the pairs are read in place: this runs once or
        # more per n on the prefix-difference route
        if k + step < _LOW_PLACES:
            (u_k, b_k), (u_k1, b_k1) = places[k], places[k + step]
        else:
            (u_k, b_k), (u_k1, b_k1) = self.place(k), self.place(k + step)
        # x_j = wa |phi^j(A)|_A + wb |phi^j(A)|_B = wa U_j + wb' |phi^j(A)|_B
        wa, wb = weights
        wb -= wa
        r = k % step
        (u_r, b_r), (u_r1, b_r1) = places[r], places[r + step]
        x0, x1 = wa * u_r + wb * b_r, wa * u_r1 + wb * b_r1
        trace, det = self._plan.steps[step - 1]
        return (x0 + x1 - trace * x0 + det * (wa * u_k + wb * b_k) - wa * u_k1 - wb * b_k1) // (1 - trace + det)


def place_rows(m: Morphism, top: int) -> Rows:
    """The rows of places top down to 0, as b_weights reads them.

    Callers that run many passes over the same places, or read a stage's
    U_j and sums near top, take it once and reuse it.
    """
    return Rows(_plan(m), top)


def _list_top(places: list[tuple[int, int]], n: int) -> int:
    # the last j with U_j <= n, and 0 for n = 0
    return max(bisect_right(places, n, key=itemgetter(0)) - 1, 0)


def top_index(m: Morphism, n: int) -> int:
    """Smallest N >= 0 with n < U_{N+1}: the top place of n's greedy digits."""
    n = index(n)
    places = _plan(m).places
    return _list_top(places, n) if 0 <= n < places[-1][0] else _top_rows(m, n).top


def _top_rows(m: Morphism, n: int) -> Rows:
    """place_rows(m, top_index(m, n)), with one window for the search and the rows."""
    n = index(n)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    plan = _plan(m)
    if n < plan.places[-1][0]:
        return Rows(plan, _list_top(plan.places, n))
    # U_j is within a small factor of beta^j, so the estimate is off by a place or two
    top = int((n.bit_length() - 1) / plan.log2_beta)
    rows = Rows(plan, top)
    while rows.u(top) > n:
        top -= 1
    while rows.u(top + 1) <= n:
        top += 1
    return rows if top == rows.top else rows.at(top)


def u_value(m: Morphism, k: int) -> int:
    """U_k = |phi^k(A)|."""
    if k < 0:
        raise ValueError(f"index must be nonnegative, got {k}")
    return place_rows(m, k).u(k)


def b_weights(rows: Rows, x: int, y: int = 0) -> tuple[int, int]:
    """sum_j d_j |phi^j(A)|_B over the greedy digits (d) of x, and the same for y.

    rows comes from place_rows(m, top); x and y must be below U_{top+1}.
    The two greedy passes share each U_j = |phi^j(A)|_A + |phi^j(A)|_B, and
    leading zero digits add nothing, so any top that covers x and y gives
    the same sums.
    """
    weight_x = weight_y = 0
    if rows.top >= _LOW_PLACES:
        (x, y), (weight_x, weight_y) = _descend(rows, (x, y))
    for u, count_b in rows.low:
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
    rows = _top_rows(m, n)
    (digits,), _ = digit_lists(rows, (n,))
    digits += repeat(0, (min_places or 0) - 1 - rows.top)
    return tuple(reversed(digits))


def digit_lists(rows: Rows, values: Sequence[int]) -> tuple[list[list[int]], list[int]]:
    """Each value's greedy digits over places 0 .. rows.top, least significant first,
    and its b_weights sum, from one pass; the values must be below U_{top+1}."""
    digits = [[] for _ in values]
    rests, weights = list(values), [0] * len(values)
    if rows.top >= _LOW_PLACES:
        rests, weights = _descend(rows, values, digits)
    for v, rest in enumerate(rests):
        for u, count_b in rows.low:
            d, rest = divmod(rest, u)
            digits[v].append(d)
            weights[v] += d * count_b
        digits[v].reverse()
    return digits, weights


def u_rep_value(m: Morphism, digits: Sequence[int]) -> int:
    """sum d_j U_j for a most-significant-first digit string.

    Inverse of normal_u_rep on greedy strings, but accepts any digit
    string, normal or not.
    """
    top = len(digits) - 1
    total = 0
    if top >= _LOW_PLACES:
        total = _upper_value(place_rows(m, top), digits)
        digits = digits[top - _LOW_PLACES + 1:]
    places = _plan(m).places
    return total + sum(d * places[j][0] for j, d in enumerate(reversed(digits)))


def prefix_decomposition(m: Morphism, n: int) -> tuple[tuple[int, int], ...]:
    """Decompose the length-n prefix of the fixed point into morphism powers.

    Returns pairs (power, exponent), highest power first, such that
    (phi^N(A))^{d_N} (phi^{N-1}(A))^{d_{N-1}} ... A^{d_0} equals the
    prefix.  Zero exponents are retained; n = 0 gives the empty tuple.
    """
    if index(n) == 0:
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
    return b_weights(_top_rows(m, n), n)[0]


# --- the blocked pass above the row list ---------------------------------------

def _blocks(rows: Rows):
    """(lo, span, s_lo, s_{lo-1}) for the blocks of places rows.top .. _LOW_PLACES, top first.

    Blocks are aligned on _LOW_PLACES, so the first may span fewer places.
    """
    plan = rows._plan
    lo = _LOW_PLACES + (rows.top - _LOW_PLACES) // plan.width * plan.width
    s0, s1 = rows.window(lo)
    span = rows.top - lo + 1
    while True:
        yield lo, span, s0, s1
        if lo == _LOW_PLACES:
            return
        s0, s1 = _step_down(plan, s0, s1, plan.width)
        lo, span = lo - plan.width, plan.width


def _descend(rows: Rows, values: Sequence[int],
             digits: list[list[int]] | None = None) -> tuple[list[int], list[int]]:
    """The greedy pass over places rows.top .. _LOW_PLACES for each value.

    Returns each value's rest, now below U_{_LOW_PLACES}, and its
    sum_j d_j |phi^j(A)|_B over those places.  With `digits`, one list
    per value, each value's digits are appended to its list, top first.
    """
    plan = rows._plan
    simple, field = plan.simple, plan.field
    sign, mask = 2 * simple - 1, (1 << field) - 1  # the sign of u1
    rests, weights = list(values), [0] * len(values)
    for lo, span, s0, s1 in _blocks(rows):
        cut = plan.width - span
        u0, u1, packed = plan.u0[cut:], plan.u1[cut:], plan.packed[cut:]
        shift = max(s0.bit_length() - plan.precision, 0)
        # U_j / 2^S lies in [unit + low, unit + high], where low is the sum of
        # the negative coefficients and high that of the positive ones: u1 in
        # the non-simple family, none in the simple one
        units = list(map(add, map(mul, u0, repeat(s0 >> shift)), map(mul, u1, repeat(s1 >> shift))))
        edges = units if simple or not shift else list(map(add, units, u1))
        for v, rest in enumerate(rests):
            proxy = head = rest >> shift
            remainders = [proxy := proxy % unit for unit in units]
            block = list(map(floordiv, [head, *remainders[:-1]], units))
            fields = sum(map(mul, block, packed))
            x, y = fields & mask, sign * (fields >> field & mask)
            # the rest over 2^S lies in [proxy, proxy + 1), and the digits
            # widen that by sum d high below and by -sum d low above; a digit
            # is certain when its widened rest lies in [0, unit + low), and
            # unit + low <= U_j / 2^S
            below, above = (x + simple * y, -(1 - simple) * y) if shift else (0, 0)
            if min(remainders) >= below and max(map(sub, remainders, edges)) + above < 0:
                rest -= x * s0 + y * s1
            else:
                # a rest too near a place's edge: this block by exact division
                block = []
                for a, b in zip(u0, u1):
                    digit, rest = divmod(rest, a * s0 + b * s1)
                    block.append(digit)
                fields = sum(map(mul, block, packed))
            rests[v] = rest
            weights[v] += ((fields >> 2 * field & mask) * s0
                           + (sign * (fields >> 3 * field) + (1 - simple) * block[-1]) * s1)
            if digits is not None:
                digits[v] += block
    return rests, weights


def _upper_value(rows: Rows, digits: Sequence[int]) -> int:
    """sum d_j U_j over the places rows.top .. _LOW_PLACES of a top-first digit string."""
    plan = rows._plan
    total = 0
    for lo, span, s0, s1 in _blocks(rows):
        cut = plan.width - span
        block = digits[rows.top - lo - span + 1:rows.top - lo + 1]
        total += sum(map(mul, block, plan.u0[cut:])) * s0 + sum(map(mul, block, plan.u1[cut:])) * s1
    return total
