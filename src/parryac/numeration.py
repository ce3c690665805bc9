"""The length sequence U_k = |phi^k(A)| and its greedy numeration system.

U_k, the sum of the row (1, 0) M^k = (|phi^k(A)|_A, |phi^k(A)|_B) of the
incidence matrix M, starts at 1 and strictly increases, so it is the base
of a positional numeration: every n >= 0 has a greedy digit string
(d_N, ..., d_0), most significant first, with n = sum d_j U_j and every
digit at most p.  The length-n prefix of the fixed point u is then
(phi^N(A))^{d_N} ... (phi(A))^{d_1} A^{d_0}.  It is phi of the prefix of
length a = sum_{j>=1} d_j U_{j-1}, then A^{d_0}, a proper prefix of
phi(u_a); so u[n:] = phi(u[a:])[d_0:].  _letters reads a slice of u from
one place down, about 1/s as long for s >= 2 the shortest letter image,
and _advance moves digits by the same identity j places down.

One sequence gives both columns of the rows.  With t and d the trace and
determinant of M (p + 1 and p - q in the non-simple family, p and -q in
the simple one), let s_{-1} = 0, s_0 = 1 and s_{j+1} = t s_j - d s_{j-1}.
Then |phi^j(A)|_B = s_{j-1}, and U_j = s_j (non-simple) or s_j + s_{j-1}
(simple), so the window (s_j, s_{j-1}) holds row j.  A window comes from
2x2 matrix powering, by doubling in O(log j) products, and gives row
j + i, i <= 128, as s_{j+i} = s_i s_j - d s_{i-1} s_{j-1}: rows are read
upward only.  Each morphism keeps one plan, built whole, with the rows
j < 128: they cover every n below about 2^88 and end every pass.

Above the list, the greedy pass (`digit_lists`; `b_weights` drops the
digits) splits the places at the largest h = 128 2^k below the top and
recurses.  The digits at places >= h are the greedy digits of one integer
m, and with W(m) = sum_i e_i |phi^i(A)|_B over them, U_{i+h} = U_i U_h -
c s_{i-1} s_{h-1} (c = d, or 1 + t + d in the simple family) gives

    x = f(m) + r,  f(m) = m U_h - c s_{h-1} W(m),  0 <= r < U_h,
    W(x) = W(m) s_h + (m - (t + simple) W(m)) s_{h-1} + W(r).

f(m) is the length of phi^h of the length-m prefix, so m is the largest
with f(m) <= x; the odometer steps the digits of its estimate x U_h /
U_{2h} to it.  With U_h / U_{2h} by Newton's iteration, once per pass, a
node costs O(1) products no larger than itself: O(M(L) log L) for L bits.

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
from functools import lru_cache
from itertools import islice, repeat
from operator import index, mul
from typing import Sequence

from .words import (GENERATION_CAP, A, B, CapExceededError, Family, Morphism, _cut_images,
                    _image_prefix, _integer, _shown)

#: Rows j below this are kept per morphism; the greedy pass splits the
#: places above it at _LOW_PLACES 2^k.
_LOW_PLACES = 128
#: Single odometer steps that a split may take after its correction jump.
_MAX_STEPS = 8
#: Letter slices of at most this many letters are read by odometer steps.
_LEAF_LETTERS = 8
#: _advance moves the digits below this place; U_24 >= 2^24 for every closed-form morphism.
_ADVANCE_PLACES = 24


class _Plan:
    """One morphism's recurrence and its rows j < 128.

    s holds s_{-1}, s_0, ..., s_128 and q_coef Q_{-1} = 1, Q_i = -d s_{i-1},
    at index i + 1: a window (s_k, s_{k-1}) gives s_{k+i} = s_i s_k + Q_i
    s_{k-1}.  places holds (U_j, |phi^j(A)|_B) for j < 128.  gap is c in
    U_{i+h} = U_i U_h - c s_{i-1} s_{h-1}.
    """

    __slots__ = ("m", "simple", "trace", "det", "steps", "log2_beta", "s", "q_coef", "places",
                 "gap", "star")

    def __init__(self, m: Morphism):
        self.m = m
        self.simple = simple = 1 if m.family is Family.SIMPLE else 0  # U_j = s_j + simple s_{j-1}
        self.trace, self.det = trace, det = m.p + 1 - simple, m.p - m.q if not simple else -m.q
        self.steps = (trace, det), (trace * trace - 2 * det, det * det)  # of M and of M^2
        self.log2_beta = math.log2(trace) + math.log2((1 + math.sqrt(1 - 4 * det / trace ** 2)) / 2)
        s = [0, 1]  # s_{-1}, s_0, ...
        while len(s) < _LOW_PLACES + 2:
            s.append(trace * s[-1] - det * s[-2])
        self.s, self.q_coef = s, [1, *(-det * s_i for s_i in s[:-1])]  # Q_{-1}, Q_0, ...
        self.places = [(s[j + 1] + simple * s[j], s[j]) for j in range(_LOW_PLACES)]
        self.gap = 1 + trace + det if simple else det
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


def _double(plan: _Plan, s: int, s1: int, bit: int) -> tuple[int, int]:
    """(s_{2j+bit}, s_{2j+bit-1}) from the window (s_j, s_{j-1})."""
    # s_{2j} = s_j^2 - d s_{j-1}^2, s_{2j+1} = s_j (t s_j - 2d s_{j-1})
    # and s_{2j-1} = s_{j-1} (2 s_j - t s_{j-1})
    even = s * s - plan.det * (s1 * s1)
    if bit:
        return s * (plan.trace * s - 2 * plan.det * s1), even
    return even, s1 * (2 * s - plan.trace * s1)


def _window(plan: _Plan, k: int) -> tuple[int, int]:
    """(s_k, s_{k-1}) for k >= 0, by doubling from a window of the s list."""
    if k + 1 < len(plan.s):
        return plan.s[k + 1], plan.s[k]
    shift = k.bit_length() - 7
    s, s1 = _window(plan, k >> shift)
    for bit in range(shift - 1, -1, -1):
        s, s1 = _double(plan, s, s1, k >> bit & 1)
    return s, s1


class Rows:
    """The rows (1, 0) M^j of one morphism, read upward from one window at place `top`.

    Rows j < 128 come from the plan, the others from the window (s_top,
    s_{top-1}): up to 128 places above it as s_{top+i} = s_i s_top + Q_i
    s_{top-1}, any other by doubling.  `at` moves up the same way, so a
    walk over stages pays for one window by doubling.
    """

    __slots__ = ("m", "top", "_plan", "_s_top", "_s_prev")

    def __init__(self, plan: _Plan, top: int, window: tuple[int, int] | None = None):
        self.m, self.top, self._plan = plan.m, top, plan
        self._s_top, self._s_prev = window or _window(plan, top)

    def window(self, j: int) -> tuple[int, int]:
        """(s_j, s_{j-1}), for j >= 0."""
        plan = self._plan
        i = j - self.top
        if 0 <= i < len(plan.s) - 1:
            s, q_coef, s_top, s_prev = plan.s, plan.q_coef, self._s_top, self._s_prev
            return s[i + 1] * s_top + q_coef[i + 1] * s_prev, s[i] * s_top + q_coef[i] * s_prev
        return _window(plan, j)  # below or far above the window, as for an explicit k in ac_nonsimple

    def at(self, j: int) -> Rows:
        """The rows at top j, from this window: by products above it, by doubling below."""
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
        rows read are k + step and k + 2 step, so rows with top at most
        k + step serve it.
        """
        if k < 0:
            return 0
        trace, det = self._plan.steps[step - 1]
        k, lift = k + step, trace - 1  # the sum to k is the sum to k + step less x_{k+step}
        places = self._plan.places
        (u_k, b_k), (u_k1, b_k1) = self.place(k), self.place(k + step)
        # x_j = wa |phi^j(A)|_A + wb |phi^j(A)|_B = wa U_j + wb' |phi^j(A)|_B
        wa, wb = weights
        wb -= wa
        r = k % step
        (u_r, b_r), (u_r1, b_r1) = places[r], places[r + step]
        x0, x1 = wa * u_r + wb * b_r, wa * u_r1 + wb * b_r1
        return (x0 + x1 - trace * x0 + lift * (wa * u_k + wb * b_k) - wa * u_k1 - wb * b_k1) // (1 - trace + det)


def place_rows(m: Morphism, top: int) -> Rows:
    """The rows of places 0 .. top, read from one window at top.

    Callers that read a stage's U_j and sums near top take it once and
    reuse it; b_weights takes from it only the morphism's plan and the top.
    """
    return Rows(_plan(m), top)


def _top_rows(m: Morphism, n: int) -> Rows:
    """The rows at n's top place, the smallest N >= 0 with n < U_{N+1}, from one window."""
    plan = _plan(m)
    # U_j is within a small factor of beta^j, so the estimate is at most a place high:
    # start two below it and step up; the step down is a safety net
    top = max(int((n.bit_length() - 1) / plan.log2_beta) - 2, 0)
    rows = Rows(plan, top)
    while top and rows.u(top) > n:  # n = 0 stops at place 0
        top -= 1
    while rows.u(top + 1) <= n:
        top += 1
    return rows if top == rows.top else rows.at(top)


def u_value(m: Morphism, k: int) -> int:
    """U_k = |phi^k(A)|."""
    k = _integer(k, "index", 0)
    return place_rows(m, k).u(k)


def b_weights(rows: Rows, x: int, y: int = 0) -> tuple[int, int]:
    """sum_j d_j |phi^j(A)|_B over the greedy digits (d) of x, and the same for y.

    rows comes from place_rows(m, top); x and y must be below U_{top+1}.
    The two greedy passes share each U_j = |phi^j(A)|_A + |phi^j(A)|_B, and
    leading zero digits add nothing, so any top that covers x and y gives
    the same sums.
    """
    plan, top = rows._plan, rows.top
    if top >= _LOW_PLACES:
        splits = _splits(plan, top)
        return _greedy(plan, splits, x, top)[0], _greedy(plan, splits, y, top)[0]
    # two values in one loop that skips zero digits: the prefix-difference
    # route in verify reads W(x) and W(y) here per n, and two _greedy calls
    # cost about 1 us more
    weight_x = weight_y = 0
    for u, count_b in plan.places[top::-1]:
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
    sum(d_j * U_j) == n either way.  n = 0 yields (0,).  A min_places over
    GENERATION_CAP raises CapExceededError before any padding.
    """
    n = _integer(n, "n", 0)
    min_places = 1 if min_places is None else _integer(min_places, "min_places")
    if min_places > GENERATION_CAP:
        raise CapExceededError(f"requested {_shown(min_places)} places, generation cap is {GENERATION_CAP}")
    rows = _top_rows(m, n)
    (digits,), _ = digit_lists(rows, (n,))
    digits += repeat(0, min_places - 1 - rows.top)
    return tuple(reversed(digits))


def digit_lists(rows: Rows, values: Sequence[int]) -> tuple[list[list[int]], list[int]]:
    """Each value's greedy digits over places 0 .. rows.top and its b_weights sum, from one pass.

    The values must be below U_{top+1}.  The lists are those the pass built, least significant
    first like every digit list here; only normal_u_rep's output and u_rep_value's input are not.
    """
    splits = _splits(rows._plan, rows.top) if rows.top >= _LOW_PLACES else []
    passes = [_greedy(rows._plan, splits, value, rows.top) for value in values]
    return [digits for _, digits in passes], [weight for weight, _ in passes]


def u_rep_value(m: Morphism, digits: Sequence[int]) -> int:
    """sum d_j U_j for a most-significant-first digit string.

    Inverse of normal_u_rep on greedy strings, but accepts any digit
    string, normal or not; each digit must be an integer.
    """
    digits, plan = list(map(index, digits))[::-1], _plan(m)
    total, weight = _columns(plan, _windows(plan, len(digits) - 1), digits, 0, len(digits))
    return total + plan.simple * weight


def prefix_decomposition(m: Morphism, n: int) -> tuple[tuple[int, int], ...]:
    """Decompose the length-n prefix of the fixed point into morphism powers.

    Returns pairs (power, exponent), highest power first, such that
    (phi^N(A))^{d_N} (phi^{N-1}(A))^{d_{N-1}} ... A^{d_0} equals the
    prefix.  Zero exponents are retained; n = 0 gives the empty tuple.
    """
    if _integer(n, "n", 0) == 0:
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
    n = _integer(n, "n", 0)
    return b_weights(_top_rows(m, n), n)[0]


def _letters(plan: _Plan, digits: list[int], start: int, length: int) -> str:
    """u[pos : pos + length] of the fixed point u, pos the value of the greedy digits[start:].

    With d_0 = digits[start] and a the value of digits[start + 1:], u[pos:]
    = phi(u[a:])[d_0:], where A^{d_0} is a proper prefix of phi(u_a).  Every
    letter image has at least s = q + 1 - simple >= 2 letters, so the
    1 + ceil((length - 1) / s) letters of u from a cover the slice, and each
    level is shorter than the last.  At most _LEAF_LETTERS letters are the
    gains of as many odometer steps.  No level builds more than length
    letters and one cut image, whatever p is.
    """
    if length <= _LEAF_LETTERS:
        stepped = digits[start:] + [0] * (length + 2)  # room for the steps' carries
        return "".join([(A, B)[plan.up(stepped)] for _ in range(length)])
    m, shortest = plan.m, plan.m.q + 1 - plan.simple
    source = _letters(plan, digits, start + 1, 1 + (length + shortest - 2) // shortest)
    first = digits[start] if start < len(digits) else 0
    count, tail = (m.p, B) if source[0] == A else (m.q, "" if plan.simple else B)
    head = A * min(count - first, length) + tail
    return _image_prefix(source[1:], _cut_images(m, length), length - len(head), head)[:length]


def _advance(plan: _Plan, digits: list[int], weight: int, by: int) -> tuple[list[int], int] | None:
    """The greedy digits and b_weights sum of value + by, from the value's, or None on a carry at j.

    With j = _ADVANCE_PLACES, a the value of digits[j:] and r that of
    digits[:j], the value is |phi^j(u[:a])| + r with r < |phi^j(u_a)|.  While
    r + by stays in [0, |phi^j(u_a)|), the places >= j keep their digits and
    those below j are the greedy digits of r + by; otherwise, or when there
    is no place j, the result is None.  The cost is O(j) small steps and one
    copy of the list, however large the value.
    """
    j, places = _ADVANCE_PLACES, plan.places
    if len(digits) <= j:
        return None
    # |phi^j(u_a)| is U_j, or |phi^j(B)| = U_{j+1} - p U_j, as phi^{j+1}(A) = phi^j(A)^p phi^j(B)
    size = places[j][0] if _letters(plan, digits, j, 1) == A else places[j + 1][0] - plan.m.p * places[j][0]
    column, low_weight = _columns(plan, [], digits, 0, j)
    low = column + plan.simple * low_weight + by
    if not 0 <= low < size:
        return None
    moved_weight, moved = _greedy(plan, [], low, j - 1)
    return moved + digits[j:], weight - low_weight + moved_weight


# --- the split recursion above the row list --------------------------------------

def _splits(plan: _Plan, top: int) -> list[tuple[int, ...]]:
    """(h, U_h, G, s_{h-1}, s_h - t s_{h-1}, S) for the splits h = 128 2^k <= top of one pass.

    G = c s_{h-1} and S = 2^(2b + 40) U_h / U_{2h}, b the bits of U_h.  U_{2h} is the next window's,
    or at the last split U_h^2 - c s_{h-1}^2 with both cut to 84 bits over its quotients' U_{top-h+2}.
    """
    windows = _windows(plan, top)
    units = [s0 + plan.simple * s1 for s0, s1 in windows]
    h, u, s1 = _LOW_PLACES << len(windows) - 1, units[-1], windows[-1][1]
    cut = max(u.bit_length() - int((top - h + 2) * plan.log2_beta) - 84, 0)
    u, s1 = u >> cut, s1 >> cut
    pairs = [*zip(units, units[1:], repeat(0)), (u, u * u - plan.gap * s1 * s1, cut)]
    scales = [u * _inverse(double, u.bit_length() + 40) >> double.bit_length() - u.bit_length() << cut
              for u, double, cut in pairs]
    return [(_LOW_PLACES << k, u, plan.gap * s1, s1, s0 - plan.trace * s1, scale)
            for k, ((s0, s1), u, scale) in enumerate(zip(windows, units, scales))]


def _windows(plan: _Plan, top: int) -> list[tuple[int, int]]:
    """(s_h, s_{h-1}) for h = 128 2^k <= top, by one doubling each from the s list."""
    windows = [(plan.s[_LOW_PLACES + 1], plan.s[_LOW_PLACES])]
    while _LOW_PLACES << len(windows) <= top:
        windows.append(_double(plan, *windows[-1], 0))
    return windows


def _inverse(a: int, bits: int) -> int:
    """About 2^(2 bits) / a', a' the top `bits` bits of a, by Newton's iteration from half as many."""
    a >>= a.bit_length() - bits
    if bits <= 256:
        return (1 << 2 * bits) // a
    half = bits // 2 + 16
    y = _inverse(a, half) << bits - half
    return y + (y * ((1 << 2 * bits) - a * y) >> 2 * bits)


def _quotient(x: int, u: int, scale: int) -> int:
    """About x U_h / U_{2h} = x S / 2^(2b + 40), the m with f(m) = x, to a unit or two, from
    |x| >= U_h and S cut to 40 bits more than the quotient has."""
    cut = max(2 * u.bit_length() - x.bit_length() - 40, 0)
    return (x >> cut) * (scale >> cut) >> 2 * (u.bit_length() - cut) + 40


def _greedy(plan: _Plan, splits: list[tuple[int, ...]], x: int, top: int) -> tuple[int, list[int]]:
    """The W of x < U_{top+1} and its digits over places 0 .. top, least significant first.

    A leaf reverses its top-first divisions once.  A split node steps its
    estimate's list in place and joins the lower half's list below it.
    """
    if top < _LOW_PLACES:
        digits, weight = [], 0
        for u, count_b in plan.places[top::-1]:
            digit, x = divmod(x, u)
            digits.append(digit)
            weight += digit * count_b
        digits.reverse()
        return weight, digits
    # x's digits at places >= h, the largest split <= top, are those of m, the largest f(m) <= x
    h, u, g, s1, lag, scale = splits[(top // _LOW_PLACES).bit_length() - 1]
    if x < u:  # m = 0: only the lower half has digits
        weight, digits = _greedy(plan, splits, x, h - 1)
        digits += repeat(0, top - h + 1)
        return weight, digits
    m = _quotient(x, u, scale)
    weight, digits = _greedy(plan, splits, m, top - h + 1)  # with a spare place
    rest, width = x - m * u + g * weight, u - g  # f(m + 1) - f(m) = U_h - G (W(m + 1) - W(m))
    if not 0 <= rest < width:  # the estimate may be off: step its digits to m
        digits.append(0)  # room for a scan past the top of a simple-family run
        # far off, as by about half a unit per place of m on 20-bit places, jump by rest's own
        # estimate: list-only steps and one update of rest; W moves by 0 or 1 a step
        jump = max(_quotient(rest, u, scale), -m) if not -u <= rest < u else 0
        assert abs(jump) <= top - h + 1 + _MAX_STEPS, (plan.m, top, jump)  # m's places + a few
        gain = sum(plan.up(digits) for _ in range(jump)) + sum(plan.down(digits) for _ in range(-jump))
        m, weight, rest = m + jump, weight + gain, rest - jump * u + g * gain
        for _ in range(_MAX_STEPS + 1):  # down while f(m) > x, up while f(m + 1) <= x
            step = -1 if rest < 0 else 1 if rest >= width else 0
            if not step:
                break
            gain = plan.down(digits) if step < 0 else plan.up(digits)
            if step > 0 and rest < u - g * gain:  # f(m + 1) > x
                plan.down(digits)
                break
            m, weight, rest = m + step, weight + gain, rest - step * u + g * gain
        else:
            raise AssertionError(f"{plan.m}: no split at place {h} within {_MAX_STEPS} steps")
    assert not any(digits[top - h + 1:]), (plan.m, top)
    del digits[top - h + 1:]
    low_weight, low = _greedy(plan, splits, rest, h - 1)
    low += digits
    return s1 * (m - plan.simple * weight) + lag * weight + low_weight, low


def _columns(plan: _Plan, windows: list[tuple[int, int]], digits: Sequence[int],
             start: int, stop: int) -> tuple[int, int]:
    """(sum d_j s_j, sum d_j s_{j-1}) over digits[start:stop], least significant first, any alike."""
    top = stop - start - 1
    if top < _LOW_PLACES:
        low = digits[start:stop]
        return sum(map(mul, low, islice(plan.s, 1, None))), sum(map(mul, low, plan.s))
    k = (top // _LOW_PLACES).bit_length() - 1
    (s0, s1), h = windows[k], _LOW_PLACES << k
    high, weight = _columns(plan, windows, digits, start + h, stop)
    rest_high, rest_weight = _columns(plan, windows, digits, start, start + h)
    return (s0 * high - plan.det * s1 * weight + rest_high,
            s1 * high + (s0 - plan.trace * s1) * weight + rest_weight)
