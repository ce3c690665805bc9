"""Closed-form Abelian complexity AC(n) for both morphism families.

AC(n) is the number of distinct Parikh vectors among factors of length n
of the fixed point.  Because consecutive equal-length factors change their
B-count by at most one, the realized B-counts form an interval and

    AC(n) = 1 + |w_n|_B - |v_n|_B,

where w_n and v_n are the length-n prefixes of the B-richest and
B-poorest words.  Both counts have closed forms in the greedy U digits of
n, giving AC(n) in O(log n) exact integer operations.  All matrix terms
are evaluated through `numeration`, which computes the row vectors
(1,0) M^k; no rational matrix inverse is ever formed.  Stage lengths and
the telescoped sum T below are partial sums of sequences with
x_{k+2} = t x_{k+1} - d x_k (t, d the trace and determinant of M), so
each costs O(1): the closed form in `numeration` divides exactly by
det(I - M), which is -q or 1 - p - q, or by det(I - M^2) for a sum over
every other index.

Everything in the formulas but the digits depends on n only through its
stage: k = J + 2 in the non-simple family and s = M + N in the simple
one, where it changes once between U_J and U_{J+1}.  One walk,
extremal._spans, cuts a range of n into spans of one stage and one top J;
_record turns a span's stage into AC(n) = base +- W(x) - W(y), W the
greedy pass, and _value_windows walks the span's n from one top window.
_ac_values streams those values in windows of at most 4,096 bare ints:
the CLI writes each at once, ac_range chains them into ACResult records,
and ac and ac_nonsimple are its one-n case.  x and y move by one per n,
and W(x + 1) - W(x) is the letter u_x of the fixed point, 1 for B and 0
for A.  So from the digits of x and y at a window's start,
numeration._letters reads the two slices of u that they cross, in
O(window) string work.  A span's first window takes one greedy pass for
those digits, and each later one moves the last one's below place 24,
so a long range at a large n takes about one pass per span.  A span of
one n takes the pass alone and keeps no digits.

ac_via_prefix_counts, 1 + |w_n|_B - |v_n|_B, composes the public stage
choice and B-count functions: it shares ac's greedy pass, _spans, stage
kernels and Rows.sum, but not _record.  _prefix_differences reads
ac_range's spans and records but takes a fresh greedy pass per n, never
a letter slice, so `verify` checks each letter _value_windows reads.
"""

from __future__ import annotations

from itertools import accumulate, chain, repeat
from operator import sub
from typing import Iterable, Iterator, NamedTuple

from .extremal import (_spans, _stage_length, _w_stage_nonsimple, choose_k_nonsimple,
                       choose_mn_simple, v_b_count_simple, w_b_count_nonsimple,
                       w_b_count_simple)
from .numeration import Rows, _advance, _letters, b_weights, digit_lists, prefix_b_count
from .words import B, Family, Morphism, _integer, _shown

METHOD_CLOSED_FORM = "closed_form"
METHOD_STURMIAN = "sturmian"

#: The most n of one window of _value_windows, whose letter slices and values it holds.
_WINDOW = 4096
#: Letters to their B-counts, 0 for A and 1 for B.
_BITS = bytes.maketrans(b"AB", b"\0\1")


class ACResult(NamedTuple):
    """A computed complexity value and the route that produced it."""

    n: int
    value: int
    method: str


def _record(rows: Rows, stage: int) -> tuple:
    """The closed form over one stage of extremal._spans, from the rows at its top J.

    Returns (rows, low, high, base, sign, x0, y0): AC(n) = base + sign W(x)
    - W(y) for low <= n < high, with x = n - x0, y = sign (n - y0) and W
    the b_weights sum over the returned rows.

    Non-simple, stage k: the formula is ac_nonsimple's, over rows at k:
    |phi^j(A)|_B = U_{j-1} for j >= 1 and |A|_B = 0 in this family, so
    W(n) and W(U_{k+1} - n) are its two digit sums.

    Simple with q > 1, stage s = M + N, (M, N) = (s // 2, (s + 1) // 2):
    with (c) the greedy digits of n - |w^(N)| and (d) those of n - |v^(M)|,
    both padded to J+1 places,

        AC(n) = 2 + (q-1) * (T - (M-N+1) |phi^(2N)(A)|_B)
                  + sum_i (c_i - d_i) |phi^i(A)|_B,

    where T = sum_{i=0..N-1} (|phi^(2i+1)(A)|_B - |phi^(2i)(A)|_B) is the
    telescoped form of the alternating matrix-power sum, kept in pure
    integer arithmetic.  With L of extremal._stage_length, |w^(N)| =
    L(2N - 1) and |v^(M)| = L(2M) are L(s - 1) and L(s) in the order of
    s's parity, and L(s) <= n < L(s + 1).
    """
    if rows.m.family is Family.NONSIMPLE:
        k_rows = rows.at(stage)
        length, count, complement = _w_stage_nonsimple(k_rows, stage)
        return k_rows, rows.u(rows.top), length + 1, 1 + count, -1, 0, complement
    below, low, high = (_stage_length(rows, t) for t in (stage - 1, stage, stage + 1))
    # T - (M-N+1) |phi^(2N)(A)|_B: the B-sum up to 2N - 1 (w's) less that up to 2M (v's)
    sums = rows.sum((0, 1), stage - 1, 2) - rows.sum((0, 1), stage, 2)
    x0, y0, sums = (low, below, -sums) if stage % 2 else (below, low, sums)
    return rows, low, high, 2 + (rows.m.q - 1) * sums, 1, x0, y0


def _value_windows(spans: Iterable[tuple]) -> Iterator[list[int]]:
    """AC(n) for the n of each span (record, first, last) of extremal._spans, stage by _record.

    Each record gives AC(n) = base + sign W(x) - W(y), and n rises
    monotonically, so the stage bracket is checked at first and last.  A
    span of one n takes the full pass alone.  A longer one is read in
    windows of at most _WINDOW n: W(x + 1) - W(x) is the letter u_x of the
    fixed point, 1 for B, so the steps of a window are two
    numeration._letters slices from the digits of x and y at its start.
    The first window's digits come from one pass, and each later one's
    from the last one's by numeration._advance, or by a pass where a
    carry reaches place 24.  x rises; y rises (sign 1) or falls (sign -1),
    and then y is taken at the window's last n and W(y) at its first adds
    the slice's B's.
    """
    for (rows, low, high, base, sign, x0, y0), first, last in spans:
        assert low <= first and last < high, (rows.m, first, last, low, high)
        plan, passed = rows._plan, None
        for start in range(first, last + 1, _WINDOW):
            steps = min(last - start, _WINDOW - 1)  # the window is start .. start + steps
            at = start - x0, sign * (start + (steps if sign < 0 else 0) - y0)  # y at the last n if it falls
            if first == last:
                (weight_x, weight_y), moves = b_weights(rows, *at), ()
            else:
                # the last window's digits and weights, moved here, or a pass on a far carry
                passed = passed and [_advance(plan, *pair, now - then)
                                     for pair, now, then in zip(passed, at, was)]
                if not passed or None in passed:
                    passed = digit_lists(rows, at)
                was = at
                (weight_x, digits_x), (weight_y, digits_y) = passed
                letters_y = _letters(plan, digits_y, 0, steps)
                bits_x = _letters(plan, digits_x, 0, steps).encode().translate(_BITS)
                bits_y = letters_y.encode().translate(_BITS)
                if sign < 0:  # W(y) at the first n adds the slice's B's
                    weight_y += letters_y.count(B)
                    moves = map(sub, bits_y[::-1], bits_x)
                else:
                    moves = map(sub, bits_x, bits_y)
            values = list(accumulate(moves, initial=base + sign * weight_x - weight_y))
            assert min(values) >= 2, (rows.m, start, min(values))
            yield values


def ac_nonsimple(m: Morphism, n: int, k: int | None = None) -> int:
    """AC(n) for the non-simple family.

    AC(n) = 1 + U_k - sum_{j=1..k} (d_j + e_j) U_{j-1}, where (d) are the
    greedy digits of n and (e) those of U_{k+1} - n, both padded to k+1
    places.  Any k with n <= |w^(k)| is admissible and gives the same
    value; by default k comes from choose_k_nonsimple.
    """
    if m.family is not Family.NONSIMPLE:
        raise ValueError(f"ac_nonsimple requires a non-simple morphism, got {m.family.value}")
    n, k = _integer(n, "n"), None if k is None else _integer(k, "k", 0)
    rows, stage, _, _ = next(_spans(m, n, n))
    record = _record(rows, stage if k is None else k)  # high is |w^(k)| + 1
    if n >= record[2]:
        raise ValueError(f"k={_shown(k)} is inadmissible: n={_shown(n)} exceeds "
                         f"|w^({_shown(k)})|={_shown(record[2] - 1)}")
    return next(_value_windows(((record, n, n),)))[0]


def _ac_values(m: Morphism, start: int, stop: int) -> tuple[str, Iterator[list[int]]]:
    """The method, and AC(n) for n = start..stop in windows, lists of at most _WINDOW
    bare ints, unchecked: the one family dispatch.  Sturmian windows are all 2."""
    if m.family is Family.SIMPLE and m.q == 1:
        sizes = (min(_WINDOW, stop + 1 - n) for n in range(start, stop + 1, _WINDOW))
        return METHOD_STURMIAN, ([2] * size for size in sizes)
    spans = ((_record(rows, stage), first, last) for rows, stage, first, last in _spans(m, start, stop))
    return METHOD_CLOSED_FORM, _value_windows(spans)


def ac_range(m: Morphism, start: int, stop: int) -> Iterator[ACResult]:
    """AC(n) for n = start..stop inclusive, in order, as a lazy iterator.

    Each stage's constants are computed once, when n enters it, so memory
    stays constant however long the range.  Raises at once: TypeError
    unless start and stop are integers, ValueError unless 1 <= start <= stop.
    """
    start, stop = _integer(start, "start"), _integer(stop, "stop", None)
    if stop < start:
        raise ValueError(f"stop={_shown(stop)} is below start={_shown(start)}")
    method, windows = _ac_values(m, start, stop)
    return map(ACResult, range(start, stop + 1), chain.from_iterable(windows), repeat(method))


def ac(m: Morphism, n: int) -> ACResult:
    """AC(n) with family dispatch: the one-n case of ac_range.

    Simple with q = 1 is Sturmian, constant 2; simple with q > 1 and
    non-simple go through their closed forms.  n must be >= 1: the
    complexity is defined over positive lengths only.
    """
    n = _integer(n, "n")
    return next(ac_range(m, n, n))


def _prefix_differences(m: Morphism, start: int, stop: int) -> Iterator[int]:
    """1 + |w_n|_B - |v_n|_B for n = start..stop, in order, over extremal._spans: verify's walk.

    Each span's _record gives the stage bracket and AC(n) = base + sign
    W(x) - W(y); each n then takes one fresh greedy pass over x and y,
    never a letter slice, so this walk checks the letters of _value_windows'
    slices against passes of their own.  Every n asserts its stage bracket.
    """
    for rows, stage, first, last in _spans(m, start, stop):
        rows, low, high, base, sign, x0, y0 = _record(rows, stage)
        for n in range(first, last + 1):
            assert low <= n < high, (m, n, low, high)
            weight_x, weight_y = b_weights(rows, n - x0, sign * (n - y0))
            yield base + sign * weight_x - weight_y


def ac_via_prefix_counts(m: Morphism, n: int) -> int:
    """AC(n) = 1 + |w_n|_B - |v_n|_B from the two prefix B-counts.

    For the non-simple family |v_n|_B is the B-count of the fixed-point
    prefix itself.  Each count comes from its public function, which
    builds its own windows and checks n's stage bracket; the greedy pass,
    _spans, the stage kernels and Rows.sum are those of ac.  Raises
    UnsupportedConstructionError for simple q = 1, which has no v and w.
    """
    n = _integer(n, "n")
    if m.family is Family.NONSIMPLE:
        return 1 + w_b_count_nonsimple(m, n, choose_k_nonsimple(m, n)) - prefix_b_count(m, n)
    m_stage, n_stage, _ = choose_mn_simple(m, n)
    return 1 + w_b_count_simple(m, n, n_stage) - v_b_count_simple(m, n, m_stage)


def max_ac(m: Morphism) -> int:
    """Maximum of AC over all n.

    2 + floor((p-1)/(p+1-q)) for the simple family and
    1 + ceil((p-1)/q) for the non-simple family.
    """
    if m.family is Family.SIMPLE:
        return 2 + (m.p - 1) // (m.p + 1 - m.q)
    return 1 + -(-(m.p - 1) // m.q)


def balance_bound(m: Morphism) -> int:
    """Optimal balance bound: any two equal-length factors differ in
    A-count by at most this, and the bound is attained.  Equals max AC - 1."""
    return max_ac(m) - 1
