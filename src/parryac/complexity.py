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
stage, which changes when n reaches the next U_J.  One kernel per family
walks consecutive n, computing a stage's terms when n enters it; ac_range
streams its values, and ac and ac_nonsimple are its one-n case.
"""

from __future__ import annotations

from functools import partial
from itertools import repeat
from typing import Iterator, NamedTuple

from .extremal import (
    _split_stage,
    _w_stage_length,
    _wv_stage_length,
    choose_k_nonsimple,
    choose_mn_simple,
    v_b_count_simple,
    w_b_count_nonsimple,
    w_b_count_simple,
)
from .numeration import b_weights, place_rows, prefix_b_count, top_index
from .words import Family, Morphism, UnsupportedConstructionError, V, W

METHOD_CLOSED_FORM = "closed_form"
METHOD_STURMIAN = "sturmian"


class ACResult(NamedTuple):
    """A computed complexity value and the route that produced it."""

    n: int
    value: int
    method: str


def _nonsimple_values(m: Morphism, start: int, stop: int, k: int | None = None) -> Iterator[int]:
    """ac_nonsimple's formula for n = start..stop, one stage N at a time.

    The default k is N + 2 for the N with U_N <= n < U_{N+1}, as in
    choose_k_nonsimple.  k, U_k, U_{k+1} and |w^(k)| change only when n
    reaches U_{N+1}; per n there remain the admissibility check and the
    two digit passes.
    """
    n = start
    n_idx = top_index(m, n)
    while n <= stop:
        k_idx = n_idx + 2 if k is None else k
        # |phi^j(A)|_B = U_{j-1} for j >= 1 and |A|_B = 0 in this family, so
        # b_weights gives the two sums of the formula
        rows = place_rows(m, k_idx)
        w_length = _w_stage_length(rows, k_idx)
        u_k, u_k1 = rows.u(k_idx), rows.u(k_idx + 1)
        last = min(stop, rows.u(n_idx + 1) - 1)
        for n in range(n, last + 1):
            if n > w_length:
                raise ValueError(
                    f"k={k_idx} is inadmissible: n={n} exceeds |w^({k_idx})|={w_length}")
            weight_d, weight_e = b_weights(rows, n, u_k1 - n)
            value = 1 + u_k - weight_d - weight_e
            assert value >= 2, (m, n, k_idx, value)
            yield value
        n, n_idx = last + 1, n_idx + 1


def _simple_values(m: Morphism, start: int, stop: int) -> Iterator[int]:
    """AC(n) for the simple family with q > 1, n = start..stop.

    With stages (M, N, J) from choose_mn_simple, (c) the greedy digits of
    n - |w^(N)| and (d) those of n - |v^(M)|, both padded to J+1 places:

        AC(n) = 2 + (q-1) * (T - (M-N+1) |phi^(2N)(A)|_B)
                  + sum_i (c_i - d_i) |phi^i(A)|_B,

    where T = sum_{i=0..N-1} (|phi^(2i+1)(A)|_B - |phi^(2i)(A)|_B) is the
    telescoped form of the alternating matrix-power sum, kept in pure
    integer arithmetic.

    Within U_J <= n < U_{J+1}, (M, N) takes one of two values on either
    side of a threshold (extremal._split_stage).  Each side's stage lengths
    and constant term are computed once; per n there remain the
    stage-bracket check and the two digit passes.
    """
    n = start
    j_idx = top_index(m, n)
    while n <= stop:
        rows = place_rows(m, j_idx)
        stage_last = min(stop, rows.u(j_idx + 1) - 1)
        stage_length = partial(_wv_stage_length, rows)
        threshold, below, above = _split_stage(rows)
        for (m_stage, n_stage), last in ((below, min(stage_last, threshold - 1)),
                                         (above, stage_last)):
            if n > last:
                continue
            w_low, w_high = stage_length(W, n_stage), stage_length(W, n_stage + 1)
            v_low, v_high = stage_length(V, m_stage), stage_length(V, m_stage + 1)
            # T - (M-N+1) |phi^(2N)(A)|_B: M is N - 1 or N, so the overlap
            # term extends T's even sum to 2M
            base = 2 + (m.q - 1) * (rows.sum((0, 1), 2 * n_stage - 1, 2)
                                    - rows.sum((0, 1), 2 * m_stage, 2))
            for n in range(n, last + 1):
                assert w_low <= n < w_high and v_low <= n < v_high, (m, n, m_stage, n_stage)
                weight_c, weight_d = b_weights(rows, n - w_low, n - v_low)
                value = base + weight_c - weight_d
                assert value >= 2, (m, n, value)
                yield value
            n = last + 1
        j_idx += 1


def ac_nonsimple(m: Morphism, n: int, k: int | None = None) -> int:
    """AC(n) for the non-simple family.

    AC(n) = 1 + U_k - sum_{j=1..k} (d_j + e_j) U_{j-1}, where (d) are the
    greedy digits of n and (e) those of U_{k+1} - n, both padded to k+1
    places.  Any k with n <= |w^(k)| is admissible and gives the same
    value; by default k comes from choose_k_nonsimple.
    """
    if m.family is not Family.NONSIMPLE:
        raise ValueError(f"ac_nonsimple requires a non-simple morphism, got {m.family.value}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return next(_nonsimple_values(m, n, n, k))


def ac_range(m: Morphism, start: int, stop: int) -> Iterator[ACResult]:
    """AC(n) for n = start..stop inclusive, in order, as a lazy iterator.

    Each stage's constants are computed once, when n enters it, so memory
    stays constant however long the range.  Raises ValueError at once
    unless 1 <= start <= stop.
    """
    if start < 1:
        raise ValueError(f"start must be a positive integer, got {start}")
    if stop < start:
        raise ValueError(f"stop={stop} is below start={start}")
    lengths = range(start, stop + 1)
    if m.family is Family.SIMPLE and m.q == 1:
        return map(ACResult, lengths, repeat(2), repeat(METHOD_STURMIAN))
    values = _simple_values if m.family is Family.SIMPLE else _nonsimple_values
    return map(ACResult, lengths, values(m, start, stop), repeat(METHOD_CLOSED_FORM))


def ac(m: Morphism, n: int) -> ACResult:
    """AC(n) with family dispatch: the one-n case of ac_range.

    Simple with q = 1 is Sturmian, constant 2; simple with q > 1 and
    non-simple go through their closed forms.  n must be >= 1: the
    complexity is defined over positive lengths only.
    """
    if n < 1:
        raise ValueError(
            f"n must be a positive integer, got {n}; Abelian complexity is "
            "defined only for factor lengths n >= 1")
    return next(ac_range(m, n, n))


def ac_via_prefix_counts(m: Morphism, n: int) -> int:
    """AC(n) = 1 + |w_n|_B - |v_n|_B from the two prefix B-counts.

    An independent route through the extremal-word counts; must agree with
    the closed form everywhere.  For the non-simple family |v_n|_B is the
    B-count of the fixed-point prefix itself.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if m.family is Family.NONSIMPLE:
        k = choose_k_nonsimple(m, n)
        return 1 + w_b_count_nonsimple(m, n, k) - prefix_b_count(m, n)
    if m.q == 1:
        raise UnsupportedConstructionError(
            "prefix-difference route needs the v/w construction, absent for simple q = 1")
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
