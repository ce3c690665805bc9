"""Closed-form Abelian complexity AC(n) for both morphism families.

AC(n) is the number of distinct Parikh vectors among factors of length n
of the fixed point.  Because consecutive equal-length factors change their
B-count by at most one, the realized B-counts form an interval and

    AC(n) = 1 + |w_n|_B - |v_n|_B,

where w_n and v_n are the length-n prefixes of the B-richest and
B-poorest words.  Both counts have closed forms in the greedy U digits of
n, giving AC(n) in O(log n) exact integer operations.  All matrix terms
are evaluated through the cached row vectors (1,0) M^k; no rational
matrix inverse is ever formed.  Stage lengths and the telescoped sum T
below are partial sums of sequences with x_{k+2} = t x_{k+1} - d x_k
(t, d the trace and determinant of M), so each costs O(1): the closed
form in `numeration` divides exactly by det(I - M), which is -q or
1 - p - q, or by det(I - M^2) for a sum over every other index.
"""

from __future__ import annotations

from typing import NamedTuple

from .extremal import (
    choose_k_nonsimple,
    choose_mn_simple,
    v_b_count_simple,
    w_b_count_nonsimple,
    w_b_count_simple,
    w_stage_length_nonsimple,
    wv_stage_length_simple,
)
from .numeration import b_weight, normal_u_rep, power_rows, prefix_b_count, recurrence_sum, u_value
from .words import Family, Morphism, UnsupportedConstructionError, V, W

METHOD_CLOSED_FORM = "closed_form"
METHOD_PREFIX_DIFFERENCE = "prefix_difference"
METHOD_STURMIAN = "sturmian"


class ACResult(NamedTuple):
    """A computed complexity value and the route that produced it."""

    n: int
    value: int
    method: str


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
    if k is None:
        k = choose_k_nonsimple(m, n)
    elif n > w_stage_length_nonsimple(m, k):
        raise ValueError(
            f"k={k} is inadmissible: n={n} exceeds |w^({k})|={w_stage_length_nonsimple(m, k)}")
    d = normal_u_rep(m, n, min_places=k + 1)
    e = normal_u_rep(m, u_value(m, k + 1) - n, min_places=k + 1)
    # U_{j-1} = |phi^j(A)|_B for j >= 1 and |A|_B = 0 in this family
    value = 1 + u_value(m, k) - b_weight(m, d) - b_weight(m, e)
    assert value >= 2, (m, n, k, value)
    return value


def ac_simple(m: Morphism, n: int) -> int:
    """AC(n) for the simple family with q > 1.

    With stages (M, N, J) from choose_mn_simple, (c) the greedy digits of
    n - |w^(N)| and (d) those of n - |v^(M)|, both padded to J+1 places:

        AC(n) = 2 + (q-1) * (T - (M-N+1) |phi^(2N)(A)|_B)
                  + sum_i (c_i - d_i) |phi^i(A)|_B,

    where T = sum_{i=0..N-1} (|phi^(2i+1)(A)|_B - |phi^(2i)(A)|_B) is the
    telescoped form of the alternating matrix-power sum, kept in pure
    integer arithmetic.
    """
    if m.family is not Family.SIMPLE:
        raise ValueError(f"ac_simple requires a simple morphism, got {m.family.value}")
    if m.q == 1:
        raise UnsupportedConstructionError(
            "ac_simple does not cover q = 1 (Sturmian); call ac() instead")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    m_stage, n_stage, j_idx = choose_mn_simple(m, n)
    c = normal_u_rep(m, n - wv_stage_length_simple(m, W, n_stage), min_places=j_idx + 1)
    d = normal_u_rep(m, n - wv_stage_length_simple(m, V, m_stage), min_places=j_idx + 1)
    assert len(c) == len(d) == j_idx + 1
    telescoped = (recurrence_sum(m, (0, 1), 2 * n_stage - 1, 2)
                  - recurrence_sum(m, (0, 1), 2 * n_stage - 2, 2))
    overlap = (m_stage - n_stage + 1) * power_rows(m, 2 * n_stage)[1][2 * n_stage]
    value = 2 + (m.q - 1) * (telescoped - overlap) + b_weight(m, c) - b_weight(m, d)
    assert value >= 2, (m, n, value)
    return value


def ac(m: Morphism, n: int) -> ACResult:
    """AC(n) with family dispatch.

    Simple with q = 1 is Sturmian, constant 2; simple with q > 1 and
    non-simple go through their closed forms.  n must be >= 1: the
    complexity is defined over positive lengths only.
    """
    if n < 1:
        raise ValueError(
            f"n must be a positive integer, got {n}; Abelian complexity is "
            "defined only for factor lengths n >= 1")
    if m.family is Family.SIMPLE and m.q == 1:
        return ACResult(n, 2, METHOD_STURMIAN)
    if m.family is Family.SIMPLE:
        return ACResult(n, ac_simple(m, n), METHOD_CLOSED_FORM)
    return ACResult(n, ac_nonsimple(m, n), METHOD_CLOSED_FORM)


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
