"""Extremal companion words of the fixed point.

Among all factors of the fixed point of a given length n, the length-n
prefix of w realizes the maximum number of B's and the length-n prefix of
v the minimum.  In the non-simple family v is the fixed point itself and
w = lim w^(N) with w^(0) = B and w^(N) = B phi(w^(N-1)).  In the simple
family with q > 1, w and v are products of blocks (phi^k(A))^(q-1) over
odd and even powers k.  Stage lengths and prefix B-counts have closed
forms in the U sequence; those closed forms are what make the
logarithmic-time complexity formulas possible.
"""

from __future__ import annotations

from typing import Iterator

from .numeration import Rows, _top_rows, b_weights, place_rows
from .words import (
    B,
    Family,
    Morphism,
    UnsupportedConstructionError,
    V,
    W,
    _integer,
    _shown,
    word_prefix,
)

__all__ = [
    "V",
    "W",
    "w_prefix_nonsimple",
    "w_stage_length_nonsimple",
    "choose_k_nonsimple",
    "w_b_count_nonsimple",
    "wv_prefix_simple",
    "wv_stage_length_simple",
    "choose_mn_simple",
    "v_b_count_simple",
    "w_b_count_simple",
]


def _require_family(m: Morphism, family: Family, operation: str) -> None:
    if m.family is not family:
        raise ValueError(
            f"{operation} requires a {family.value} morphism, got {m.family.value}")


def _check_which(which: str) -> None:
    if which not in (V, W):
        raise ValueError(f"which must be {V!r} or {W!r}, got {which!r}")


# --- non-simple family --------------------------------------------------------

def w_prefix_nonsimple(m: Morphism, length: int) -> str:
    """Length-`length` prefix of the B-richest word w = B phi(B) phi^2(B) ..."""
    _require_family(m, Family.NONSIMPLE, "w_prefix_nonsimple")
    return word_prefix(m, W, length)


def w_stage_length_nonsimple(m: Morphism, stage: int) -> int:
    """|w^(stage)| = sum_{j=0..stage} |phi^j(B)|.

    phi^{j+1}(A) = (phi^j(A))^p phi^j(B), so |phi^j(B)| = U_{j+1} - p U_j.
    """
    _require_family(m, Family.NONSIMPLE, "w_stage_length_nonsimple")
    stage = _integer(stage, "stage", 0)
    return _w_stage_nonsimple(place_rows(m, stage), stage)[0]


def choose_k_nonsimple(m: Morphism, n: int) -> int:
    """Smallest universally safe stage index k with n <= |w^(k)|: n's stage in _spans.

    That is k = J + 2, J the top of n's greedy digits.  A test asserts the
    complexity value is invariant across admissible k.
    """
    _require_family(m, Family.NONSIMPLE, "choose_k_nonsimple")
    n = _integer(n, "n")
    return next(_spans(m, n, n))[1]


def w_b_count_nonsimple(m: Morphism, n: int, k: int) -> int:
    """Number of B's in the length-n prefix of w, via stage k.

    Requires n <= |w^(k)|.  With (e_k, ..., e_0) the greedy digits of
    U_{k+1} - n, the count is U_k - sum_{j=1..k} e_j U_{j-1}, where
    U_{j-1} = |phi^j(A)|_B in this family.
    """
    _require_family(m, Family.NONSIMPLE, "w_b_count_nonsimple")
    n, k = _integer(n, "n"), _integer(k, "k", 0)
    rows = place_rows(m, k)
    length, count, complement = _w_stage_nonsimple(rows, k)
    if n > length:
        raise IndexError(f"n={_shown(n)} exceeds |w^({_shown(k)})|={_shown(length)}; pick a larger k")
    return count - b_weights(rows, complement - n)[0]


def _w_stage_nonsimple(rows: Rows, k: int) -> tuple[int, int, int]:
    """(|w^(k)|, U_k, U_{k+1}) from rows near k, unchecked: the one kernel of a non-simple stage.

    |phi^j(B)| is |phi^j(A)|_A + (q + 1 - p) |phi^j(A)|_B by one row step, so
    |w^(k)| is one Rows.sum.  For n <= |w^(k)| the length-n prefix of w
    holds U_k - W(U_{k+1} - n) B's, W the b_weights sum.
    """
    return rows.sum((1, rows.m.q + 1 - rows.m.p), k), rows.u(k), rows.u(k + 1)


# --- simple family (q > 1) ----------------------------------------------------

def _require_simple_extremal(m: Morphism, operation: str) -> None:
    _require_family(m, Family.SIMPLE, operation)
    if m.q == 1:
        raise UnsupportedConstructionError(
            f"{operation}: the simple family with q = 1 is Sturmian and has "
            "no v/w construction")


def wv_prefix_simple(m: Morphism, which: str, length: int) -> str:
    """Length-`length` prefix of w (which="w") or v (which="v")."""
    _check_which(which)
    _require_simple_extremal(m, "wv_prefix_simple")
    return word_prefix(m, which, length)


def wv_stage_length_simple(m: Morphism, which: str, stage: int) -> int:
    """|v^(stage)| = 1 + (q-1) sum_{j=0..stage} U_{2j}, or
    |w^(stage)| = 1 + (q-1) sum_{j=0..stage-1} U_{2j+1}.

    For v only, stage = -1 is allowed and yields 1 (empty-sum convention
    covering prefixes shorter than |v^(0)| = q).
    """
    _check_which(which)
    _require_simple_extremal(m, "wv_stage_length_simple")
    return _stage_length(*_stage_rows(m, which, _integer(stage, "stage", None)))


def _stage_rows(m: Morphism, which: str, stage: int) -> tuple[Rows, int]:
    """Rows near the stage of v or w, once it is checked, and its index t: L(t) is its length."""
    t = 2 * stage if which == V else 2 * stage - 1
    if t < -2:  # the first stages are v^(-1) and w^(0)
        raise ValueError(f"{which} stages start at {-1 if which == V else 0}, got {_shown(stage)}")
    return place_rows(m, max(t, 0)), t


def _stage_length(rows: Rows, t: int) -> int:
    """L(t) = 1 + (q-1) sum U_j over 0 <= j <= t, j = t (mod 2), unchecked, from rows near t:
    the one strictly increasing sequence of v's and w's stage lengths, |v^(h)| = L(2h) and
    |w^(h)| = L(2h - 1)."""
    return 1 + (rows.m.q - 1) * rows.sum((1, 1), t, 2)


def _spans(m: Morphism, start: int, stop: int) -> Iterator[tuple[Rows, int, int, int]]:
    """(rows, stage, first, last) for each stage and top J that hold some of start..stop, in order.

    first..last is their part of start..stop, never empty, and rows are at
    J, with U_J <= n < U_{J+1}.  The non-simple stage is k = J + 2, one per
    J: the least k with n <= |w^(k)| is J + 1 or J + 2, and J + 2 holds
    every n of J.  The simple stage, for q > 1, is the index s = M + N of
    the stages M of v and N of w, with L(s) <= n < L(s + 1) on
    _stage_length's sequence: J's n lie in stage J - 1 below L(J) and in
    stage J from it on, so a simple stage can hold n of two J.  This is
    the only code that picks n's stage and steps from one stage to the
    next: each J's rows come from the last J's by one Rows.at.
    """
    rows, first = _top_rows(m, start), start
    while True:
        top = rows.top
        end = rows.u(top + 1) - 1  # the last n at this top
        stages = (((top + 2, end),) if m.family is Family.NONSIMPLE
                  else ((top - 1, _stage_length(rows, top) - 1), (top, end)))
        for stage, last in stages:
            if last < first:
                continue
            yield rows, stage, first, min(last, stop)
            if last >= stop:
                return
            first = last + 1
        rows = rows.at(top + 1)


def choose_mn_simple(m: Morphism, n: int) -> tuple[int, int, int]:
    """Stage indices (M, N, J) for a prefix length n >= 1.

    J satisfies U_J <= n < U_{J+1}, and (M, N) = (s // 2, (s + 1) // 2)
    for n's stage s = M + N of _spans.  The result brackets n by stages:
    |w^(N)| <= n < |w^(N+1)| and |v^(M)| <= n < |v^(M+1)|, where
    |v^(-1)| is taken to be 1.
    """
    _require_simple_extremal(m, "choose_mn_simple")
    n = _integer(n, "n")
    rows, s, _, _ = next(_spans(m, n, n))
    for t in (s - 1, s):  # |w^(N)| = L(2N - 1) and |v^(M)| = L(2M), one each by parity
        assert _stage_length(rows, t) <= n < _stage_length(rows, t + 2)
    return s // 2, (s + 1) // 2, rows.top


def _wv_b_count(m: Morphism, which: str, n: int, stage: int, operation: str) -> int:
    """v_b_count_simple or w_b_count_simple, by `which`, with their checks."""
    _require_simple_extremal(m, operation)
    n, stage = _integer(n, "n"), _integer(stage, "stage", None)
    rows, t = _stage_rows(m, which, stage)
    low, high = _stage_length(rows, t), _stage_length(rows, t + 2)
    if not low <= n < high:
        raise ValueError(f"stage mismatch: need |{which}^({_shown(stage)})|={_shown(low)} <= n < "
                         f"|{which}^({_shown(stage + 1)})|={_shown(high)}, got n={_shown(n)}")
    count = t % 2 + (rows.m.q - 1) * rows.sum((0, 1), t, 2)  # |x^(stage)|_B; w's t is odd, w^(0) = B
    # n - low < high - low = (q-1) U_{t+2} < U_{t+3}: rows at t + 2 cover it
    return count + b_weights(rows.at(t + 2), n - low)[0]


def v_b_count_simple(m: Morphism, n: int, stage: int) -> int:
    """Number of B's in the length-n prefix of v, via its bracketing stage.

    Requires |v^(stage)| <= n < |v^(stage+1)| (stage = -1 allowed).  With
    (d_k, ..., d_0) the greedy digits of n - |v^(stage)|, the count is
    (q-1) sum_{i=0..stage} |phi^{2i}(A)|_B + sum_i d_i |phi^i(A)|_B.
    """
    return _wv_b_count(m, V, n, stage, "v_b_count_simple")


def w_b_count_simple(m: Morphism, n: int, stage: int) -> int:
    """Number of B's in the length-n prefix of w, via its bracketing stage.

    Requires |w^(stage)| <= n < |w^(stage+1)|.  With (c_l, ..., c_0) the
    greedy digits of n - |w^(stage)|, the count is
    1 + (q-1) sum_{i=0..stage-1} |phi^{2i+1}(A)|_B + sum_i c_i |phi^i(A)|_B.
    """
    return _wv_b_count(m, W, n, stage, "w_b_count_simple")
