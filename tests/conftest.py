"""Shared reference implementations and morphism grids.

The ref_* helpers are deliberately naive (dict-based substitution, full
re-expansion, letter-by-letter counting) and share no code path with the
package, so they can serve as independent oracles in the tests.
"""

from __future__ import annotations

import pytest

from parryac import Family, Morphism, ParikhVector, fixed_point_prefix, make_morphism


# --- incidence-matrix algebra --------------------------------------------------

Matrix = tuple[tuple[int, int], tuple[int, int]]

MATRIX_IDENTITY: Matrix = ((1, 0), (0, 1))


def incidence_matrix(m: Morphism) -> Matrix:
    """2x2 matrix whose rows are the Parikh vectors of image_a and image_b."""
    return ((m.p, 1), (m.q, 1 if m.family is Family.NONSIMPLE else 0))


def mat_mul(x: Matrix, y: Matrix) -> Matrix:
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def mat_pow(mtx: Matrix, exponent: int) -> Matrix:
    if exponent < 0:
        raise ValueError(f"exponent must be nonnegative, got {exponent}")
    out = MATRIX_IDENTITY
    base = mtx
    k = exponent
    while k:
        if k & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base)
        k >>= 1
    return out


def ref_matrix_powers(m: Morphism, count: int) -> list[Matrix]:
    """M^0, ..., M^(count-1) by repeated multiplication."""
    powers = [MATRIX_IDENTITY]
    while len(powers) < count:
        powers.append(mat_mul(powers[-1], incidence_matrix(m)))
    return powers


def ref_stride_sum(values: list[int], top: int, step: int) -> int:
    """values[j] summed over 0 <= j <= top with j = top (mod step), one by one."""
    return sum(values[j] for j in range(top % step, top + 1, step)) if top >= 0 else 0


# --- greedy-digit certificates ----------------------------------------------------

def ref_rows(m: Morphism, start: tuple[int, int] = (1, 0)):
    """The rows start M^j for j = 0, 1, ..., one at a time: by default (1,0) M^j =
    (|phi^j(A)|_A, |phi^j(A)|_B), and from (0, 1) those of phi^j(B)."""
    (p, one), (q, e) = incidence_matrix(m)
    a, b = start
    while True:
        yield a, b
        a, b = a * p + b * q, a * one + b * e


def ref_digit_sums(m: Morphism, digits) -> tuple[int, int]:
    """(sum d_j U_j, sum d_j |phi^j(A)|_B) over a most-significant-first digit string.

    Walks the rows upward from j = 0 and keeps only the current one, so
    memory stays O(L) for L-bit sums.
    """
    value = weight = 0
    for d, (a, b) in zip(reversed(digits), ref_rows(m)):
        value += d * (a + b)
        weight += d * b
    return value, weight


def ref_quasi_greedy(m: Morphism, length: int) -> list[int]:
    """The first letters of Parry's quasi-greedy string d*_beta(1): p q q q ...
    (non-simple) or p (q-1) p (q-1) ... (simple), the greedy digits of U_length - 1."""
    if m.family is Family.NONSIMPLE:
        return [m.p] + [m.q] * (length - 1)
    return [m.q - 1 if i % 2 else m.p for i in range(length)]


def ref_admissible(m: Morphism, digits) -> bool:
    """Parry's condition: no run of lowest digits is lexicographically above d*.

    For each start k, agree[0][k] is how far digits[k:] agrees with d*; the
    run from k exceeds d* when the first digit that disagrees is larger.
    d* reads p, then repeats one letter (non-simple) or returns to p after
    q - 1 (simple), so agreement from a letter of d* needs only the
    agreement from the next digit on, computed right to left in O(L).
    """
    count = len(digits)
    star = ref_quasi_greedy(m, count)
    letter = (m.p, star[1] if count > 1 else m.q)
    after = (1, 1 if m.family is Family.NONSIMPLE else 0)  # the phase of d*'s next letter
    agree = [[0] * (count + 1), [0] * (count + 1)]
    for k in range(count - 1, -1, -1):
        for phase in (0, 1):
            if digits[k] == letter[phase]:
                agree[phase][k] = 1 + agree[after[phase]][k + 1]
    for k in range(count):
        i = agree[0][k]
        if k + i < count and digits[k + i] > star[i]:
            return False
    return True


# --- words ----------------------------------------------------------------------

def ref_images(m: Morphism) -> dict[str, str]:
    return {
        "A": "A" * m.p + "B",
        "B": "A" * m.q + ("B" if m.family is Family.NONSIMPLE else ""),
    }


def ref_apply(m: Morphism, word: str) -> str:
    img = ref_images(m)
    return "".join(img[c] for c in word)


def ref_fixed_point(m: Morphism, length: int) -> str:
    s = "A"
    while len(s) < length:
        s = ref_apply(m, s)
    return s[:length]


def ref_power_of_a(m: Morphism, k: int) -> str:
    s = "A"
    for _ in range(k):
        s = ref_apply(m, s)
    return s


def ref_w_nonsimple(m: Morphism, length: int) -> str:
    w = "B"
    while len(w) < length:
        w = "B" + ref_apply(m, w)
    return w[:length]


def ref_w_stage_nonsimple(m: Morphism, stage: int) -> str:
    w = "B"
    for _ in range(stage):
        w = "B" + ref_apply(m, w)
    return w


def ref_wv_simple(m: Morphism, which: str, length: int) -> str:
    assert m.family is Family.SIMPLE and m.q > 1
    if which == "w":
        out, k = "B", 1
    else:
        out, k = "A" * m.q, 2
    while len(out) < length:
        out += ref_power_of_a(m, k) * (m.q - 1)
        k += 2
    return out[:length]


def ref_wv_stage_simple(m: Morphism, which: str, stage: int) -> str:
    assert m.family is Family.SIMPLE and m.q > 1
    if which == "w":
        return "B" + "".join(ref_power_of_a(m, 2 * j + 1) * (m.q - 1)
                             for j in range(stage))
    return "A" * m.q + "".join(ref_power_of_a(m, 2 * j) * (m.q - 1)
                               for j in range(1, stage + 1))


def ref_window_interval(text: str, n: int) -> tuple[int, int]:
    """(min, max) B-count over all length-n windows, incremental scan."""
    count = text[:n].count("B")
    low = high = count
    for i in range(n, len(text)):
        count += (text[i] == "B") - (text[i - n] == "B")
        low = min(low, count)
        high = max(high, count)
    return low, high


def ref_window_counts(text: str, n: int) -> set[int]:
    counts = set()
    count = text[:n].count("B")
    counts.add(count)
    for i in range(n, len(text)):
        count += (text[i] == "B") - (text[i - n] == "B")
        counts.add(count)
    return counts


def parikh_set(m: Morphism, n: int, prefix_len: int) -> set[ParikhVector]:
    """The distinct Parikh vectors of all length-n windows of the package's prefix."""
    return {ParikhVector(n - b, b)
            for b in ref_window_counts(fixed_point_prefix(m, prefix_len), n)}


SIMPLE_GRID = [make_morphism(p, q, "simple")
               for p in range(2, 6) for q in range(2, p + 1)]
NONSIMPLE_GRID = [make_morphism(p, q, "nonsimple")
                  for p in range(2, 6) for q in range(1, p)]
STURMIAN_SIMPLE = [make_morphism(p, 1, "simple") for p in range(1, 6)]
STURMIAN_NONSIMPLE = [make_morphism(q + 1, q, "nonsimple") for q in range(1, 5)]
FULL_GRID = SIMPLE_GRID + NONSIMPLE_GRID


@pytest.fixture(scope="session")
def nonsimple31() -> Morphism:
    return make_morphism(3, 1, "nonsimple")


@pytest.fixture(scope="session")
def simple32() -> Morphism:
    return make_morphism(3, 2, "simple")
