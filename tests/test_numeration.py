"""U sequence, greedy representations, prefix decomposition and B-counts."""

from __future__ import annotations

import gc
import random
import sys
import threading
import tracemalloc
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parryac import (
    Family,
    ac,
    ac_nonsimple,
    ac_range,
    ac_via_prefix_counts,
    choose_k_nonsimple,
    choose_mn_simple,
    fixed_point_prefix,
    make_morphism,
    normal_u_rep,
    prefix_b_count,
    prefix_decomposition,
    u_rep_value,
    u_value,
    v_b_count_simple,
    w_b_count_nonsimple,
    w_b_count_simple,
)
from parryac import numeration
from parryac.numeration import _plan, _top_rows, b_weights, digit_lists, place_rows
from parryac.words import GENERATION_CAP, CapExceededError, apply

from conftest import (
    FULL_GRID,
    STURMIAN_SIMPLE,
    ref_admissible,
    ref_digit_sums,
    ref_fixed_point,
    ref_matrix_powers,
    ref_quasi_greedy,
    ref_rows,
)

ALL_MORPHISMS = FULL_GRID + STURMIAN_SIMPLE
ANY_MORPHISM = st.sampled_from(ALL_MORPHISMS)
BASELINE = [make_morphism(3, 1, "nonsimple"), make_morphism(3, 2, "simple"),
            make_morphism(5, 5, "simple")]


def test_u_values_nonsimple(nonsimple31):
    assert [u_value(nonsimple31, k) for k in range(5)] == [1, 4, 14, 48, 164]


def test_u_values_simple(simple32):
    assert [u_value(simple32, k) for k in range(3)] == [1, 4, 14]


@pytest.mark.parametrize("m", ALL_MORPHISMS)
def test_u_starts_at_one(m):
    assert u_value(m, 0) == 1


@pytest.mark.parametrize("m", ALL_MORPHISMS)
def test_u_strictly_increasing_and_below_geometric_bound(m):
    # U_1 = p + 1 = (p+1) U_0 exactly; from index 1 on the bound is strict
    values = [u_value(m, k) for k in range(40)]
    assert values[1] == (m.p + 1) * values[0]
    for prev, nxt in zip(values, values[1:]):
        assert prev < nxt
        assert nxt <= (m.p + 1) * prev
    for prev, nxt in zip(values[1:], values[2:]):
        assert nxt < (m.p + 1) * prev


@pytest.mark.parametrize("m", ALL_MORPHISMS)
def test_u_value_is_iterate_length(m):
    word = "A"
    for k in range(8):
        assert u_value(m, k) == len(word)
        word = apply(m, word)


# --- normal_u_rep -------------------------------------------------------------

def test_normal_u_rep_worked_examples(nonsimple31, simple32):
    assert normal_u_rep(nonsimple31, 7, min_places=4) == (0, 0, 1, 3)
    assert normal_u_rep(nonsimple31, 157, min_places=4) == (3, 0, 3, 1)
    assert normal_u_rep(simple32, 5) == (1, 1)
    assert normal_u_rep(simple32, 0) == (0,)


def test_normal_u_rep_padding_is_value_preserving(nonsimple31):
    for n in (0, 7, 157, 4000):
        bare = normal_u_rep(nonsimple31, n)
        padded = normal_u_rep(nonsimple31, n, min_places=len(bare) + 3)
        assert padded == (0,) * 3 + bare
        assert u_rep_value(nonsimple31, padded) == u_rep_value(nonsimple31, bare) == n


def test_normal_u_rep_padding_is_capped(nonsimple31):
    # refused before any padding is built, as word_prefix refuses a length
    with pytest.raises(CapExceededError, match=f"generation cap is {GENERATION_CAP}"):
        normal_u_rep(nonsimple31, 5, min_places=GENERATION_CAP + 1)


@pytest.mark.parametrize("m", ALL_MORPHISMS)
def test_roundtrip_and_digit_bound_exhaustive(m):
    for n in range(10 ** 4 + 1):
        digits = normal_u_rep(m, n)
        assert all(0 <= d <= m.p for d in digits)
        assert u_rep_value(m, digits) == n


@given(m=ANY_MORPHISM, n=st.integers(0, 10 ** 30))
@settings(max_examples=200, deadline=None)
def test_roundtrip_large(m, n):
    assert u_rep_value(m, normal_u_rep(m, n)) == n


@given(m=ANY_MORPHISM, n=st.integers(0, 10 ** 12))
@settings(max_examples=150, deadline=None)
def test_greedy_dominance(m, n):
    # each digit is the floor quotient of the residual by its weight
    digits = normal_u_rep(m, n)
    top = len(digits) - 1
    residual = n
    for i, d in enumerate(digits):
        weight = u_value(m, top - i)
        assert d == residual // weight
        residual -= d * weight
    assert residual == 0


def test_u_rep_value_accepts_non_normal_digits(nonsimple31):
    # 7 = (1, 3) in greedy form, but (0, 7) denotes the same value
    assert u_rep_value(nonsimple31, (0, 7)) == 7
    assert u_rep_value(nonsimple31, (0,)) == 0
    assert u_rep_value(nonsimple31, ()) == 0


def test_u_rep_value_digits_must_be_integers(nonsimple31):
    # U = 1, 4, 14, ...: any integer digit counts, negative ones too, but 1.5 U_0 is no length
    np = pytest.importorskip("numpy")
    assert u_rep_value(nonsimple31, (np.int64(1), np.int64(3))) == 7
    assert u_rep_value(nonsimple31, np.array([2, -1])) == 7
    assert u_rep_value(nonsimple31, (1, -1, 2)) == 12
    for digits in ([1.5], (1, 3.0)):
        with pytest.raises(TypeError):
            u_rep_value(nonsimple31, digits)


# --- prefix decomposition --------------------------------------------------------

def test_prefix_decomposition_examples(nonsimple31):
    assert prefix_decomposition(nonsimple31, 7) == ((1, 1), (0, 3))
    assert prefix_decomposition(nonsimple31, 0) == ()
    assert prefix_decomposition(nonsimple31, 14) == ((2, 1), (1, 0), (0, 0))


def _decomposition_word(m, decomposition):
    parts = []
    for power, exponent in decomposition:
        block = "A"
        for _ in range(power):
            block = apply(m, block)
        parts.append(block * exponent)
    return "".join(parts)


@pytest.mark.parametrize("m", ALL_MORPHISMS)
def test_decomposition_reconstructs_prefix(m):
    rng = random.Random(hash((m.p, m.q, m.family.value)) & 0xFFFF)
    boundary = []
    k = 0
    while u_value(m, k) <= 10 ** 5:
        boundary += [u_value(m, k) - 1, u_value(m, k), u_value(m, k) + 1]
        k += 1
    samples = sorted(set(
        list(range(1, 2001))
        + [n for n in boundary if 1 <= n <= 10 ** 5]
        + [rng.randrange(2001, 10 ** 5) for _ in range(40)]))
    text = fixed_point_prefix(m, samples[-1])
    for n in samples:
        assert _decomposition_word(m, prefix_decomposition(m, n)) == text[:n]


# --- prefix B-count ---------------------------------------------------------------

def test_prefix_b_count_examples(nonsimple31, simple32):
    assert prefix_b_count(nonsimple31, 7) == 1
    assert prefix_b_count(nonsimple31, 1) == 0
    assert prefix_b_count(simple32, 1) == 0
    # derived: brute count over the generated prefix
    assert fixed_point_prefix(nonsimple31, 157).count("B") == 45
    assert prefix_b_count(nonsimple31, 157) == 45


@pytest.mark.parametrize("m", ALL_MORPHISMS)
def test_prefix_b_count_matches_brute_force_exhaustive(m):
    limit = 10 ** 5
    text = fixed_point_prefix(m, limit)
    running = 0
    for n in range(1, limit + 1):
        running += text[n - 1] == "B"
        assert prefix_b_count(m, n) == running


@pytest.mark.parametrize("m", [x for x in ALL_MORPHISMS if x.family is Family.NONSIMPLE])
def test_prefix_b_count_nonsimple_collapses_to_u_weights(m):
    # |phi^i(A)|_B = U_{i-1} in the non-simple family
    for n in list(range(2000)) + [10 ** 9, 10 ** 18]:
        digits = normal_u_rep(m, n)
        top = len(digits) - 1
        collapsed = sum(d * u_value(m, top - i - 1)
                        for i, d in enumerate(digits) if top - i >= 1)
        assert prefix_b_count(m, n) == collapsed


@pytest.mark.parametrize("m", ALL_MORPHISMS)
def test_b_weights_of_two_lengths_over_any_covering_top(m):
    # one pass gives both lengths' sums, and places above their top add nothing
    rng = random.Random(17)
    for top in (6, 11, 200):
        rows, bound = place_rows(m, top), u_value(m, top + 1)
        for _ in range(100):
            x, y = rng.randrange(bound), rng.randrange(bound)
            assert b_weights(rows, x, y) == (prefix_b_count(m, x), prefix_b_count(m, y))
        assert b_weights(rows, bound - 1) == (prefix_b_count(m, bound - 1), 0)


def test_reference_cross_check(nonsimple31):
    text = ref_fixed_point(nonsimple31, 5000)
    for n in (1, 2, 3, 47, 48, 49, 163, 164, 165, 4999):
        assert prefix_b_count(nonsimple31, n) == text[:n].count("B")


def test_top_index(nonsimple31):
    # the top place N of n's greedy digits is the smallest N with n < U_{N+1}
    for n, top in ((0, 0), (3, 0), (4, 1), (163, 3), (164, 4)):
        assert _top_rows(nonsimple31, n).top == top
        assert len(normal_u_rep(nonsimple31, n)) - 1 == top


@pytest.mark.parametrize("m", [
    make_morphism(3, 1, "nonsimple"), make_morphism(2, 1, "nonsimple"),
    make_morphism(10 ** 6, 1, "nonsimple"), make_morphism(10 ** 6, 10 ** 6 - 1, "nonsimple"),
    make_morphism(3, 2, "simple"), make_morphism(5, 5, "simple"), make_morphism(2 ** 70, 3, "simple"),
    make_morphism(4, 1, "simple"), make_morphism(1, 1, "simple"),
], ids=str)
def test_top_rows_search_only_upward(m, monkeypatch):
    # n's top is searched from below its estimate, a few places at most, so its rows
    # are never read below their window; around every place edge up to 20,000 bits
    limit = int(20_000 / _plan(m).log2_beta)
    places = [j for j in (*range(300), 500, 1000, 2000, 4000, 8000, 16000) if j < limit] + [limit]
    cases = []
    for j in places:
        rows = place_rows(m, j + 1)
        u, u_next = rows.u(j), rows.u(j + 1)
        cases += [(u - 1, max(j - 1, 0))]  # n = 0 has top 0
        cases += [(n, j) for n in (u, u + 1, (u + u_next) // 2, u_next - 1) if n < u_next]
    starts = []

    class Recorded(numeration.Rows):
        __slots__ = ()

        def __init__(self, plan, top, window=None):
            starts.append(top)
            super().__init__(plan, top, window)

    monkeypatch.setattr(numeration, "Rows", Recorded)
    for n, j in cases:
        starts.clear()
        top = _top_rows(m, n).top
        assert top == j, (n, top, j)
        assert starts[0] <= top <= starts[0] + 4, (n, starts[0], top)


@pytest.mark.parametrize("m", BASELINE, ids=str)
@pytest.mark.parametrize("n", [-1, -5, -10 ** 40])
def test_negative_n_is_rejected(m, n):
    # below and far past the row list's reach alike; an n of over 20 digits is shown by its size
    shown = {-10 ** 40: "<negative integer of about 41 digits>"}.get(n, str(n))
    for function in (normal_u_rep, prefix_b_count, prefix_decomposition):
        with pytest.raises(ValueError, match=f"^n must be nonnegative, got {shown}$"):
            function(m, n)


def test_no_numeration_structure_grows_with_n():
    # each morphism keeps one plan, fixed in size: the rows j < 128 and an s
    # list that reaches s_128; no call leaves anything behind that grows with
    # n, the split windows of a pass included
    m = make_morphism(5, 2, "nonsimple")
    ac(m, 10 ** 300)  # past place 128: the plan exists and the split pass has run
    gc.collect()
    tracemalloc.start()
    try:
        for digits in (2000, 10000):
            n = 7 * 10 ** (digits - 1) + 12345
            ac(m, n)
            normal_u_rep(m, n)
            prefix_b_count(m, n)
            u_value(m, 5 * digits)
        del n
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 16 * 2 ** 10, kept
    plan = _plan(m)
    assert len(plan.places) == 128
    assert len(plan.s) <= 130


@pytest.mark.parametrize("m", BASELINE, ids=str)
def test_large_n_runs_in_a_few_megabytes(m):
    n = 7 * 10 ** 9999 + 12345
    ac(m, 10 ** 300)  # past place 128: the plan exists and the split pass has run
    tracemalloc.start()
    try:
        ac(m, n)
        normal_u_rep(m, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 ** 20, peak


@pytest.mark.parametrize("m", BASELINE, ids=str)
def test_one_top_window_per_call(m, monkeypatch):
    # past the s list a window comes by doubling; ac and ac_range take one for
    # n's top and reach every other row they read from that one, upward.  Each
    # greedy pass builds its own chain of split windows once, apart from those.
    window, splits, doublings, chains = numeration._window, numeration._splits, [], []

    def counted(plan, k):
        doublings.append(k + 1 >= len(plan.s))
        return window(plan, k)

    def chain(plan, top):
        chains.append(top)
        return splits(plan, top)

    def count(call, *args):
        doublings.clear()
        chains.clear()
        call(m, *args)
        return sum(doublings), len(chains)

    monkeypatch.setattr(numeration, "_window", counted)
    monkeypatch.setattr(numeration, "_splits", chain)
    n = 7 * 10 ** 1999 + 12345
    # one pass for the digits of both x and y
    assert count(ac, n) == (1, 1)
    # the odometer's first digits come from the pass on the record's rows
    assert count(lambda *args: list(ac_range(*args)), n, n + 50) == (1, 1)
    # the public composition builds its own: three top windows by doubling
    # and two split chains, one pass each for |w_n|_B and |v_n|_B
    assert count(ac_via_prefix_counts, n) == (3, 2)
    # so does each public one-n function: one window, read upward, and a
    # chain for its pass; a read below the window or a top found from
    # above would double again
    assert count(normal_u_rep, n) == (1, 1)
    assert count(prefix_b_count, n) == (1, 1)
    if m.family is Family.NONSIMPLE:
        assert count(choose_k_nonsimple, n) == (1, 0)
        assert count(w_b_count_nonsimple, n, choose_k_nonsimple(m, n)) == (1, 1)
        # an explicit k far above n's top: one more window, k's, built once
        assert count(ac_nonsimple, n, choose_k_nonsimple(m, n) + 300) == (2, 1)
    else:
        stage_v, stage_w, _ = choose_mn_simple(m, n)
        assert count(choose_mn_simple, n) == (1, 0)
        assert count(v_b_count_simple, n, stage_v) == (1, 1)
        assert count(w_b_count_simple, n, stage_w) == (1, 1)


# --- the odometer ---------------------------------------------------------------------

def _certified_weight(m, digits, n):
    # least significant first digits that are Parry-admissible and sum to n are
    # n's greedy digits; returns their B-weight, summed independently
    top_first = digits[::-1]
    assert ref_admissible(m, top_first), n
    value, weight = ref_digit_sums(m, top_first)
    assert value == n
    return weight


def _assert_steps(m, low, high, n):
    # up takes the digits of n to those of n + 1 and down takes them back, each
    # changing the weight by the B-count of the letter between the two prefixes
    plan, gain = _plan(m), prefix_b_count(m, n + 1) - prefix_b_count(m, n)
    stepped = list(low)
    assert plan.up(stepped) == gain and stepped == high, n
    stepped = list(high)
    assert plan.down(stepped) == -gain and stepped == low, n


@pytest.mark.parametrize("m", FULL_GRID + [make_morphism(7, 3, "nonsimple")], ids=str)
def test_odometer_steps_greedy_digits(m):
    # n = 0 .. 3000, each string stepped up from the one before and certified
    digits, weight = [0] * 16, 0
    for n in range(3000):
        low = list(digits)
        gain = _plan(m).up(digits)
        next_weight = _certified_weight(m, digits, n + 1)
        assert gain == next_weight - weight, n
        _assert_steps(m, low, digits, n)
        weight = next_weight
    # U_j - 2 .. U_j + 1 for j <= 300, from the first j letters of Parry's
    # quasi-greedy string d*, which are the digits of U_j - 1: long carries
    for j, (a, b) in zip(range(1, 301), islice(ref_rows(m), 1, None)):
        below = ref_quasi_greedy(m, j)[::-1] + [0, 0]
        strings = [[below[0] - 1, *below[1:]], below, [0] * j + [1, 0], [1, *[0] * (j - 1), 1, 0]]
        for shift, digits in enumerate(strings):
            _certified_weight(m, digits, a + b - 2 + shift)
        for shift, (low, high) in enumerate(zip(strings, strings[1:])):
            _assert_steps(m, low, high, a + b - 2 + shift)


# --- letter slices --------------------------------------------------------------------

#: The closed-form morphisms of the grid, non-simple (7, 3), and the two whose
#: letter images are too long to build whole: p = 10^6 and p = 2^70.
LETTER_MORPHISMS = ([m for m in FULL_GRID if m.family is Family.NONSIMPLE or m.q > 1]
                    + [make_morphism(7, 3, "nonsimple"), make_morphism(10 ** 6, 1, "nonsimple"),
                       make_morphism(2 ** 70, 3, "simple")])


def _letters_at(m, pos, length):
    return numeration._letters(_plan(m), list(reversed(normal_u_rep(m, pos))), 0, length)


@pytest.mark.parametrize("m", LETTER_MORPHISMS, ids=str)
def test_letters_are_slices_of_the_fixed_point(m):
    # slices from every pos = 0..3000, short ones read by odometer steps alone,
    # against the prefix that substitution builds
    word = fixed_point_prefix(m, 4000)
    for pos in range(3001):
        for length in (1, 2, 3, 7, 64, 1000):
            assert _letters_at(m, pos, length) == word[pos:pos + length], (pos, length)


@pytest.mark.parametrize("m", LETTER_MORPHISMS, ids=str)
def test_letters_past_the_row_list_step_the_prefix_b_count(m):
    # around U_j past place 128, where the digits come from split passes and
    # the slice crosses a carry into place j: each letter is B exactly where
    # the prefix B-count grows
    for j in (127, 128, 129, 255, 256, 257):
        u = u_value(m, j)
        for pos in (u - 1, u, u + 1):
            counts = [prefix_b_count(m, pos + i) for i in range(65)]
            expected = "".join("AB"[high - low] for low, high in zip(counts, counts[1:]))
            for length in (1, 2, 3, 7, 64):
                assert _letters_at(m, pos, length) == expected[:length], (j, pos, length)



@pytest.mark.parametrize("m", LETTER_MORPHISMS, ids=str)
def test_advance_moves_the_low_digits_or_declines(m):
    # value + by from the value's digits and weight: exact while the places
    # from 24 up keep their digits, None when they change or do not exist
    rng = random.Random(11)
    values = [rng.randrange(10 ** 30, 10 ** 60) for _ in range(10)] + [5, 10 ** 6]
    for j in (24, 25, 30, 130):
        u, u24 = u_value(m, j), u_value(m, 24)
        values += [u - 3, u, u + 5, 2 * u - 100, u + u24 - 50, u + u24 + 50]
    plan, advanced = _plan(m), 0
    for value in values:
        rows = _top_rows(m, value + 10 ** 4)
        (digits,), (weight,) = digit_lists(rows, (value,))
        for by in (0, 1, -1, 100, -100, 4096, -4096, 12345, -12345):
            if value + by < 0:
                continue
            (expected,), (expected_weight,) = digit_lists(rows, (value + by,))
            got = numeration._advance(plan, digits, weight, by)
            if len(digits) > 24 and digits[24:] == expected[24:]:
                assert got == (expected, expected_weight), (value, by)
                advanced += 1
            else:
                assert got is None, (value, by)
    assert advanced > 100

# --- large-n certificates ----------------------------------------------------------

#: The baseline three, two non-simple morphisms with d = p - q > 1 (one with
#: places of about 20 bits, whose split estimates are off by about one unit
#: per place of m, so that the correction jump does the work), a simple one
#: whose every place spans more than 64 bits, and simple (1, 1), whose places
#: span under one bit each.
CERTIFIED = BASELINE + [make_morphism(7, 3, "nonsimple"), make_morphism(10 ** 6, 1, "nonsimple"),
                        make_morphism(2 ** 70, 3, "simple"), make_morphism(1, 1, "simple")]


def _assert_certified(m, n):
    # the digits are Parry-admissible and sum to n, so they are n's greedy
    # digits; their B-weight, summed independently, is the prefix B-count
    digits = normal_u_rep(m, n)
    assert digits[0] > 0 or digits == (0,), n
    assert ref_admissible(m, digits), n
    value, weight = ref_digit_sums(m, digits)
    assert value == n
    assert prefix_b_count(m, n) == weight, n


@pytest.mark.parametrize("m", CERTIFIED, ids=str)
def test_place_rows_read_every_place_from_any_top(m):
    # rows at any top give every U_j and |phi^j(A)|_B: from the row list, above
    # the window, below it and far above it alike
    expected = [(a + b, b) for _, (a, b) in zip(range(700), ref_rows(m))]
    for top in (0, 126, 127, 128, 300, 600):
        rows = place_rows(m, top)
        assert [rows.place(j) for j in range(700)] == expected, top


@pytest.mark.parametrize("m", CERTIFIED, ids=str)
def test_greedy_digits_certified_around_u(m):
    # U_j - 1, U_j and U_j + 1 sit on a place's edge; j <= 600 crosses the
    # end of the row list and the splits at 128, 256 and 512
    for j, (a, b) in zip(range(601), ref_rows(m)):
        for n in (a + b - 1, a + b, a + b + 1):
            _assert_certified(m, n)


@pytest.mark.parametrize("m", CERTIFIED, ids=str)
def test_greedy_digits_certified_at_large_n(m):
    rng = random.Random(m.p % 1000 * 10 + m.q)
    for low, high in ((5000, 12000), (12000, 30000)):
        digits = rng.randrange(low, high + 1)
        _assert_certified(m, rng.randrange(10 ** (digits - 1), 10 ** digits))


#: Places j <= 2600 where the blocked certificate of an earlier greedy pass
#: had no unit to spare at n = U_j: the truncated value of U_j overstated it
#: by all but under one unit (only non-simple places have a negative
#: coefficient to allow that).  Frozen from that pass, as inputs that once
#: sat on an edge.
_LOWER_BOUND_PLACES = {
    (2, 1): [2520, 2428, 2336, 2244, 2152, 2061, 2060, 1968, 1876, 1785, 1784, 1692, 1600, 1508,
             1416, 1324, 1232, 1140, 1048, 956, 864, 772, 680, 588, 496, 404, 312, 220],
    (5, 2): [2572, 2521, 2520, 2468, 2416, 2364, 2312, 2261, 2260, 2208, 2156, 2104, 2052, 2000,
             1948, 1896, 1844, 1792, 1740, 1688, 1636, 1584, 1533, 1532, 1480, 1428, 1376, 1324,
             1272, 1220, 1168, 1116, 1064, 1012, 960, 908, 856, 804, 752, 700, 648, 596, 544, 492,
             440, 388, 336, 284, 232, 180, 128],
    (7, 3): [2592, 2548, 2504, 2460, 2416, 2372, 2328, 2284, 2240, 2196, 2152, 2108, 2064, 2020,
             1976, 1932, 1888, 1844, 1800, 1756, 1712, 1668, 1624, 1580, 1537, 1536, 1492, 1448,
             1404, 1360, 1316, 1272, 1228, 1184, 1140, 1096, 1052, 1008, 964, 920, 876, 832, 788,
             744, 700, 656, 612, 568, 524, 480, 436, 392, 348, 304, 260, 216, 172, 128],
}


@pytest.mark.parametrize("m", [make_morphism(p, q, "nonsimple") for p, q in _LOWER_BOUND_PLACES],
                         ids=str)
def test_greedy_digits_certified_where_a_place_sits_on_its_lower_bound(m):
    for j in _LOWER_BOUND_PLACES[m.p, m.q]:
        for n in (u_value(m, j), u_value(m, j) + 1):
            _assert_certified(m, n)


# --- the split recursion -------------------------------------------------------------

@pytest.mark.parametrize("m", CERTIFIED, ids=str)
def test_greedy_digits_certified_around_the_splits(m):
    # U_j - 1, U_j and U_j + 1 for j next to a split place 128 2^k, where the
    # top part m has the fewest or the most places a split leaves it
    for j in sorted({128 * 2 ** k + offset for k in range(6) for offset in (-1, 0, 1)}):
        u = u_value(m, j)
        for n in (u - 1, u, u + 1):
            _assert_certified(m, n)


@pytest.mark.parametrize("m", CERTIFIED, ids=str)
def test_digit_lists_and_b_weights_match_reference_sums(m):
    # two values per pass, one of them far below the top
    rng = random.Random(m.p % 997 * 31 + m.q)
    for low, high in ((500, 2000), (2000, 8000), (8000, 30000)):
        digits = rng.randrange(low, high + 1)
        x = rng.randrange(10 ** (digits - 1), 10 ** digits)
        y = rng.randrange(10 ** (digits // 3))
        rows = _top_rows(m, x)
        lists, weights = digit_lists(rows, (x, y))
        assert b_weights(rows, x, y) == tuple(weights)
        for value, found, weight in zip((x, y), lists, weights):
            assert len(found) == rows.top + 1
            assert ref_digit_sums(m, found[::-1]) == (value, weight), digits


@pytest.mark.parametrize("m", CERTIFIED, ids=str)
def test_u_rep_value_of_long_non_normal_strings(m):
    # digits up to 2p + 3 over up to 1300 places: two splits deep, no string
    # greedy; 128, 129, 256, 257 and 513 places sit on the edges of a split
    rng = random.Random(m.q)
    for places in (128, 129, 256, 257, 301, 513, 700, 1300):
        digits = [rng.randrange(2 * m.p + 4) for _ in range(places)]
        assert u_rep_value(m, digits) == ref_digit_sums(m, digits)[0], places


@pytest.mark.parametrize("m", CERTIFIED, ids=str)
def test_last_split_estimates_within_the_jump_bound(m):
    # the last split's scale is cut to the bits of its quotients, below
    # U_{top-h+2}: tops just above a split place h, mid-way and just below 2h
    plan, rng = _plan(m), random.Random(m.p % 991 * 17 + m.q)
    for k in range(5):
        h = 128 << k
        for top in (h + 1, 3 * h // 2, 2 * h - 1):
            last, u, _, _, _, scale = numeration._splits(plan, top)[-1]
            assert last == h
            rows, bound = place_rows(m, top), u_value(m, top + 1)
            for x in (rng.randrange(bound), rng.randrange(bound), bound - 1):
                (digits,), _ = digit_lists(rows, (x,))
                error = abs(numeration._quotient(x, u, scale) - u_rep_value(m, digits[h:][::-1]))
                assert error <= top - h + 1 + numeration._MAX_STEPS, (top, x)
                assert error <= 2 or m not in BASELINE, (top, x)


@pytest.mark.parametrize("offset, exact", [(-4, True), (4, True), (-12, False), (12, False)])
def test_split_estimates_take_at_most_eight_steps(monkeypatch, offset, exact):
    # a split's estimate and its correction jump land within a unit or two of
    # m; eight single steps absorb an error of 4 more, and an error of 12 fails
    # loudly instead of stepping on
    m = make_morphism(3, 1, "nonsimple")
    n = 7 * 10 ** 999 + 12345
    expected = normal_u_rep(m, n)
    quotient = numeration._quotient
    monkeypatch.setattr(numeration, "_quotient", lambda *args: quotient(*args) + offset)
    assert numeration._MAX_STEPS == 8
    if exact:
        assert normal_u_rep(m, n) == expected
    else:
        with pytest.raises(AssertionError, match="within 8 steps"):
            normal_u_rep(m, n)


@pytest.mark.parametrize("sign", [-1, 1])
@pytest.mark.parametrize("beyond, exact", [(0, True), (2 * numeration._MAX_STEPS, False)])
def test_split_jump_bound_is_m_places_and_eight(monkeypatch, sign, beyond, exact):
    # the top node's estimate off by as many units as its m has places still
    # gives the exact digits, by one jump; twice the eight spare units more
    # fail the jump's bound loudly instead of stepping on, even with every
    # estimate a few units off as well
    m = make_morphism(3, 1, "nonsimple")
    n = 7 * 10 ** 999 + 12345
    expected, top = normal_u_rep(m, n), _top_rows(m, n).top
    h = numeration._splits(_plan(m), top)[-1][0]
    offset, quotient = sign * (top - h + 1 + beyond), numeration._quotient
    monkeypatch.setattr(numeration, "_quotient", lambda x, *args: quotient(x, *args) + offset * (x == n))
    if exact:
        assert normal_u_rep(m, n) == expected
    else:
        with pytest.raises(AssertionError) as caught:
            normal_u_rep(m, n)
        morphism, at_top, jump = caught.value.args[0]
        assert (morphism, at_top) == (m, top) and abs(jump) > top - h + 1 + numeration._MAX_STEPS, jump


@pytest.mark.parametrize("m", BASELINE, ids=str)
def test_split_corrections_take_about_one_step_per_node(monkeypatch, m):
    # every split node's estimate is within a unit or two of its m, so one
    # pass's odometer calls stay near one per node; an estimate 3 off at
    # every node still gives the right digits, by a jump of 3 list-only
    # steps, and only this count shows it
    odometer, calls = numeration._Plan, {"steps": 0, "nodes": 0}
    up, down, greedy = odometer.up, odometer.down, numeration._greedy

    def counted(step):
        def call(self, digits):
            calls["steps"] += 1
            return step(self, digits)
        return call

    def node(plan, splits, x, top):
        calls["nodes"] += top >= 128
        return greedy(plan, splits, x, top)

    monkeypatch.setattr(odometer, "up", counted(up))
    monkeypatch.setattr(odometer, "down", counted(down))
    monkeypatch.setattr(numeration, "_greedy", node)
    rng = random.Random(m.p * 10 + m.q)
    for digits in (2000, 10 ** 4):
        n = rng.randrange(10 ** (digits - 1), 10 ** digits)
        calls.update(steps=0, nodes=0)
        digit_lists(_top_rows(m, n), (n,))
        assert calls["nodes"] > 30 and calls["steps"] <= 1.5 * calls["nodes"], (digits, calls)


@pytest.mark.parametrize("m", BASELINE, ids=str)
def test_values_below_a_split_take_the_lower_half_alone(monkeypatch, m):
    # a value below U_h has no digit at places >= h, so a split node passes
    # it to its lower half alone: one call per split and one leaf for each of
    # 5 and b_weights' default 0, where a full pass opens every upper half
    rows, expected = place_rows(m, 2000), prefix_b_count(m, 5)
    splits = len(numeration._splits(numeration._plan(m), rows.top))
    greedy, calls = numeration._greedy, []

    def counted(*args):
        calls.append(args[3])
        return greedy(*args)

    monkeypatch.setattr(numeration, "_greedy", counted)
    assert b_weights(rows, 5) == (expected, 0)
    assert splits == 4 and len(calls) <= 2 * (splits + 1), calls
    (digits,), _ = digit_lists(rows, (5,))
    low = normal_u_rep(m, 5)[::-1]
    assert digits == [*low, *[0] * (rows.top + 1 - len(low))]


def test_concurrent_cold_start_keeps_u_values_exact():
    # threads build one cold morphism's plan at once, then read places on
    # both sides of the row list's end
    m = make_morphism(7, 3, "nonsimple")
    u = [sum(power[0]) for power in ref_matrix_powers(m, 400)]
    failures = []

    def worker(seed):
        try:
            for k in range(seed, 400, 3):
                assert u_value(m, k) == u[k]
                assert u_rep_value(m, normal_u_rep(m, u[k] - seed)) == u[k] - seed
        except Exception as exc:   # surface to the main thread
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(s,)) for s in range(1, 9)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not failures
