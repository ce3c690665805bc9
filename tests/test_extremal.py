"""Extremal words: constructions, stage arithmetic, closed-form B-counts."""

from __future__ import annotations

import re
import tracemalloc

import pytest

from parryac import extremal
from parryac import (
    Family,
    UnsupportedConstructionError,
    apply,
    choose_k_nonsimple,
    choose_mn_simple,
    fixed_point_prefix,
    make_morphism,
    oracle_ac,
    prefix_b_count,
    u_value,
    v_b_count_simple,
    w_b_count_nonsimple,
    w_b_count_simple,
    w_prefix_nonsimple,
    w_stage_length_nonsimple,
    wv_prefix_simple,
    wv_stage_length_simple,
)

from conftest import (
    NONSIMPLE_GRID,
    SIMPLE_GRID,
    ref_w_nonsimple,
    ref_w_stage_nonsimple,
    ref_wv_simple,
    ref_wv_stage_simple,
    ref_matrix_powers,
    ref_power_of_a,
    ref_rows,
    ref_stride_sum,
)

SIMPLE_EXTREMAL = [m for m in SIMPLE_GRID if m.q > 1]
SIMPLE_LARGE_P = [make_morphism(60, 40, "simple"), make_morphism(100, 100, "simple")]
NONSIMPLE_LARGE_P = [make_morphism(300, 299, "nonsimple"), make_morphism(1000, 1, "nonsimple")]
# every short length, to catch an off-by-one in how much of a word is mapped
PREFIX_LENGTHS = [*range(301), 4000]
LONG_PREFIX = 2 * 10 ** 5


# --- non-simple constructions ---------------------------------------------------

def test_w_prefix_nonsimple_examples(nonsimple31):
    assert w_prefix_nonsimple(nonsimple31, 3) == "BAB"
    assert w_prefix_nonsimple(nonsimple31, 9) == "BABAAABAB"
    for m in NONSIMPLE_GRID:
        assert w_prefix_nonsimple(m, 1) == "B"


@pytest.mark.parametrize("m", NONSIMPLE_GRID + NONSIMPLE_LARGE_P)
def test_w_prefix_nonsimple_matches_reference(m):
    reference = ref_w_nonsimple(m, 4000)
    for length in PREFIX_LENGTHS:
        assert w_prefix_nonsimple(m, length) == reference[:length]


def test_w_prefix_family_mismatch(simple32):
    with pytest.raises(ValueError, match="nonsimple"):
        w_prefix_nonsimple(simple32, 5)


def test_w_stage_length_nonsimple_examples(nonsimple31):
    assert w_stage_length_nonsimple(nonsimple31, 0) == 1
    assert w_stage_length_nonsimple(nonsimple31, 1) == 3
    assert w_stage_length_nonsimple(nonsimple31, 2) == 9


@pytest.mark.parametrize("m", NONSIMPLE_GRID)
def test_w_stage_length_matches_reference(m):
    for stage in range(6):
        assert w_stage_length_nonsimple(m, stage) == len(ref_w_stage_nonsimple(m, stage))


def test_choose_k_nonsimple_examples(nonsimple31):
    assert choose_k_nonsimple(nonsimple31, 7) == 3
    assert choose_k_nonsimple(nonsimple31, 1) == 2
    assert choose_k_nonsimple(nonsimple31, 163) == 5


@pytest.mark.parametrize("m", NONSIMPLE_GRID)
def test_choose_k_guarantees_stage_containment(m):
    for n in list(range(1, 300)) + [10 ** 4, 10 ** 4 + 1]:
        k = choose_k_nonsimple(m, n)
        assert n <= w_stage_length_nonsimple(m, k)


def test_w_b_count_nonsimple_examples(nonsimple31):
    assert w_b_count_nonsimple(nonsimple31, 7, 3) == 3
    assert w_b_count_nonsimple(nonsimple31, 1, 2) == 1
    # derived: count B in the constructed stage word BABAAABAB
    assert ref_w_stage_nonsimple(nonsimple31, 2) == "BABAAABAB"
    assert w_b_count_nonsimple(nonsimple31, 9, 2) == 4


def test_w_b_count_nonsimple_rejects_small_stage(nonsimple31):
    with pytest.raises(IndexError, match="exceeds"):
        w_b_count_nonsimple(nonsimple31, 10, 2)   # |w^(2)| = 9 < 10


@pytest.mark.parametrize("m", NONSIMPLE_GRID)
def test_w_b_count_nonsimple_vs_brute_force(m):
    limit = 10 ** 4
    text = w_prefix_nonsimple(m, limit)
    running = 0
    for n in range(1, limit + 1):
        running += text[n - 1] == "B"
        assert w_b_count_nonsimple(m, n, choose_k_nonsimple(m, n)) == running


# --- non-simple stage structure ---------------------------------------------------

@pytest.mark.parametrize("m", NONSIMPLE_GRID)
def test_w_stages_are_palindromes(m):
    for stage in range(9):
        word = w_prefix_nonsimple(m, w_stage_length_nonsimple(m, stage))
        assert word == word[::-1]


@pytest.mark.parametrize("m", NONSIMPLE_GRID)
def test_w_stages_are_proper_suffixes_of_iterates(m):
    for stage in range(9):
        word = w_prefix_nonsimple(m, w_stage_length_nonsimple(m, stage))
        iterate = fixed_point_prefix(m, u_value(m, stage + 1))
        assert len(word) < len(iterate)
        assert iterate.endswith(word)


# --- simple constructions ------------------------------------------------------------

def test_wv_prefix_simple_examples(simple32):
    assert wv_prefix_simple(simple32, "w", 7) == "BAAABAA"
    assert wv_prefix_simple(simple32, "v", 7) == "AAAAABA"
    assert wv_prefix_simple(simple32, "v", 2) == "AA"


@pytest.mark.parametrize("m", SIMPLE_EXTREMAL + SIMPLE_LARGE_P)
@pytest.mark.parametrize("which", ["v", "w"])
def test_wv_prefix_simple_matches_reference(m, which):
    # each step of the iteration maps only a cut of the word so far; lengths
    # next to every stage length and every U_j are where a short cut shows
    edges = [wv_stage_length_simple(m, kind, s) for kind in ("v", "w") for s in range(40)]
    edges += [u_value(m, j) for j in range(40)]
    lengths = {edge + shift for edge in edges for shift in (-1, 0, 1)} | set(PREFIX_LENGTHS)
    reference = ref_wv_simple(m, which, LONG_PREFIX)
    for length in sorted(x for x in lengths if 0 <= x <= LONG_PREFIX):
        assert wv_prefix_simple(m, which, length) == reference[:length]


@pytest.mark.parametrize("which", ["v", "w"])
def test_wv_prefix_simple_large_p_builds_no_long_image(which):
    # |phi^2(A)| is about 10^10 letters here, so a prefix must come from
    # single passes over short cuts.  The reference w starts B phi(A), and
    # v = phi(w) starts A^q phi(A)^2, both past the first p + 2 letters
    m = make_morphism(10 ** 5, 2, "simple")
    reference_w = ref_wv_simple(m, "w", m.p + 2)
    expected = {"w": reference_w, "v": apply(m, reference_w[:3])}[which]
    tracemalloc.start()
    try:
        prefixes = {n: wv_prefix_simple(m, which, n) for n in (1, 10, m.p + 1, m.p + 2)}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 10 ** 6
    for n, prefix in prefixes.items():
        assert prefix == expected[:n]


@pytest.mark.parametrize("which", ["ubeta", "w"])
def test_nonsimple_large_p_prefixes_build_no_long_image(which):
    # every word steps by the same cut images; |phi^2(A)| is about 10^10
    # letters here.  u starts phi(AAA) and w = B phi(w) starts B phi(BABAA)
    m = make_morphism(10 ** 5, 1, "nonsimple")
    build, expected = {"ubeta": (fixed_point_prefix, apply(m, "AAA")),
                       "w": (w_prefix_nonsimple, "B" + apply(m, "BABAA"))}[which]
    tracemalloc.start()
    try:
        prefixes = {n: build(m, n) for n in (1, 10, m.p + 1, m.p + 2, 3 * m.p)}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 10 ** 6
    for n, prefix in prefixes.items():
        assert prefix == expected[:n]


def test_wv_prefix_simple_rejects_sturmian_case():
    m = make_morphism(4, 1, "simple")
    with pytest.raises(UnsupportedConstructionError):
        wv_prefix_simple(m, "v", 5)
    with pytest.raises(UnsupportedConstructionError):
        wv_prefix_simple(m, "w", 5)


def test_wv_prefix_simple_family_mismatch(nonsimple31):
    with pytest.raises(ValueError, match="simple"):
        wv_prefix_simple(nonsimple31, "v", 5)


@pytest.mark.parametrize("call, message", [
    (lambda m: wv_prefix_simple(m, "x", 3), "which must be 'v' or 'w', got 'x'"),
    (lambda m: wv_stage_length_simple(m, "w", -1), "w stages start at 0, got -1"),
    (lambda m: wv_stage_length_simple(m, "v", -2), "v stages start at -1, got -2"),
], ids=["which", "w stage", "v stage"])
def test_wv_simple_rejects_bad_which_and_stage(simple32, call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(simple32)


def test_wv_stage_length_simple_examples(simple32):
    assert wv_stage_length_simple(simple32, "w", 1) == 5
    assert wv_stage_length_simple(simple32, "v", 0) == 2
    assert wv_stage_length_simple(simple32, "w", 0) == 1
    assert wv_stage_length_simple(simple32, "v", -1) == 1


@pytest.mark.parametrize("m", SIMPLE_EXTREMAL)
@pytest.mark.parametrize("which", ["v", "w"])
def test_wv_stage_length_matches_reference(m, which):
    for stage in range(5):
        assert wv_stage_length_simple(m, which, stage) == len(
            ref_wv_stage_simple(m, which, stage))


def test_choose_mn_simple_examples(simple32):
    assert choose_mn_simple(simple32, 7) == (0, 1, 1)
    assert choose_mn_simple(simple32, 1) == (-1, 0, 0)
    assert choose_mn_simple(simple32, 5) == (0, 1, 1)


@pytest.mark.parametrize("m", SIMPLE_EXTREMAL)
def test_choose_mn_brackets_by_stages(m):
    # the postcondition asserts stage containment internally; exercise a range
    for n in list(range(1, 500)) + [10 ** 5, 10 ** 9]:
        m_stage, n_stage, j_idx = choose_mn_simple(m, n)
        assert u_value(m, j_idx) <= n < u_value(m, j_idx + 1)
        assert m_stage in (n_stage - 1, n_stage)


def test_v_b_count_simple_examples(simple32):
    assert v_b_count_simple(simple32, 7, 0) == 1
    assert v_b_count_simple(simple32, 2, 0) == 0
    assert v_b_count_simple(simple32, 1, -1) == 0


def test_w_b_count_simple_examples(simple32):
    assert w_b_count_simple(simple32, 7, 1) == 2
    assert w_b_count_simple(simple32, 1, 0) == 1
    # derived: BAAAB counted directly
    assert wv_prefix_simple(simple32, "w", 5) == "BAAAB"
    assert w_b_count_simple(simple32, 5, 1) == 2


def test_b_count_simple_stage_mismatch(simple32):
    with pytest.raises(ValueError, match="stage mismatch"):
        v_b_count_simple(simple32, 1, 0)    # |v^(0)| = 2 > 1
    with pytest.raises(ValueError, match="stage mismatch"):
        w_b_count_simple(simple32, 7, 0)    # |w^(1)| = 5 <= 7


@pytest.mark.parametrize("m", SIMPLE_EXTREMAL)
def test_b_counts_simple_vs_brute_force(m):
    limit = 10 ** 4
    v_text = wv_prefix_simple(m, "v", limit)
    w_text = wv_prefix_simple(m, "w", limit)
    v_running = w_running = 0
    for n in range(1, limit + 1):
        v_running += v_text[n - 1] == "B"
        w_running += w_text[n - 1] == "B"
        m_stage, n_stage, _ = choose_mn_simple(m, n)
        assert v_b_count_simple(m, n, m_stage) == v_running
        assert w_b_count_simple(m, n, n_stage) == w_running


# --- simple-family word relations -----------------------------------------------------

@pytest.mark.parametrize("m", SIMPLE_EXTREMAL)
def test_phi_maps_w_into_v(m):
    w_text = wv_prefix_simple(m, "w", 10 ** 5)
    image = apply(m, w_text)
    assert wv_prefix_simple(m, "v", len(image)) == image


@pytest.mark.parametrize("m", SIMPLE_EXTREMAL)
def test_phi_maps_v_onto_shifted_w(m):
    v_text = wv_prefix_simple(m, "v", 10 ** 5)
    image = apply(m, v_text)
    assert image[:m.p] == "A" * m.p
    shifted = image[m.p:]
    assert wv_prefix_simple(m, "w", len(shifted)) == shifted


@pytest.mark.parametrize("m", SIMPLE_EXTREMAL)
def test_w_stage_is_suffix_of_even_iterate_of_b(m):
    # size-capped: stage 6 reaches ~1e9 letters for the largest grid parameters
    for stage in range(7):
        if wv_stage_length_simple(m, "w", stage) > 3 * 10 ** 6:
            break
        word = ref_wv_stage_simple(m, "w", stage)
        iterate = "B"
        for _ in range(2 * stage):
            iterate = apply(m, iterate)
        assert iterate.endswith(word)


@pytest.mark.parametrize("m", SIMPLE_GRID)
def test_a_run_gap_law_simple(m):
    # maximal A-runs strictly between two B's have length p or p+q
    text = fixed_point_prefix(m, 10 ** 5)
    interior = text.split("B")[1:-1]
    assert set(map(len, interior)) <= {m.p, m.p + m.q}


# --- extremality against the oracle ----------------------------------------------------

@pytest.mark.parametrize("m", [pytest.param(m, id=f"{m.family.value}-{m.p}-{m.q}")
                               for m in (NONSIMPLE_GRID[1], NONSIMPLE_GRID[-2],
                                         SIMPLE_EXTREMAL[0], SIMPLE_EXTREMAL[-1])])
def test_extremal_prefixes_realize_oracle_interval(m):
    for n in range(1, 2001):
        interval = oracle_ac(m, n)
        if m.family is Family.NONSIMPLE:
            v_count = prefix_b_count(m, n)
            w_count = w_b_count_nonsimple(m, n, choose_k_nonsimple(m, n))
        else:
            m_stage, n_stage, _ = choose_mn_simple(m, n)
            v_count = v_b_count_simple(m, n, m_stage)
            w_count = w_b_count_simple(m, n, n_stage)
        assert interval.min_b == v_count
        assert interval.max_b == w_count


def _starts(m):
    """Starts around U_j, around each simple threshold, and at 1 and 10^40."""
    starts = {1, 10 ** 40}
    for j in [*range(1, 12), 127, 128, 129]:
        edges = [u_value(m, j)]
        if m.family is Family.SIMPLE:  # the n of U_j <= n < U_{j+1} split at a stage length
            which, stage = ("v", j // 2) if j % 2 == 0 else ("w", j // 2 + 1)
            edges.append(wv_stage_length_simple(m, which, stage))
        starts.update(edge + d for edge in edges for d in (-1, 0, 1))
    return sorted(starts)


@pytest.mark.parametrize("m", SIMPLE_EXTREMAL + NONSIMPLE_GRID)
def test_spans_split_a_range_into_one_span_per_stage(m):
    # every n is bracketed by the public stage lengths, not through _spans
    for start in _starts(m):
        stop = start + 60
        spans = list(extremal._spans(m, start, stop))
        assert [first for _, _, first, _ in spans] == [start] + [last + 1 for *_, last in spans[:-1]]
        assert spans[-1][3] == stop
        # a simple stage can reach across some U_J, where its n change rows
        keys = [(rows.top, stage) for rows, stage, _, _ in spans]
        assert keys == sorted(set(keys)), start
        for rows, stage, first, last in spans:
            assert u_value(m, rows.top) <= first <= last < u_value(m, rows.top + 1)
            if m.family is Family.NONSIMPLE:
                assert stage == rows.top + 2
                assert last <= w_stage_length_nonsimple(m, stage)
            else:
                # one index s = M + N: J's n lie in stage J - 1 or J
                assert stage in (rows.top - 1, rows.top)
                m_stage, n_stage = stage // 2, (stage + 1) // 2
                assert wv_stage_length_simple(m, "w", n_stage) <= first
                assert last < wv_stage_length_simple(m, "w", n_stage + 1)
                assert wv_stage_length_simple(m, "v", m_stage) <= first
                assert last < wv_stage_length_simple(m, "v", m_stage + 1)
        for rows, stage, _, last in spans[:-1]:
            # the span ended with its stage or its top: n = last + 1 is outside one of them
            ends = {u_value(m, rows.top + 1)}
            if m.family is Family.SIMPLE:
                ends |= {wv_stage_length_simple(m, "w", (stage + 1) // 2 + 1),
                         wv_stage_length_simple(m, "v", stage // 2 + 1)}
            assert last + 1 in ends, (start, last)
    # a stop inside the first span gives that span alone, cut at the stop
    rows, stage, first, last = next(extremal._spans(m, 10 ** 40, 10 ** 41))
    middle = (first + last) // 2
    assert first < middle < last
    assert [(span[0].top, *span[1:]) for span in extremal._spans(m, first, middle)] == [
        (rows.top, stage, first, middle)]


# --- O(1) stage sums against plain summation, stages 0..300 -----------------------

LAST_STAGE = 300


@pytest.mark.parametrize("m", NONSIMPLE_GRID)
def test_w_stage_length_nonsimple_equals_plain_sum(m):
    # |w^(k)| = sum_{j<=k} |phi^j(B)|, and |phi^j(B)| sums row B of M^j
    phi_b = [sum(power[1]) for power in ref_matrix_powers(m, LAST_STAGE + 1)]
    for stage in range(LAST_STAGE + 1):
        assert w_stage_length_nonsimple(m, stage) == ref_stride_sum(phi_b, stage, 1)


@pytest.mark.parametrize("m", SIMPLE_EXTREMAL)
def test_simple_stage_sums_equal_plain_sums(m):
    powers = ref_matrix_powers(m, 2 * LAST_STAGE + 1)
    u = [sum(power[0]) for power in powers]
    b = [power[0][1] for power in powers]
    # at n = |v^(k)| or |w^(k)| the digit part of a B-count is zero, leaving its fixed part
    for stage in range(-1, LAST_STAGE + 1):
        low = wv_stage_length_simple(m, "v", stage)
        assert low == 1 + (m.q - 1) * ref_stride_sum(u, 2 * stage, 2)
        assert v_b_count_simple(m, low, stage) == (m.q - 1) * ref_stride_sum(b, 2 * stage, 2)
    for stage in range(LAST_STAGE + 1):
        low = wv_stage_length_simple(m, "w", stage)
        assert low == 1 + (m.q - 1) * ref_stride_sum(u, 2 * stage - 1, 2)
        fixed = (m.q - 1) * ref_stride_sum(b, 2 * stage - 1, 2)
        assert w_b_count_simple(m, low, stage) == 1 + fixed


@pytest.mark.parametrize("m", SIMPLE_EXTREMAL)
def test_wv_stage_lengths_interleave(m):
    # |w^(0)| < |v^(0)| < |w^(1)| < ... < |v^(300)|: the stage lengths of v and w
    # are one increasing sequence, so one index s = M + N places every simple n
    lengths = [wv_stage_length_simple(m, which, stage)
               for stage in range(LAST_STAGE + 1) for which in ("w", "v")]
    assert all(a < b for a, b in zip(lengths, lengths[1:]))


# --- far stages against running sums: stages 1,000, 1,001 and 2,500 ---------------

# indices t up to 5,000, far past the plan's 128-row list, where every
# closed-form route reads the same stage kernels
FAR_STAGES = (1000, 1001, 2500)


def _running_sums(rows, step, wanted):
    """{t: (sum of a + b, sum of b)} over the rows (a, b) with j <= t and j = t (mod step),
    for each t in `wanted`, from one running sum per residue."""
    sums, found = [(0, 0)] * step, {}
    for j, (a, b) in zip(range(max(wanted) + 1), rows):
        total, count = sums[j % step]
        sums[j % step] = total + a + b, count + b
        if j in wanted:
            found[j] = sums[j % step]
    return found


@pytest.mark.parametrize("m", NONSIMPLE_GRID)
def test_far_w_stages_nonsimple_equal_running_sums(m):
    # w^(k) = B phi(B) ... phi^k(B): its length and B-count sum the rows (0,1) M^j
    sums = _running_sums(ref_rows(m, (0, 1)), 1, set(FAR_STAGES))
    for k in FAR_STAGES:
        length, count = sums[k]
        assert w_stage_length_nonsimple(m, k) == length, k
        assert w_b_count_nonsimple(m, length, k) == count, k


@pytest.mark.parametrize("m", SIMPLE_EXTREMAL)
def test_far_wv_stages_simple_equal_running_sums(m):
    # v^(h) is A^q and blocks phi^j(A)^(q-1), j = 2, 4, ..., 2h; w^(h) is B and
    # blocks j = 1, 3, ..., 2h - 1.  At its own length a B-count is its fixed part
    sums = _running_sums(ref_rows(m), 2, {2 * h - d for h in FAR_STAGES for d in (0, 1)})
    for h in FAR_STAGES:
        for which, t, lead_b, b_count in (("v", 2 * h, 0, v_b_count_simple),
                                          ("w", 2 * h - 1, 1, w_b_count_simple)):
            total, count = sums[t]
            length = 1 + (m.q - 1) * total
            assert wv_stage_length_simple(m, which, h) == length, (which, h)
            assert b_count(m, length, h) == lead_b + (m.q - 1) * count, (which, h)
