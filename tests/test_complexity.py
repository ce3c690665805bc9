"""Closed-form complexity: both families, dispatch, bounds, cross-routes."""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest

from parryac import (
    METHOD_CLOSED_FORM,
    METHOD_STURMIAN,
    ACResult,
    Family,
    UnsupportedConstructionError,
    ac,
    ac_nonsimple,
    ac_range,
    ac_via_prefix_counts,
    balance_bound,
    choose_k_nonsimple,
    choose_mn_simple,
    fixed_point_prefix,
    make_morphism,
    max_ac,
    normal_u_rep,
    oracle_ac,
    parikh_extrema,
    prefix_b_count,
    prefix_decomposition,
    u_rep_value,
    u_value,
    v_b_count_simple,
    w_b_count_nonsimple,
    w_b_count_simple,
    w_prefix_nonsimple,
    w_stage_length_nonsimple,
    wv_prefix_simple,
    wv_stage_length_simple,
)
from parryac import complexity, numeration
from parryac.numeration import _top_rows, digit_lists
from parryac.words import word_prefix
from conftest import (
    MATRIX_IDENTITY,
    NONSIMPLE_GRID,
    SIMPLE_GRID,
    STURMIAN_NONSIMPLE,
    STURMIAN_SIMPLE,
    incidence_matrix,
    mat_mul,
    mat_pow,
)

SIMPLE_EXTREMAL = [m for m in SIMPLE_GRID if m.q > 1]


# --- ac_nonsimple ---------------------------------------------------------------

def test_ac_nonsimple_worked_example(nonsimple31):
    assert ac_nonsimple(nonsimple31, 7) == 3


def test_ac_nonsimple_sturmian_parameters():
    assert ac_nonsimple(make_morphism(2, 1, "nonsimple"), 10) == 2


def test_ac_nonsimple_length_one(nonsimple31):
    assert ac_nonsimple(nonsimple31, 1) == 2


def test_ac_nonsimple_rejects_simple(simple32):
    with pytest.raises(ValueError, match="non-simple"):
        ac_nonsimple(simple32, 5)


def test_ac_nonsimple_rejects_zero(nonsimple31):
    with pytest.raises(ValueError, match="positive"):
        ac_nonsimple(nonsimple31, 0)


@pytest.mark.parametrize("m", NONSIMPLE_GRID)
def test_ac_nonsimple_k_invariance(m):
    # any admissible stage index gives the same value
    for n in range(1, 2001):
        k = choose_k_nonsimple(m, n)
        value = ac_nonsimple(m, n)
        assert ac_nonsimple(m, n, k=k) == value
        assert ac_nonsimple(m, n, k=k + 1) == value
    # a k far above a large n's stage is read from a window of its own, not from n's top
    n = 10 ** 300 + 7
    assert ac_nonsimple(m, n, k=choose_k_nonsimple(m, n) + 300) == ac_nonsimple(m, n)


def test_ac_nonsimple_rejects_inadmissible_k(nonsimple31):
    with pytest.raises(ValueError, match="inadmissible"):
        ac_nonsimple(nonsimple31, 10, k=2)   # |w^(2)| = 9 < 10


def test_ac_nonsimple_rejects_negative_k(nonsimple31):
    # a negative k would read the row tables from their far end
    with pytest.raises(ValueError, match="^k must be nonnegative, got -1$"):
        ac_nonsimple(nonsimple31, 7, k=-1)


# --- dispatcher ---------------------------------------------------------------------

def test_ac_dispatch_sturmian_shortcut():
    result = ac(make_morphism(4, 1, "simple"), 10 ** 6)
    assert result.value == 2 and result.method == METHOD_STURMIAN


def test_ac_dispatch_closed_form(nonsimple31):
    assert ac(nonsimple31, 7) == (7, 3, METHOD_CLOSED_FORM)


def test_ac_simple_worked_example(simple32):
    assert ac(simple32, 7) == (7, 2, METHOD_CLOSED_FORM)


def test_ac_simple_derived_example(simple32):
    # both AAAAA and BAAAB occur as factors of length 5
    assert ac(simple32, 5) == (5, 3, METHOD_CLOSED_FORM)


def test_ac_simple_length_one(simple32):
    assert ac(simple32, 1) == (1, 2, METHOD_CLOSED_FORM)


def test_ac_rejects_zero(nonsimple31):
    with pytest.raises(ValueError, match="positive"):
        ac(nonsimple31, 0)


# --- ranges ---------------------------------------------------------------------------

GRID_25 = SIMPLE_GRID + NONSIMPLE_GRID + STURMIAN_SIMPLE


@pytest.mark.parametrize("m", GRID_25)
def test_ac_range_equals_ac(m):
    assert list(ac_range(m, 1, 3000)) == [ac(m, n) for n in range(1, 3001)]


def _stage_edges(m, places):
    """U_j and the stage lengths at each place j: |w^(j)| (non-simple), or
    |v^(floor(j/2))| and |w^(ceil(j/2))| (simple, q > 1)."""
    edges = [u_value(m, j) for j in places]
    if m.family.value == "nonsimple":
        edges += [w_stage_length_nonsimple(m, j) for j in places]
    elif m.q > 1:
        edges += [wv_stage_length_simple(m, "v", j // 2) for j in places]
        edges += [wv_stage_length_simple(m, "w", (j + 1) // 2) for j in places]
    return edges


@pytest.mark.parametrize("m", GRID_25)
def test_ac_range_equals_ac_across_stage_edges(m):
    # spans that start just before, at and just after every stage change
    starts = {max(edge + shift, 1) for edge in _stage_edges(m, range(14)) for shift in (-1, 0, 1)}
    starts |= {10 ** 30, 10 ** 30 + 12345}
    for start in sorted(starts):
        stop = start + 40
        assert list(ac_range(m, start, stop)) == [ac(m, n) for n in range(start, stop + 1)]


@pytest.mark.parametrize("m", [NONSIMPLE_GRID[1], SIMPLE_GRID[1], SIMPLE_GRID[-1],
                               make_morphism(7, 3, "nonsimple"), make_morphism(2, 2, "simple")],
                         ids=str)
def test_ac_range_equals_ac_across_stage_edges_past_the_row_list(m):
    # a range steps from stage to stage by moving its window; past place 128
    # that is a product upward, where each lone ac doubles afresh
    for edge in _stage_edges(m, (126, 127, 128, 129, 130, 300, 301)):
        start = edge - 3
        assert list(ac_range(m, start, start + 6)) == [ac(m, n) for n in range(start, start + 7)]


@pytest.mark.parametrize("m", [NONSIMPLE_GRID[1], SIMPLE_GRID[1], SIMPLE_GRID[-1],
                               STURMIAN_SIMPLE[2]])
def test_ac_range_equals_ac_at_5000_digits(m, monkeypatch):
    # 60 n from 30 below the first stage edge past n's top place, where the
    # range changes records, and from 30 below U_top past the last one, where
    # a letter slice's odometer steps carry above place 128: each lone ac
    # takes the full pass
    records, carries, starts = [], [], []
    letters, up = numeration._letters, numeration._Plan.up

    def sliced(plan, digits, start, length):
        starts.append(start)  # the place of the slice's first digit
        try:
            return letters(plan, digits, start, length)
        finally:
            starts.pop()

    def counted(plan, digits):
        before = list(digits)
        gain = up(plan, digits)
        if starts:  # a step of a slice, on its digits from place starts[-1]
            changed = max(i for i, (a, b) in enumerate(zip(before, digits)) if a != b)
            carries.append(starts[-1] + changed)
        return gain

    def first_pass(rows, values):
        records.append(rows.top)
        return digit_lists(rows, values)

    monkeypatch.setattr(complexity, "digit_lists", first_pass)
    monkeypatch.setattr(complexity, "_letters", sliced)
    monkeypatch.setattr(numeration, "_letters", sliced)
    monkeypatch.setattr(numeration._Plan, "up", counted)
    top = _top_rows(m, 7 * 10 ** 4999 + 12345).top
    edges = _stage_edges(m, [top + 1])
    crossed = []
    for start in (edges[0] - 30, edges[-1] + u_value(m, top) - 30):
        records.clear()
        carries.clear()
        assert list(ac_range(m, start, start + 59)) == [ac(m, n) for n in range(start, start + 60)]
        crossed.append((len(records), max(carries, default=0)))
    if m.q > 1 or m.family is Family.NONSIMPLE:  # the Sturmian values need no records
        assert crossed[0][0] >= 2 and crossed[1][1] > 128, crossed


#: Morphisms whose letter images run to 10^6 and 2^70 letters, and non-simple (7, 3).
WIDE_PLACES = [make_morphism(10 ** 6, 1, "nonsimple"), make_morphism(7, 3, "nonsimple"),
               make_morphism(2 ** 70, 3, "simple")]


@pytest.mark.parametrize("start, stop", [(1, 10_000), (10 ** 40, 10 ** 40 + 4_999)])
@pytest.mark.parametrize("m", WIDE_PLACES, ids=str)
def test_ac_range_on_wide_places_equals_prefix_differences(m, start, stop):
    # ranges of several windows, whose letter slices cut images far longer
    # than themselves, against verify's walk at each n and lone ac at some
    values = [result.value for result in ac_range(m, start, stop)]
    assert values == list(complexity._prefix_differences(m, start, stop))
    for n in random.Random(start).sample(range(start, stop + 1), 40):
        assert ac(m, n).value == values[n - start], n


def test_ac_range_crosses_windows_inside_one_stage(nonsimple31):
    # n = 22,288..30,000 is one stage of non-simple (3, 1), U_8 = 22,288, and
    # more than one window of _value_windows
    assert u_value(nonsimple31, 8) == 22_288 and 30_000 - 22_288 > complexity._WINDOW
    values = [result.value for result in ac_range(nonsimple31, 1, 30_000)]
    assert values == list(complexity._prefix_differences(nonsimple31, 1, 30_000))


@pytest.mark.parametrize("m", [NONSIMPLE_GRID[1], SIMPLE_GRID[1], SIMPLE_GRID[-1]], ids=str)
def test_ac_range_moves_digits_from_window_to_window(m, monkeypatch):
    # past place 24 a window's digits are the last window's, moved; in the
    # non-simple family x = n, so the carry into place 30 at n = 2 U_30
    # takes a fresh pass instead
    passes = []

    def counted(rows, values):
        passes.append(values)
        return digit_lists(rows, values)

    monkeypatch.setattr(complexity, "digit_lists", counted)
    start = 2 * u_value(m, 30) - 7_000
    values = [result.value for result in ac_range(m, start, start + 14_000)]
    assert values == list(complexity._prefix_differences(m, start, start + 14_000))
    assert 1 + (m.family is Family.NONSIMPLE) <= len(passes) < 14_001 / complexity._WINDOW, passes


@pytest.mark.parametrize("m", [NONSIMPLE_GRID[1], SIMPLE_GRID[1], SIMPLE_GRID[-1]], ids=str)
def test_one_n_calls_take_no_odometer_step(m, monkeypatch):
    # a record that covers one requested n takes the full pass alone: it
    # keeps no digits and steps nothing.  The pass steps its own split
    # estimates with the odometer; only numeration may make those steps.
    def refuse(*args):
        raise AssertionError("a one-n call kept or stepped digits")

    def pass_only(step):
        def spied(*args):
            if sys._getframe(1).f_globals is not vars(numeration):
                refuse()
            return step(*args)
        return spied

    monkeypatch.setattr(complexity, "digit_lists", refuse)
    for name in ("up", "down"):
        monkeypatch.setattr(numeration._Plan, name, pass_only(getattr(numeration._Plan, name)))
    n = 7 * 10 ** 1999 + 12345
    expected = ACResult(n, ac_via_prefix_counts(m, n), METHOD_CLOSED_FORM)
    assert ac(m, n) == expected
    assert list(ac_range(m, n, n)) == [expected]
    if m.family is Family.NONSIMPLE:
        assert ac_nonsimple(m, n, choose_k_nonsimple(m, n) + 3) == expected.value


@pytest.mark.parametrize("m", STURMIAN_SIMPLE)
def test_ac_range_sturmian_rows(m):
    assert list(ac_range(m, 5, 9)) == [ACResult(n, 2, METHOD_STURMIAN) for n in range(5, 10)]


@pytest.mark.parametrize("start, stop", [(0, 5), (-3, 2), (5, 4)])
def test_ac_range_rejects_bad_bounds(nonsimple31, start, stop):
    # raised by the call itself, before any value is asked for
    with pytest.raises(ValueError):
        ac_range(nonsimple31, start, stop)


# --- prefix-difference route ----------------------------------------------------------

def test_ac_via_prefix_counts_examples(nonsimple31, simple32):
    assert ac_via_prefix_counts(nonsimple31, 7) == 3
    assert ac_via_prefix_counts(simple32, 7) == 2
    assert ac_via_prefix_counts(simple32, 2) == 2


def test_ac_via_prefix_counts_rejects_sturmian_simple():
    with pytest.raises(UnsupportedConstructionError):
        ac_via_prefix_counts(make_morphism(4, 1, "simple"), 5)


@pytest.mark.parametrize("m", SIMPLE_EXTREMAL + NONSIMPLE_GRID)
def test_closed_form_equals_prefix_difference(m):
    for n in range(1, 2001):
        assert ac(m, n).value == ac_via_prefix_counts(m, n)


@pytest.mark.parametrize("m", SIMPLE_EXTREMAL + NONSIMPLE_GRID)
def test_closed_form_equals_prefix_difference_around_u(m):
    for j in range(61):
        u = u_value(m, j)
        for n in range(max(u - 1, 1), u + 2):
            assert ac(m, n).value == ac_via_prefix_counts(m, n), (j, n)


@pytest.mark.parametrize("m", [NONSIMPLE_GRID[1], SIMPLE_GRID[1], SIMPLE_GRID[-1]])
def test_closed_form_equals_prefix_difference_around_u_past_the_row_list(m):
    # the kernels' rows start above n's top place, so for n = U_j - 1 place j,
    # a split place for some j, is in the pass with a rest just below U_j
    for j in range(120, 420):
        u = u_value(m, j)
        for n in (u - 1, u, u + 1):
            assert ac(m, n).value == ac_via_prefix_counts(m, n), (j, n)


@pytest.mark.parametrize("m", SIMPLE_EXTREMAL + NONSIMPLE_GRID)
def test_prefix_difference_walk_equals_public_composition(m):
    # the stage walk verify runs, from 1, from inside a stage, around U_j and
    # past the row list, against the per-n public composition
    expected = [ac_via_prefix_counts(m, n) for n in range(1, 3001)]
    assert list(complexity._prefix_differences(m, 1, 3000)) == expected
    j = _top_rows(m, 1000).top
    middle = (u_value(m, j) + min(u_value(m, j + 1), 3000)) // 2
    assert u_value(m, j) < middle < u_value(m, j + 1) - 1
    assert list(complexity._prefix_differences(m, middle, 3000)) == expected[middle - 1:]
    for j in range(1, 12):
        u = u_value(m, j)
        for start in (u - 1, u, u + 1):
            got = list(complexity._prefix_differences(m, start, start + 20))
            assert got == [ac_via_prefix_counts(m, n) for n in range(start, start + 21)], start
    start = 10 ** 40
    assert list(complexity._prefix_differences(m, start, start + 299)) == [
        ac_via_prefix_counts(m, n) for n in range(start, start + 300)]


# the morphisms of test_ac_range_equals_ac_at_5000_digits but the Sturmian simple one,
# which has no prefix-difference route
@pytest.mark.parametrize("m", [NONSIMPLE_GRID[1], SIMPLE_GRID[1], SIMPLE_GRID[-1]])
def test_closed_form_equals_prefix_difference_at_5000_digits(m):
    # the public B-count functions build their own windows and stage sums;
    # verify's walk is held to them past place 128 and at 5,000 digits
    n = 7 * 10 ** 4999 + 12345
    assert ac_via_prefix_counts(m, n) == ac(m, n).value
    for start in (u_value(m, 128) - 1, u_value(m, 129) - 1, n):
        walk = complexity._prefix_differences(m, start, start + 40)
        assert list(walk) == [ac_via_prefix_counts(m, k) for k in range(start, start + 41)]


@pytest.mark.parametrize("m", [NONSIMPLE_GRID[1], SIMPLE_GRID[1], SIMPLE_GRID[-1]], ids=str)
def test_ac_via_prefix_counts_shares_no_closed_form_code(m, monkeypatch):
    # the second route reads neither ac's stage records, its walks nor its
    # digit lists, so a fault there cannot show in both routes at once
    ns = list(range(1, 301)) + [7 * 10 ** 4999 + 12345]
    for j in (127, 128, 129):
        ns += [u_value(m, j) - 1, u_value(m, j), u_value(m, j) + 1]
    expected = [ac(m, n).value for n in ns]

    def refuse(*args):
        raise AssertionError("closed-form code called")

    for name in ("_record", "_value_windows", "_prefix_differences", "digit_lists"):
        monkeypatch.setattr(complexity, name, refuse)
    assert [ac_via_prefix_counts(m, n) for n in ns] == expected


# --- bounds -----------------------------------------------------------------------------

def test_max_ac_examples(nonsimple31, simple32):
    assert max_ac(nonsimple31) == 3
    assert max_ac(simple32) == 3
    assert max_ac(make_morphism(4, 1, "simple")) == 2


def test_balance_bound_examples(nonsimple31, simple32):
    assert balance_bound(nonsimple31) == 2
    assert balance_bound(make_morphism(2, 1, "nonsimple")) == 1
    assert balance_bound(simple32) == 2


@pytest.mark.parametrize("m", SIMPLE_GRID + NONSIMPLE_GRID + STURMIAN_SIMPLE)
def test_envelope(m):
    top = max_ac(m)
    for n in list(range(1, 1001)) + [10 ** 9, 10 ** 15]:
        value = ac(m, n).value
        assert 2 <= value <= top


# --- Sturmian constancy -------------------------------------------------------------------

@pytest.mark.parametrize("m", STURMIAN_SIMPLE)
def test_sturmian_simple_constant_two(m):
    assert all(ac(m, n).value == 2 for n in range(1, 2001))
    assert ac(m, 10 ** 18).value == 2


@pytest.mark.parametrize("m", STURMIAN_NONSIMPLE)
def test_sturmian_nonsimple_constant_two(m):
    # p = q + 1 goes through the full closed form and must still yield 2
    assert all(ac(m, n).value == 2 for n in range(1, 2001))
    assert ac(m, 10 ** 18).value == 2
    assert max_ac(m) == 2


# --- telescoping matrix identity -------------------------------------------------------------

def _mat_add(x, y):
    return tuple(tuple(a + b for a, b in zip(rx, ry)) for rx, ry in zip(x, y))


def _mat_neg(x):
    return tuple(tuple(-a for a in row) for row in x)


@pytest.mark.parametrize("m", SIMPLE_GRID + NONSIMPLE_GRID)
def test_telescoping_identity(m):
    # sum_{i<N} (M^(2i+1) - M^(2i)) multiplied by (M + I) equals M^(2N) - I
    mtx = incidence_matrix(m)
    for top in range(11):
        total = ((0, 0), (0, 0))
        for i in range(top):
            total = _mat_add(total, mat_pow(mtx, 2 * i + 1))
            total = _mat_add(total, _mat_neg(mat_pow(mtx, 2 * i)))
        left = mat_mul(total, _mat_add(mtx, MATRIX_IDENTITY))
        right = _mat_add(mat_pow(mtx, 2 * top), _mat_neg(MATRIX_IDENTITY))
        assert left == right


# --- oracle agreement (module-level spot grid; the full grid runs in acceptance) -------------

@pytest.mark.parametrize("m", [SIMPLE_EXTREMAL[1], NONSIMPLE_GRID[0], NONSIMPLE_GRID[3]])
def test_closed_form_equals_oracle_spot(m):
    for n in range(1, 501):
        assert ac(m, n).value == oracle_ac(m, n).ac


# --- lengths, stages and indices must be integers ----------------------------------------------

_NS31, _S32, _S41 = (make_morphism(3, 1, "nonsimple"), make_morphism(3, 2, "simple"),
                     make_morphism(4, 1, "simple"))
# the first n of stage 7, so that stage 7 brackets it
_V7, _W7 = wv_stage_length_simple(_S32, "v", 7), wv_stage_length_simple(_S32, "w", 7)
# every integer argument, each taking the value 7 as a valid call would
_LENGTH_TAKERS = {
    "fixed_point_prefix": lambda n: fixed_point_prefix(_NS31, n),
    "word_prefix": lambda n: word_prefix(_S32, "w", n),
    "w_prefix_nonsimple": lambda n: w_prefix_nonsimple(_NS31, n),
    "wv_prefix_simple": lambda n: wv_prefix_simple(_S32, "v", n),
    "oracle_ac": lambda n: oracle_ac(_NS31, n),
    "parikh_extrema n": lambda n: parikh_extrema(_NS31, n, 48),
    "parikh_extrema prefix_len": lambda n: parikh_extrema(_NS31, 3, n),
    "u_value": lambda k: u_value(_NS31, k),
    "normal_u_rep min_places": lambda places: normal_u_rep(_NS31, 157, min_places=places),
    "u_rep_value digit": lambda digit: u_rep_value(_NS31, (1, digit, 0)),
    "w_stage_length_nonsimple": lambda stage: w_stage_length_nonsimple(_NS31, stage),
    "wv_stage_length_simple v": lambda stage: wv_stage_length_simple(_S32, "v", stage),
    "wv_stage_length_simple w": lambda stage: wv_stage_length_simple(_S32, "w", stage),
    "w_b_count_nonsimple k": lambda k: w_b_count_nonsimple(_NS31, 7, k),
    "v_b_count_simple stage": lambda stage: v_b_count_simple(_S32, _V7, stage),
    "w_b_count_simple stage": lambda stage: w_b_count_simple(_S32, _W7, stage),
    "ac_nonsimple k": lambda k: ac_nonsimple(_NS31, 7, k),
    "normal_u_rep": lambda n: normal_u_rep(_NS31, n),
    "prefix_b_count": lambda n: prefix_b_count(_NS31, n),
    "prefix_decomposition": lambda n: prefix_decomposition(_NS31, n),
    "choose_k_nonsimple": lambda n: choose_k_nonsimple(_NS31, n),
    "choose_mn_simple": lambda n: choose_mn_simple(_S32, n),
    "ac_nonsimple": lambda n: ac_nonsimple(_NS31, n),
    "ac_via_prefix_counts nonsimple": lambda n: ac_via_prefix_counts(_NS31, n),
    "ac_via_prefix_counts simple": lambda n: ac_via_prefix_counts(_S32, n),
    "ac_range start": lambda n: list(ac_range(_NS31, n, 9)),
    "ac_range stop": lambda n: list(ac_range(_S32, 1, n)),
    "ac_range sturmian": lambda n: list(ac_range(_S41, n, 9)),
    "w_b_count_nonsimple": lambda n: w_b_count_nonsimple(_NS31, n, 3),
    "v_b_count_simple": lambda n: v_b_count_simple(_S32, n, 0),
    "w_b_count_simple": lambda n: w_b_count_simple(_S32, n, 1),
    "ac nonsimple": lambda n: ac(_NS31, n),
    "ac simple": lambda n: ac(_S32, n),
    "ac sturmian": lambda n: ac(_S41, n),
}


@pytest.mark.parametrize("n", [7.0, 7.5, Fraction(15, 2), 0.5, Fraction(1, 2)],
                         ids=["7.0", "7.5", "15/2", "0.5", "1/2"])
@pytest.mark.parametrize("name", list(_LENGTH_TAKERS))
def test_non_integer_length_raises_type_error(name, n):
    # a prefix has a whole number of letters; answering for floor(n) would hide the error
    with pytest.raises(TypeError):
        _LENGTH_TAKERS[name](n)


def test_numpy_integer_lengths_are_accepted():
    np = pytest.importorskip("numpy")
    for name, call in _LENGTH_TAKERS.items():
        # equal, and no numpy scalar in the result: numpy >= 2 names its type in repr
        assert repr(call(np.int64(7))) == repr(call(7)), name
    # a numpy n comes back as a plain int whatever numpy's repr
    assert type(oracle_ac(_NS31, np.int64(7)).n) is int
    assert type(parikh_extrema(_NS31, np.int64(7), np.int64(48)).n) is int
