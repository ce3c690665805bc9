"""U sequence, greedy representations, prefix decomposition and B-counts."""

from __future__ import annotations

import ast
import random
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parryac import (
    Family,
    fixed_point_prefix,
    make_morphism,
    normal_u_rep,
    prefix_b_count,
    prefix_decomposition,
    u_rep_value,
    u_value,
)
from parryac.numeration import b_weights, place_rows, top_index
from parryac.words import apply

from conftest import FULL_GRID, STURMIAN_SIMPLE, ref_fixed_point, ref_matrix_powers

ALL_MORPHISMS = FULL_GRID + STURMIAN_SIMPLE
ANY_MORPHISM = st.sampled_from(ALL_MORPHISMS)


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
    for top in (6, 11):
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
        assert top_index(nonsimple31, n) == top
        assert len(normal_u_rep(nonsimple31, n)) - 1 == top


#: Names that reach the per-morphism row table.
ROW_TABLE_NAMES = {"_rows_cache", "_rows_lock", "_power_rows", "power_rows"}


def _identifiers(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.alias)):
            names.add(node.name)
    return names


def test_only_numeration_names_the_row_table():
    # the row table's format may change inside numeration alone; every other
    # module reaches it through u_value, place_rows and b_weights
    package = Path(__file__).resolve().parents[1] / "src" / "parryac"
    assert {"_rows_cache", "_power_rows"} <= _identifiers(package / "numeration.py")
    readers = {path.name for path in package.glob("*.py")
               if path.name != "numeration.py" and _identifiers(path) & ROW_TABLE_NAMES}
    assert readers == set()


def test_concurrent_growth_keeps_the_row_table_exact():
    # threads grow one cold table at once; a lost or doubled row step would
    # shift every later entry
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
