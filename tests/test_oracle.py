"""Sliding-window oracle: scans, intervals, stabilization."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from parryac import (
    OracleInstabilityError,
    ParikhVector,
    fixed_point_prefix,
    make_morphism,
    oracle_ac,
    parikh_extrema,
    parikh_set,
    u_value,
)

from conftest import (
    FULL_GRID,
    STURMIAN_SIMPLE,
    ref_fixed_point,
    ref_window_counts,
    ref_window_interval,
)


def test_parikh_extrema_worked_examples(nonsimple31, simple32):
    interval = parikh_extrema(nonsimple31, 7, 48)
    assert (interval.min_b, interval.max_b) == (1, 3)
    assert interval.prefix_len_used == 48
    assert not interval.stabilized
    assert (parikh_extrema(simple32, 5, 50).min_b,
            parikh_extrema(simple32, 5, 50).max_b) == (0, 2)
    for m in FULL_GRID:
        one = parikh_extrema(m, 1, u_value(m, 1))
        assert (one.min_b, one.max_b) == (0, 1)


def test_parikh_extrema_rejects_window_longer_than_prefix(nonsimple31):
    with pytest.raises(ValueError, match="at least"):
        parikh_extrema(nonsimple31, 49, 48)


@pytest.mark.parametrize("m", FULL_GRID)
def test_parikh_extrema_matches_reference_scan(m):
    text = ref_fixed_point(m, 600)
    for n in (1, 2, 3, 7, 50, 599):
        expected = ref_window_interval(text, n)
        got = parikh_extrema(m, n, 600)
        assert (got.min_b, got.max_b) == expected


def test_parikh_set_examples(nonsimple31, simple32):
    assert parikh_set(nonsimple31, 7, 48) == {
        ParikhVector(6, 1), ParikhVector(5, 2), ParikhVector(4, 3)}
    assert parikh_set(simple32, 1, 50) == {ParikhVector(1, 0), ParikhVector(0, 1)}
    # BB never occurs, so length 2 gives exactly two vectors
    assert parikh_set(simple32, 2, 50) == {ParikhVector(2, 0), ParikhVector(1, 1)}


@pytest.mark.parametrize("m", FULL_GRID)
def test_parikh_set_is_an_interval(m):
    # every B-count between the extremes is realized by some window
    for n in (1, 5, 17, 120):
        vectors = parikh_set(m, n, 3000)
        interval = parikh_extrema(m, n, 3000)
        counts = sorted(v.count_b for v in vectors)
        assert counts == list(range(interval.min_b, interval.max_b + 1))
        assert all(v.count_a + v.count_b == n for v in vectors)
        assert len(vectors) == interval.ac


@pytest.mark.parametrize("m", FULL_GRID)
def test_parikh_set_matches_reference(m):
    text = ref_fixed_point(m, 500)
    for n in (2, 9, 41):
        expected = {ParikhVector(n - b, b) for b in ref_window_counts(text, n)}
        assert parikh_set(m, n, 500) == expected


@pytest.mark.parametrize("m", FULL_GRID)
def test_monotone_soundness(m):
    # enlarging the scanned prefix never shrinks the interval
    for n in (3, 10, 64):
        previous = None
        for prefix_len in (n, 4 * n, 16 * n, 64 * n):
            got = parikh_extrema(m, n, prefix_len)
            if previous is not None:
                assert got.min_b <= previous.min_b
                assert got.max_b >= previous.max_b
            previous = got


def test_oracle_ac_worked_examples(nonsimple31, simple32):
    got = oracle_ac(nonsimple31, 7)
    assert got.ac == 3 and got.stabilized
    assert oracle_ac(simple32, 7).ac == 2
    assert oracle_ac(simple32, 5).ac == 3


def test_oracle_ac_rejects_out_of_cap(nonsimple31):
    with pytest.raises(ValueError, match="cap"):
        oracle_ac(nonsimple31, 10 ** 5 + 1)


def test_oracle_ac_instability_error_carries_interval(nonsimple31):
    # an artificially tiny prefix cap cannot stabilize
    with pytest.raises(OracleInstabilityError) as info:
        oracle_ac(nonsimple31, 7, max_prefix_len=16)
    assert info.value.interval.n == 7
    assert not info.value.interval.stabilized


@pytest.mark.parametrize("m", STURMIAN_SIMPLE)
def test_oracle_is_two_for_sturmian_simple(m):
    for n in (1, 2, 17, 400):
        assert oracle_ac(m, n).ac == 2


def test_oracle_never_consults_closed_form_modules():
    # the oracle checks the closed forms, so it must not share their code
    source = Path(__file__).resolve().parents[1] / "src" / "parryac" / "oracle.py"
    package_imports = set()
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            package_imports.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "parryac":
            package_imports.add(node.module)
        elif isinstance(node, ast.Import):
            package_imports.update(alias.name for alias in node.names
                                   if alias.name.split(".")[0] == "parryac")
    assert package_imports == {".words"}


def test_window_scan_counts_directly(nonsimple31):
    # cumulative scan equals counting each window independently
    text = fixed_point_prefix(nonsimple31, 200)
    for n in (4, 13):
        counts = {text[i:i + n].count("B") for i in range(200 - n + 1)}
        assert parikh_set(nonsimple31, n, 200) == {
            ParikhVector(n - b, b) for b in counts}
