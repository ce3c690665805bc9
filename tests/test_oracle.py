"""Sliding-window oracle: scans, intervals, the certified scan."""

from __future__ import annotations

import ast
import random
import tracemalloc
from pathlib import Path

import pytest

from parryac import (
    OracleInstabilityError,
    ParikhVector,
    ac,
    fixed_point_prefix,
    make_morphism,
    oracle_ac,
    parikh_extrema,
    u_value,
)
from parryac import oracle

from conftest import (
    FULL_GRID,
    STURMIAN_SIMPLE,
    parikh_set,
    ref_apply,
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


def _texts_without_bb():
    rng = random.Random(2211)
    texts = ["A", "B", "AAAAAAA", "BAAABAAB", "BA", "AB", "ABABABA", "BAAAAAAAAA", "AAAAAAAAAB"]
    for _ in range(200):
        letters = []
        for _ in range(rng.randint(1, 80)):
            letters.append("A" if letters[-1:] == ["B"] or rng.random() < 0.6 else "B")
        texts.append("".join(letters))
    return texts


def test_order_statistics_extrema_match_reference_scan(nonsimple31, monkeypatch):
    # texts with no B, starting or ending with B, and every n up to the single
    # window n = len: one n at a time and as one walk
    for text in _texts_without_bb():
        assert "BB" not in text
        monkeypatch.setattr(oracle, "fixed_point_prefix", lambda m, length: text[:length])
        expected = [ref_window_interval(text, n) for n in range(1, len(text) + 1)]
        got = [parikh_extrema(nonsimple31, n, len(text)) for n in range(1, len(text) + 1)]
        assert [(i.min_b, i.max_b) for i in got] == expected, text
        framed = oracle._b_positions(text)
        assert list(oracle._extrema(framed, 1, len(text))) == expected, text
        middle = (len(text) + 1) // 2
        assert list(oracle._extrema(framed, middle, len(text))) == expected[middle - 1:], text


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


@pytest.mark.parametrize("spec", [(3, 1, "nonsimple"), (3, 2, "simple"), (5, 5, "simple")])
def test_oracle_ac_answers_every_n_under_the_generation_cap(spec):
    # no cap on n itself: these words have 10^6 to 10^7 letters, under 2^28
    m = make_morphism(*spec)
    for n in (10 ** 5 + 1, 10 ** 6):
        assert oracle_ac(m, n).ac == ac(m, n).value


def test_oracle_ac_refuses_scan_over_generation_cap():
    # k = 3 and 2 U_3 is about 5.4e10 letters, far past the cap: refused
    # before anything is generated
    with pytest.raises(OracleInstabilityError, match="generation cap"):
        oracle_ac(make_morphism(3000, 1, "nonsimple"), 10 ** 5)


def test_oracle_ac_caps_the_word_it_scans(nonsimple31, monkeypatch):
    # n = 7 takes k = 2: phi^2(AA) has 28 letters and phi^2(AABA) 48, the
    # word the scan reads, so a cap between the two refuses it
    monkeypatch.setattr(oracle, "GENERATION_CAP", 47)
    with pytest.raises(OracleInstabilityError, match=r"phi\^2\(AABA\) of 48 letters"):
        oracle_ac(nonsimple31, 7)
    monkeypatch.setattr(oracle, "GENERATION_CAP", 48)
    assert oracle_ac(nonsimple31, 7).prefix_len_used == 48


@pytest.mark.parametrize("p", range(1, 13))
def test_oracle_ac_equals_closed_form_up_to_p12(p):
    morphisms = ([make_morphism(p, q, "simple") for q in range(1, p + 1)]
                 + [make_morphism(p, q, "nonsimple") for q in range(1, p)])
    for m in morphisms:
        for n in range(1, 301):
            got = oracle_ac(m, n)
            assert got.stabilized
            assert got.ac == ac(m, n).value, (m, n)


@pytest.mark.parametrize("p, q, family, n", [
    (100, 100, "simple", 1000),
    (60, 40, "simple", 1000),
    (300, 299, "nonsimple", 1000),
    (1000, 1, "nonsimple", 7),
])
def test_oracle_ac_equals_closed_form_at_large_p(p, q, family, n):
    m = make_morphism(p, q, family)
    assert oracle_ac(m, n).ac == ac(m, n).value


@pytest.mark.parametrize("m", FULL_GRID + STURMIAN_SIMPLE)
def test_oracle_ac_covers_reference_prefix_windows(m):
    # every window of a long naive prefix lies in the certified interval
    text = ref_fixed_point(m, 20000)
    for n in (1, 2, 3, 7, 50):
        low, high = ref_window_interval(text, n)
        got = oracle_ac(m, n)
        assert got.min_b <= low and high <= got.max_b


@pytest.mark.parametrize("m", FULL_GRID + STURMIAN_SIMPLE)
def test_oracle_ac_scans_one_word_of_the_three_block_pairs(m):
    # for the least k with |phi^k(B)| >= n - 1 the interval is the union of
    # the windows of phi^k(AA), phi^k(AB) and phi^k(BA), read from the one
    # word phi^k(AABA); |phi^k(B)| + 1 and + 2 are the last n of level k and
    # the first of level k + 1
    images = [("A", "B")]
    while len(images) < 6 or len(images[-1][1]) < max(200, len(images[5][1]) + 1):
        images.append(tuple(ref_apply(m, word) for word in images[-1]))
    edges = {len(images[k][1]) + d for k in range(6) for d in (1, 2)}
    for n in sorted(set(range(1, 201)) | edges):
        image_a, image_b = next(pair for pair in images if len(pair[1]) >= n - 1)
        bounds = [ref_window_interval(x + y, n) for x, y in
                  ((image_a, image_a), (image_a, image_b), (image_b, image_a))]
        got = oracle_ac(m, n)
        assert (got.min_b, got.max_b) == (min(low for low, _ in bounds),
                                          max(high for _, high in bounds)), (m, n)
        assert got.prefix_len_used == 3 * len(image_a) + len(image_b), (m, n)


@pytest.mark.parametrize("m", FULL_GRID + STURMIAN_SIMPLE)
def test_level_walk_matches_oracle_ac_per_n(m):
    # a walk finds each level once where oracle_ac searches from k = 0 for
    # every n; level k serves n up to |phi^k(B)| + 1, so the walks start at
    # 1, inside a level and just before the last n of the level holding 3000
    last_ns, image_b = [], "B"
    while not last_ns or last_ns[-1] < 3000:
        last_ns.append(len(image_b) + 1)
        image_b = ref_apply(m, image_b)

    def per_n(start, stop):
        intervals = (oracle_ac(m, n) for n in range(start, stop + 1))
        return [(got.prefix_len_used, got.min_b, got.max_b) for got in intervals]

    expected = per_n(1, 3000)
    assert list(oracle._certified_extrema(m, 1, 3000)) == expected
    first, last = next((a + 1, b) for a, b in zip(last_ns, last_ns[1:]) if b >= 1000)
    middle = (first + last) // 2
    assert first < middle < last
    assert list(oracle._certified_extrema(m, middle, 3000)) == expected[middle - 1:]
    top = last_ns[-1]
    assert list(oracle._certified_extrema(m, top - 1, top + 2)) == per_n(top - 1, top + 2)


def test_oracle_ac_holds_under_12_bytes_per_scanned_letter(nonsimple31):
    # a cold scan keeps the word and one int32 count per letter, not an int64
    # count and a copy of it
    import numpy  # noqa: F401  loaded before tracing, as any earlier scan would have

    oracle._block_pair_positions.cache_clear()
    tracemalloc.start()
    try:
        got = oracle_ac(nonsimple31, 20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.prefix_len_used == 259808
    assert peak < 12 * got.prefix_len_used


def test_cold_oracle_ac_holds_under_8_bytes_per_scanned_letter(nonsimple31):
    # the word, its bytes and mask, and the B positions: no array of one count
    # per letter, at the peak or in the level kept for the next call
    import numpy  # noqa: F401  loaded before tracing, as any earlier scan would have

    oracle._block_pair_positions.cache_clear()
    tracemalloc.start()
    try:
        got = oracle_ac(nonsimple31, 20000)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.prefix_len_used == 259808
    assert peak < 8 * got.prefix_len_used
    assert kept < 2 * got.prefix_len_used


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
