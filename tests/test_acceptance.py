"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

from __future__ import annotations

import random
import time

from parryac import (
    Family,
    ac,
    ac_nonsimple,
    ac_via_prefix_counts,
    apply,
    choose_k_nonsimple,
    choose_mn_simple,
    fixed_point_prefix,
    make_morphism,
    max_ac,
    normal_u_rep,
    oracle_ac,
    parikh,
    parikh_image,
    prefix_decomposition,
    u_rep_value,
    u_value,
    w_prefix_nonsimple,
    w_stage_length_nonsimple,
    wv_prefix_simple,
)
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

GRID = SIMPLE_GRID + NONSIMPLE_GRID          # criterion 3 closed-form grid
FULL_GRID_WITH_STURMIAN = GRID + STURMIAN_SIMPLE


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE CRITERION {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def _best_time(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_criterion_1_nonsimple_worked_example():
    m = make_morphism(3, 1, "nonsimple")
    assert normal_u_rep(m, 7, min_places=4) == (0, 0, 1, 3)
    assert u_value(m, 4) - 7 == 157
    assert normal_u_rep(m, 157, min_places=4) == (3, 0, 3, 1)
    result = ac(m, 7)
    assert result.value == 3 and result.method == "closed_form"
    elapsed = _best_time(lambda: ac(m, 7))
    _report(1, result.value == 3 and elapsed < 1e-3,
            f"(p,q)=(3,1) non-simple: ac(7)=3, digits (0,0,1,3)/(3,0,3,1), "
            f"{elapsed * 1e6:.0f} us")


def test_criterion_2_simple_worked_example():
    m = make_morphism(3, 2, "simple")
    assert choose_mn_simple(m, 7) == (0, 1, 1)
    assert normal_u_rep(m, 2, min_places=2) == (0, 2)
    assert normal_u_rep(m, 5) == (1, 1)
    result = ac(m, 7)
    assert result.value == 2 and result.method == "closed_form"
    elapsed = _best_time(lambda: ac(m, 7))
    _report(2, result.value == 2 and elapsed < 1e-3,
            f"(p,q)=(3,2) simple: ac(7)=2, (M,N,J)=(0,1,1), digits (0,2)/(1,1), "
            f"{elapsed * 1e6:.0f} us")


def test_criterion_3_three_way_agreement_grid():
    start = time.time()
    mismatches = []
    checked = 0
    for m in GRID:
        for n in range(1, 2001):
            closed = ac(m, n).value
            diff = ac_via_prefix_counts(m, n)
            brute = oracle_ac(m, n).ac
            checked += 1
            if not closed == diff == brute:
                mismatches.append((m, n, closed, diff, brute))
    for m in STURMIAN_SIMPLE:
        for n in range(1, 2001):
            closed = ac(m, n).value
            brute = oracle_ac(m, n).ac
            checked += 1
            if not closed == brute == 2:
                mismatches.append((m, n, closed, None, brute))
    elapsed = time.time() - start
    _report(3, not mismatches and elapsed < 600,
            f"{checked} (n, morphism) pairs over {len(GRID) + len(STURMIAN_SIMPLE)} "
            f"morphisms, {len(mismatches)} mismatches, {elapsed:.1f}s")


def test_criterion_4_envelope_and_attainment():
    failures = []
    attainments = []
    for m in FULL_GRID_WITH_STURMIAN:
        bound = max_ac(m)
        attained_at = None
        peak = 0
        for n in range(1, 2001):
            value = ac(m, n).value
            peak = max(peak, value)
            if value > bound:
                failures.append((m, n, value, bound))
                break
            if attained_at is None and value == bound:
                attained_at = n
        if attained_at is None:
            # no horizon is guaranteed; extend tenfold before declaring failure
            for n in range(2001, 20001):
                if ac(m, n).value == bound:
                    attained_at = n
                    break
        if attained_at is None:
            failures.append((m, "not attained by 20000", peak, bound))
        else:
            attainments.append((m, attained_at))
    worst = max(attainments, key=lambda item: item[1])
    _report(4, not failures,
            f"max AC never exceeded and attained for all {len(attainments)} morphisms; "
            f"latest attainment n={worst[1]} at "
            f"({worst[0].family.value} p={worst[0].p} q={worst[0].q}); failures: {failures}")


def test_criterion_5_sturmian_constancy():
    bad = []
    for m in STURMIAN_SIMPLE + STURMIAN_NONSIMPLE:
        for n in range(1, 2001):
            if oracle_ac(m, n).ac != 2:
                bad.append((m, n, "oracle"))
        for n in (10 ** 9, 10 ** 18):
            if ac(m, n).value != 2:
                bad.append((m, n, "closed"))
    _report(5, not bad,
            f"AC = 2 on n <= 2000 (oracle) and n in {{1e9, 1e18}} (closed form) for "
            f"{len(STURMIAN_SIMPLE)} simple q=1 and {len(STURMIAN_NONSIMPLE)} "
            f"non-simple p=q+1 morphisms; exceptions: {bad}")


def _check_parikh_homomorphism_randomized() -> int:
    rng = random.Random(0xAC)
    pool = FULL_GRID_WITH_STURMIAN
    for _ in range(10 ** 3):
        m = rng.choice(pool)
        word = "".join(rng.choice("AB") for _ in range(rng.randrange(0, 10 ** 4)))
        assert parikh(apply(m, word)) == parikh_image(m, parikh(word))
        if m.family is Family.NONSIMPLE:
            assert parikh(apply(m, word)).count_b == len(word)
    return 10 ** 3


def _check_roundtrip_and_digit_bound(morphisms) -> int:
    checks = 0
    for m in morphisms:
        for n in range(10 ** 4 + 1):
            digits = normal_u_rep(m, n)
            assert u_rep_value(m, digits) == n
            assert all(0 <= d <= m.p for d in digits)
            checks += 1
    return checks


def _check_decomposition_reconstruction(morphisms) -> int:
    checks = 0
    for m in morphisms:
        rng = random.Random(m.p * 100 + m.q)
        boundary = []
        k = 0
        while u_value(m, k) <= 10 ** 5:
            boundary += [u_value(m, k) - 1, u_value(m, k), u_value(m, k) + 1]
            k += 1
        samples = sorted(set(list(range(1, 1001))
                             + [n for n in boundary if 1 <= n <= 10 ** 5]
                             + [rng.randrange(1001, 10 ** 5) for _ in range(50)]))
        text = fixed_point_prefix(m, samples[-1])
        for n in samples:
            rebuilt = "".join(
                _power_word(m, power) * exponent
                for power, exponent in prefix_decomposition(m, n))
            assert rebuilt == text[:n]
            checks += 1
    return checks


def _power_word(m, power):
    word = "A"
    for _ in range(power):
        word = apply(m, word)
    return word


def _check_palindrome_and_suffix(morphisms) -> int:
    checks = 0
    for m in morphisms:
        for stage in range(9):
            stage_word = w_prefix_nonsimple(m, w_stage_length_nonsimple(m, stage))
            iterate = fixed_point_prefix(m, u_value(m, stage + 1))
            assert stage_word == stage_word[::-1]
            assert len(stage_word) < len(iterate) and iterate.endswith(stage_word)
            checks += 1
    return checks


def _check_simple_word_relations(morphisms) -> int:
    checks = 0
    for m in morphisms:
        w_text = wv_prefix_simple(m, "w", 10 ** 5)
        image = apply(m, w_text)
        assert wv_prefix_simple(m, "v", len(image)) == image
        v_text = wv_prefix_simple(m, "v", 10 ** 5)
        image = apply(m, v_text)
        assert image[:m.p] == "A" * m.p
        assert wv_prefix_simple(m, "w", len(image) - m.p) == image[m.p:]
        checks += 2
    return checks


def _check_k_invariance(morphisms) -> int:
    checks = 0
    for m in morphisms:
        for n in range(1, 2001):
            k = choose_k_nonsimple(m, n)
            assert ac_nonsimple(m, n, k=k) == ac_nonsimple(m, n, k=k + 1)
            checks += 1
    return checks


def _check_telescoping(morphisms) -> int:
    add = lambda x, y: tuple(tuple(a + b for a, b in zip(rx, ry)) for rx, ry in zip(x, y))
    neg = lambda x: tuple(tuple(-a for a in row) for row in x)
    checks = 0
    for m in morphisms:
        mtx = incidence_matrix(m)
        for top in range(11):
            total = ((0, 0), (0, 0))
            for i in range(top):
                total = add(total, mat_pow(mtx, 2 * i + 1))
                total = add(total, neg(mat_pow(mtx, 2 * i)))
            assert mat_mul(total, add(mtx, MATRIX_IDENTITY)) == add(
                mat_pow(mtx, 2 * top), neg(MATRIX_IDENTITY))
            checks += 1
    return checks


def test_criterion_6_structural_invariant_suite():
    simple_extremal = [m for m in SIMPLE_GRID if m.q > 1]
    representative = [make_morphism(3, 2, "simple"), make_morphism(5, 5, "simple"),
                      make_morphism(3, 1, "nonsimple"), make_morphism(5, 4, "nonsimple"),
                      make_morphism(1, 1, "simple")]
    counts = {
        "parikh_homomorphism": _check_parikh_homomorphism_randomized(),
        "roundtrip_digit_bound": _check_roundtrip_and_digit_bound(representative),
        "decomposition": _check_decomposition_reconstruction(representative),
        "palindrome_suffix": _check_palindrome_and_suffix(NONSIMPLE_GRID),
        "simple_relations": _check_simple_word_relations(simple_extremal),
        "k_invariance": _check_k_invariance(NONSIMPLE_GRID),
        "telescoping": _check_telescoping(GRID),
    }
    _report(6, all(v > 0 for v in counts.values()),
            "invariant suite passed: " + ", ".join(f"{k}={v}" for k, v in counts.items()))


def test_criterion_7_fifty_digit_performance():
    n = 10 ** 49 + 123456789   # 50 decimal digits
    results = {}
    for m in (make_morphism(3, 1, "nonsimple"), make_morphism(3, 2, "simple")):
        start = time.perf_counter()
        closed = ac(m, n).value
        elapsed = time.perf_counter() - start
        agreement = closed == ac_via_prefix_counts(m, n)
        results[(m.family.value, m.p, m.q)] = (closed, elapsed, agreement)
        assert elapsed < 1.0
        assert agreement
    detail = "; ".join(
        f"{key}: ac={val[0]} in {val[1] * 1e3:.2f} ms, prefix-difference agrees={val[2]}"
        for key, val in results.items())
    _report(7, True, f"50-digit n: {detail}")
