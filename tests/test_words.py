"""core word machinery: morphisms, Parikh accounting, fixed-point prefixes."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parryac import (
    Family,
    Morphism,
    ParikhVector,
    apply,
    fixed_point_prefix,
    make_morphism,
    parikh,
    parikh_image,
)
from parryac.words import UBETA, V, W, CapExceededError, _shown, word_prefix

from conftest import (
    FULL_GRID,
    MATRIX_IDENTITY,
    STURMIAN_SIMPLE,
    incidence_matrix,
    mat_mul,
    mat_pow,
    ref_apply,
    ref_fixed_point,
    ref_w_nonsimple,
    ref_wv_simple,
)

ANY_MORPHISM = st.sampled_from(FULL_GRID + STURMIAN_SIMPLE)
WORDS = st.text(alphabet="AB", max_size=400)


# --- construction and validation ---------------------------------------------

def test_make_morphism_accepts_paper_parameters():
    m = make_morphism(3, 1, "nonsimple")
    assert (m.p, m.q, m.family) == (3, 1, Family.NONSIMPLE)
    m = make_morphism(3, 2, Family.SIMPLE)
    assert (m.p, m.q, m.family) == (3, 2, Family.SIMPLE)


def test_make_morphism_rejects_simple_p_below_q():
    with pytest.raises(ValueError, match="p >= q"):
        make_morphism(2, 3, "simple")


def test_make_morphism_rejects_nonsimple_p_at_most_q():
    with pytest.raises(ValueError, match="p > q"):
        make_morphism(2, 2, "nonsimple")
    with pytest.raises(ValueError, match="p > q"):
        make_morphism(1, 2, "nonsimple")


@pytest.mark.parametrize("p,q", [(0, 1), (1, 0), (-1, 1)])
def test_make_morphism_rejects_nonpositive(p, q):
    with pytest.raises(ValueError, match=">= 1"):
        make_morphism(p, q, "simple")


def test_images():
    assert make_morphism(3, 1, "nonsimple").image_a == "AAAB"
    assert make_morphism(3, 1, "nonsimple").image_b == "AB"
    assert make_morphism(3, 2, "simple").image_b == "AA"


# --- apply ---------------------------------------------------------------------

def test_apply_single_letter(nonsimple31):
    assert apply(nonsimple31, "A") == "AAAB"


def test_apply_empty_word(nonsimple31, simple32):
    assert apply(nonsimple31, "") == ""
    assert apply(simple32, "") == ""


def test_apply_bab(nonsimple31):
    assert apply(nonsimple31, "BAB") == "ABAAABAB"


def test_apply_rejects_non_str(nonsimple31):
    with pytest.raises(TypeError, match="expected a word as str, got bytes"):
        apply(nonsimple31, b"AB")


def test_apply_rejects_stray_letters(nonsimple31):
    with pytest.raises(ValueError, match="outside"):
        apply(nonsimple31, "ABC")
    # the message names each stray letter once
    with pytest.raises(ValueError, match=re.escape("outside {A, B}: ['x']")):
        apply(nonsimple31, "AxB")
    with pytest.raises(ValueError, match=re.escape("outside {A, B}: ['x', 'y']")):
        apply(nonsimple31, "xAyBx")


# --- incidence matrix -----------------------------------------------------------

def test_incidence_matrix_examples():
    assert incidence_matrix(make_morphism(3, 1, "nonsimple")) == ((3, 1), (1, 1))
    assert incidence_matrix(make_morphism(3, 2, "simple")) == ((3, 1), (2, 0))
    assert incidence_matrix(make_morphism(1, 1, "simple")) == ((1, 1), (1, 0))


def test_mat_pow_agrees_with_repeated_mul():
    mtx = ((3, 1), (2, 0))
    acc = MATRIX_IDENTITY
    for k in range(8):
        assert mat_pow(mtx, k) == acc
        acc = mat_mul(acc, mtx)


# --- parikh ---------------------------------------------------------------------

def test_parikh_examples():
    assert parikh("AAABAAA") == ParikhVector(6, 1)
    assert parikh("") == ParikhVector(0, 0)
    assert parikh("BAAABAA") == ParikhVector(5, 2)


def test_parikh_image_examples(nonsimple31, simple32):
    assert parikh_image(nonsimple31, (1, 0)) == (3, 1)
    assert parikh_image(simple32, (0, 0)) == (0, 0)
    # derived: apply the morphism to AB and count letters directly
    image = apply(simple32, "AB")
    assert parikh_image(simple32, (1, 1)) == parikh(image) == (5, 1)


@given(m=ANY_MORPHISM, word=WORDS)
@settings(max_examples=150, deadline=None)
def test_parikh_homomorphism_property(m, word):
    # the incidence matrix transports Parikh vectors under the morphism
    assert parikh(apply(m, word)) == parikh_image(m, parikh(word))


def test_parikh_homomorphism_long_random_words():
    rng = random.Random(20260810)
    for m in FULL_GRID:
        word = "".join(rng.choice("AB") for _ in range(10 ** 4))
        assert parikh(apply(m, word)) == parikh_image(m, parikh(word))


@given(m=st.sampled_from([x for x in FULL_GRID if x.family is Family.NONSIMPLE]),
       word=WORDS)
@settings(max_examples=100, deadline=None)
def test_nonsimple_image_b_count_is_source_length(m, word):
    assert parikh(apply(m, word)).count_b == len(word)


# --- fixed point -----------------------------------------------------------------

def test_fixed_point_prefix_examples(nonsimple31, simple32):
    assert fixed_point_prefix(nonsimple31, 7) == "AAABAAA"
    assert fixed_point_prefix(nonsimple31, 0) == ""
    # derived: second iterate on A is (A^3 B)(A^3 B)(A^3 B)(A B) truncated
    assert fixed_point_prefix(simple32, 14) == "AAABAAABAAABAA"


@pytest.mark.parametrize("m", FULL_GRID + STURMIAN_SIMPLE)
def test_fixed_point_matches_reference(m):
    assert fixed_point_prefix(m, 3000) == ref_fixed_point(m, 3000)


@pytest.mark.parametrize("m", FULL_GRID)
def test_fixed_point_property(m):
    # the prefix is invariant under the morphism up to truncation
    prefix = fixed_point_prefix(m, 500)
    assert apply(m, prefix)[:500] == prefix


@given(m=ANY_MORPHISM, k=st.integers(0, 300), extra=st.integers(0, 300))
@settings(max_examples=80, deadline=None)
def test_fixed_point_prefix_stability(m, k, extra):
    long = fixed_point_prefix(m, k + extra)
    assert fixed_point_prefix(m, k) == long[:k]


_SCALED_Q = {"1": lambda p: 1, "3": lambda p: 3, "p-1": lambda p: p - 1, "p": lambda p: p}


# non-simple needs q < p, and the Sturmian simple family (q = 1) has no v or w
@pytest.mark.parametrize("family, q_rule, target", [
    (family, rule, target) for family in ("nonsimple", "simple") for rule in _SCALED_Q
    for target in (UBETA, W, V)
    if (family, rule) != ("nonsimple", "p") and (family, rule, target) not in (
        ("simple", "1", W), ("simple", "1", V))])
def test_word_prefix_builds_only_the_letters_it_returns(family, q_rule, target):
    # a letter image of 10^10 letters is never built: up to 50 letters, every
    # target at p = 10^10 is the same as at p = 10^4, and as the reference's
    # (whose simple v and w at p = 10^4 build 10^8 letters, so it runs at p = 64)
    prefixes = []
    for p in (10 ** 4, 10 ** 10):
        m = make_morphism(p, _SCALED_Q[q_rule](p), family)
        prefixes.append([word_prefix(m, target, length) for length in range(51)])
    small = make_morphism(64, _SCALED_Q[q_rule](64), family)
    if target == UBETA or (target == V and family == "nonsimple"):
        ref = ref_fixed_point(small, 50)
    else:
        ref = ref_w_nonsimple(small, 50) if family == "nonsimple" else ref_wv_simple(small, target, 50)
    assert prefixes[0] == prefixes[1] == [ref[:length] for length in range(51)]


def test_fixed_point_cap(nonsimple31):
    with pytest.raises(CapExceededError):
        fixed_point_prefix(nonsimple31, (1 << 28) + 1)


def test_fixed_point_rejects_negative_length(nonsimple31):
    with pytest.raises(ValueError):
        fixed_point_prefix(nonsimple31, -1)


def test_word_prefix_rejects_unknown_target(nonsimple31):
    with pytest.raises(ValueError, match="target"):
        word_prefix(nonsimple31, "u", 5)


def test_messages_show_long_integers_by_size():
    assert [_shown(value) for value in (7, -7, 10 ** 20 - 1, 1 - 10 ** 20, 2.5, "x")] == [
        "7", "-7", "9" * 20, "-" + "9" * 20, "2.5", "'x'"]
    assert _shown(10 ** 20) == "<integer of about 21 digits>"
    assert _shown(-7 * 10 ** 4999 - 12345) == "<negative integer of about 5000 digits>"
    with pytest.raises(ValueError, match="^length must be nonnegative, got <negative integer"):
        word_prefix(make_morphism(3, 1, "nonsimple"), UBETA, -10 ** 30)
    with pytest.raises(ValueError, match="^p must be an integer >= 1, got <negative integer"):
        make_morphism(-10 ** 30, 1, "simple")


# --- concurrency -----------------------------------------------------------------

def test_concurrent_readers_share_caches():
    import threading

    from parryac import oracle_ac, u_value

    m = make_morphism(4, 2, "nonsimple")
    expected = fixed_point_prefix(m, 50)
    failures = []

    def worker(seed):
        try:
            for k in range(seed, 20000, 7):
                assert fixed_point_prefix(m, 50) == expected
                assert fixed_point_prefix(m, k)[:50] == expected[:min(50, k)]
            assert u_value(m, 30) == u_value(m, 30)
            assert oracle_ac(m, 40).stabilized
        except Exception as exc:   # surface to the main thread
            failures.append(exc)

    threads = [threading.Thread(target=worker, args=(s,)) for s in range(1, 5)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not failures
