"""Pinned value digests: the oracle, the closed form and the prefix difference over one grid.

Each digest is a sha256 over one line per (morphism, n), for the grid of
perfbench's GRID, in its order, at n = 1..5,000.  A change that keeps
every value keeps every digest; a change to any value, any morphism or n
moves one.
"""

from __future__ import annotations

import hashlib

from parryac import complexity, make_morphism, oracle

GRID = tuple(("simple", p, q) for p in range(1, 6) for q in range(1, p + 1)) + tuple(
    ("nonsimple", p, q) for p in range(2, 6) for q in range(1, p))
N_MAX = 5000


def _digest(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
    return digest.hexdigest()


def _morphisms():
    for family, p, q in GRID:
        yield p, q, family, make_morphism(p, q, family)


def test_oracle_digest():
    lines = (repr((p, q, family, n, min_b, max_b, letters, True)) + "\n"
             for p, q, family, m in _morphisms()
             for n, (letters, min_b, max_b) in enumerate(oracle._certified_extrema(m, 1, N_MAX), 1))
    assert _digest(lines) == "5db4b384e3f368f800c1124d83faec6abac702882c81b994d79cd43ea4d872bc"


def _closed_form_lines():
    for p, q, family, m in _morphisms():
        method, values = complexity._ac_values(m, 1, N_MAX)
        for n, value in zip(range(1, N_MAX + 1), values):
            yield f"{p},{q},{family},{n},{value},{method}\n"


def test_closed_form_digest():
    assert _digest(_closed_form_lines()) == (
        "c909cc7a9d7f57502b65704146e94285961b2c54904991f2c6f198654b42cde6")


def test_prefix_difference_digest():
    lines = (f"{p},{q},{family},{n},{value}\n"
             for p, q, family, m in _morphisms() if family == "nonsimple" or q > 1
             for n, value in enumerate(complexity._prefix_differences(m, 1, N_MAX), 1))
    assert _digest(lines) == "f867469bdcbd6515d507243c9b2d622cb9226d05c6ce4177910ef2fe5dc5260b"
