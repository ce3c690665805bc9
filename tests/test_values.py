"""Pinned value digests: the oracle, the closed form and the prefix difference over one
grid, cli.main's output bytes, and numeration's greedy digits.

The first three digests are each a sha256 over one line per (morphism, n),
for the grid of perfbench's GRID, in its order, at n = 1..5,000.  The cli
digest has one line per argv of one fixed list, the numeration digest one
per (morphism, n) around the greedy pass's splits.  A change that keeps
every value keeps every digest; a change to any value, any morphism or n
moves one.
"""

from __future__ import annotations

import hashlib
import io
import random
from contextlib import redirect_stderr, redirect_stdout
from itertools import chain

from parryac import cli, complexity, make_morphism, normal_u_rep, oracle, prefix_b_count, u_value

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
        method, windows = complexity._ac_values(m, 1, N_MAX)
        for n, value in zip(range(1, N_MAX + 1), chain.from_iterable(windows)):
            yield f"{p},{q},{family},{n},{value},{method}\n"


def test_closed_form_digest():
    assert _digest(_closed_form_lines()) == (
        "c909cc7a9d7f57502b65704146e94285961b2c54904991f2c6f198654b42cde6")


def test_prefix_difference_digest():
    lines = (f"{p},{q},{family},{n},{value}\n"
             for p, q, family, m in _morphisms() if family == "nonsimple" or q > 1
             for n, value in enumerate(complexity._prefix_differences(m, 1, N_MAX), 1))
    assert _digest(lines) == "f867469bdcbd6515d507243c9b2d622cb9226d05c6ce4177910ef2fe5dc5260b"


# --- cli.main's output bytes ------------------------------------------------------

CLI_MORPHISMS = (("nonsimple", 3, 1), ("simple", 3, 2), ("simple", 4, 1), ("nonsimple", 5, 2))
NS31 = ["--family", "nonsimple", "--p", "3", "--q", "1"]
S32 = ["--family", "simple", "--p", "3", "--q", "2"]
LONG_N = str(7 * 10 ** 60 + 12345)
CLI_ARGVS = [
    [command, "--family", family, "--p", str(p), "--q", str(q), "--format", fmt, *rest]
    for family, p, q in CLI_MORPHISMS
    for fmt in ("plain", "csv", "json")
    for command, *rest in (
        ["maxac"], ["ac", "--n", "7"], ["ac", "--n", "1", "--n-end", "40"], ["oracle", "--n", "7"],
        ["verify", "--n-max", "60"], ["urep", "--n", "157"],
        *(["word", "--which", which, "--len", "20"] for which in ("ubeta", "v", "w")))
] + [
    ["ac", *NS31, "--n", LONG_N],
    ["ac", *S32, "--n", LONG_N, "--n-end", LONG_N[:-1] + "9", "--format", "csv"],
    ["oracle", *NS31, "--n", "7", "--prefix-len", "48"],
    ["oracle", *S32, "--n", "90", "--prefix-len", "500", "--format", "json"],
    ["urep", *NS31, "--n", "157", "--places", "9"],
    ["urep", *S32, "--n", "5", "--places", "4", "--format", "json"],
    ["verify", *S32, "--n-max", "500"],
    ["ac", *NS31, "--n", "0"],
    ["maxac", "--family", "nonsimple", "--p", "x", "--q", "1"],
    ["word", "--family", "simple", "--p", "4", "--q", "1", "--which", "w", "--len", "5"],
    ["oracle", "--family", "nonsimple", "--p", "100000", "--q", "1", "--n", "100000"],
]


def _cli_runs():
    for argv in CLI_ARGVS:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        yield argv, code, out.getvalue(), err.getvalue()


def test_cli_main_digest():
    runs = list(_cli_runs())
    # a verify that prints OK, and each error exit: 64 twice, then 65 and 2
    assert runs[-5][1:3] == (0, "OK 500 checked\n")
    assert [code for _, code, _, _ in runs[-4:]] == [64, 64, 65, 2]
    assert _digest(repr(run) + "\n" for run in runs) == (
        "14a43f82e4ff67ba1f780a485fa9c590f768226be28f001ee27e23238b54982d")


# --- numeration's greedy digits ------------------------------------------------------

# test_numeration's CERTIFIED morphisms, in its order
CERTIFIED = (("nonsimple", 3, 1), ("simple", 3, 2), ("simple", 5, 5), ("nonsimple", 7, 3),
             ("nonsimple", 10 ** 6, 1), ("simple", 2 ** 70, 3), ("simple", 1, 1))
# U_j -1, 0 and +1 around the first places and the greedy pass's splits at 128, 256, ...
EDGE_PLACES = (*range(1, 11), 127, 128, 129, 255, 256, 257, 511, 512, 513, 1023, 1024, 1025)
SEED = 7
# n and the B-count go in as residues: U_1025 of non-simple (10^6, 1) has about 6,000
# digits, over the default int-string limit that repr keeps
MODULUS = 2 ** 61 - 1


def _numeration_lines():
    rng = random.Random(SEED)
    randoms = [rng.randrange(10 ** (digits - 1), 10 ** digits)
               for digits in (100, 100, 100, 1000, 1000, 1000)]
    for family, p, q in CERTIFIED:
        m = make_morphism(p, q, family)
        edges = [u_value(m, j) + shift for j in EDGE_PLACES for shift in (-1, 0, 1)]
        for n in edges + randoms:
            yield repr((p, q, family, n % MODULUS, n.bit_length(), normal_u_rep(m, n),
                        prefix_b_count(m, n) % MODULUS)) + "\n"


def test_numeration_digest():
    assert _digest(_numeration_lines()) == (
        "bba805938ecd445801d0f7c10bdca0f1cf991cfb8d1db3a6c4df9b0b9f7ede34")
