"""Command-line surface.

One executable with subcommands:

    ac      complexity values over a range of n (closed form / Sturmian)
    oracle  brute-force window interval for one n
    verify  closed form vs prefix-difference vs oracle over 1..n_max
    urep    greedy U-representation digits of n
    word    emit a prefix of the fixed point, v, or w
    maxac   maximum complexity and optimal balance bound

Exit codes: 0 success, 1 verification mismatch, 2 the oracle's certified
scan needs more letters than the generation cap, 64 usage error,
65 unsupported construction; `main` maps each error a subcommand raises
to its code through one table.  Output is deterministic; --format selects
plain, csv, or json where applicable.  One printer writes the one-record
results of `oracle` and `maxac`, and every JSON object opens with the
morphism's p, q and family.  The parser is built once, on first use.

`ac` writes a range one window of values at a time, in parts of about
2^20 characters at most, filling per-value row templates with one `%`;
n prints as a high part, converted to decimal once per 10^9 rows, and a
zero-padded low part below 10^9.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from itertools import chain, repeat

from .complexity import METHOD_STURMIAN, _ac_values, _prefix_differences, balance_bound, max_ac
from .numeration import normal_u_rep
from .oracle import OracleInstabilityError, _certified_extrema, oracle_ac, parikh_extrema
from .words import (
    CapExceededError,
    Family,
    Morphism,
    UnsupportedConstructionError,
    UBETA,
    V,
    W,
    _shown,
    word_prefix,
)

EX_OK = 0
EX_MISMATCH = 1
EX_UNSTABLE = 2
EX_USAGE = 64
EX_UNSUPPORTED = 65

#: The exit code of each error a subcommand may raise; the first match wins,
#: so UnsupportedConstructionError, a ValueError, comes before ValueError.
_EXIT_CODES = {UnsupportedConstructionError: EX_UNSUPPORTED, ValueError: EX_USAGE,
               CapExceededError: EX_USAGE, OracleInstabilityError: EX_UNSTABLE}

#: `ac` prints n as a high part, converted once, and a low part below this.
_LOW = 10 ** 9
#: `ac` writes about this many characters at most at once, however long n is.
_WRITE = 1 << 20


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract here is 64
    def error(self, message):
        raise _UsageError(message)


def _decimal(text: str) -> int:
    try:
        return int(text, 10)
    except ValueError:
        # never echo a long input whole
        shown = repr(text[:20]) + (f"... ({len(text)} characters)" if len(text) > 20 else "")
        raise argparse.ArgumentTypeError(f"not a decimal integer: {shown}")


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The parser `main` uses: built once per process and shared, so never modified."""
    common = _Parser(add_help=False)
    common.add_argument("--family", required=True, choices=[f.value for f in Family])
    common.add_argument("--p", type=_decimal, required=True, help="image of A is A^p B")
    common.add_argument("--q", type=_decimal, required=True,
                        help="image of B is A^q (simple) or A^q B (non-simple)")
    common.add_argument("--format", choices=["plain", "csv", "json"], default="plain")

    parser = _Parser(prog="parryac", fromfile_prefix_chars="@",
                     description="Abelian complexity of quadratic Parry fixed points")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ac = sub.add_parser("ac", parents=[common],
                          help="complexity over a range of n", add_help=True)
    p_ac.add_argument("--n", type=_decimal, required=True,
                      help="first length (decimal, arbitrary size)")
    p_ac.add_argument("--n-end", type=_decimal, default=None,
                      help="last length, inclusive (default: --n)")
    p_ac.set_defaults(handler=_cmd_ac)

    p_oracle = sub.add_parser("oracle", parents=[common],
                              help="brute-force window interval for one n")
    p_oracle.add_argument("--n", type=_decimal, required=True)
    p_oracle.add_argument("--prefix-len", type=_decimal, default=None,
                          help="scan exactly this prefix instead of the certified words")
    p_oracle.set_defaults(handler=_cmd_oracle)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="three-way agreement over 1..n_max")
    p_verify.add_argument("--n-max", type=_decimal, required=True)
    p_verify.set_defaults(handler=_cmd_verify)

    p_urep = sub.add_parser("urep", parents=[common],
                            help="greedy U-representation digits of n")
    p_urep.add_argument("--n", type=_decimal, required=True)
    p_urep.add_argument("--places", type=_decimal, default=None,
                        help="left-pad with zeros to this many places")
    p_urep.set_defaults(handler=_cmd_urep)

    p_word = sub.add_parser("word", parents=[common], help="emit a word prefix")
    p_word.add_argument("--which", required=True, choices=[UBETA, V, W])
    p_word.add_argument("--len", type=_decimal, required=True, dest="length")
    p_word.set_defaults(handler=_cmd_word)

    p_maxac = sub.add_parser("maxac", parents=[common],
                             help="maximum complexity and balance bound")
    p_maxac.set_defaults(handler=_cmd_maxac)

    return parser


def _cmd_ac(m: Morphism, args) -> int:
    n_start = args.n
    n_end = args.n_end if args.n_end is not None else n_start
    if n_start < 1 or n_end < n_start:
        raise ValueError(f"need 1 <= n <= n_end, got n={_shown(n_start)}, n_end={_shown(n_end)}")
    method, windows = _ac_values(m, n_start, n_end)
    if args.format == "csv":
        head, sep, row, tail = "n,ac,method\n", "\n", "%s,%d," + method, "\n"
    elif args.format == "json":
        # the bytes json.dumps gives for the whole payload: rows go between head and tail
        envelope = json.dumps({**_identity(m), "results": []})
        head, sep, tail = envelope[:-2], ", ", envelope[-2:] + "\n"
        row = '{"n": "%s", "ac": %d, "method": "' + method + '"}'
    else:
        head, sep, row, tail = "", "\n", "%s %d " + method, "\n"
    write = sys.stdout.write
    write(head)
    cut = len(sep)  # the first row's separator
    high, low = divmod(n_start, _LOW)
    rows = _Rows(sep + row, high)
    for values in windows:
        while values:
            if low == _LOW:  # n's high part steps
                high, low, rows = high + 1, 0, _Rows(sep + row, high + 1)
            k = min(len(values), _LOW - low, max(1, _WRITE // len(rows.n)))  # to the next multiple of _LOW
            part = values if k == len(values) else values[:k]
            write(("".join(map(rows.__getitem__, part)) % (*range(low, low + k),))[cut:])
            values, cut, low = values[k:], 0, low + k
    write(tail)
    return EX_OK


class _Rows(dict):
    """`ac`'s row for each value, built on first use: `row` with the value and n's high part."""

    def __init__(self, row: str, high: int):
        self.row, self.n = row, str(high) + "%09d" if high else "%d"

    def __missing__(self, value: int) -> str:
        text = self[value] = self.row % (self.n, value)
        return text


def _cmd_oracle(m: Morphism, args) -> int:
    if args.prefix_len is not None:
        interval = parikh_extrema(m, args.n, args.prefix_len)
    else:
        interval = oracle_ac(m, args.n)
    fields = {"n": interval.n, "min_b": interval.min_b, "max_b": interval.max_b,
              "ac": interval.ac, "prefix_len_used": interval.prefix_len_used,
              "stabilized": interval.stabilized}
    _print_record(m, args.format, fields, " ".join(f"{name}={{{name}}}" for name in fields))
    return EX_OK


def _cmd_verify(m: Morphism, args) -> int:
    n_max = args.n_max
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {_shown(n_max)}")
    # the Sturmian family (simple, q = 1) has no v and w, so no prefix difference
    method, windows = _ac_values(m, 1, n_max)
    diffs = repeat("n/a") if method == METHOD_STURMIAN else _prefix_differences(m, 1, n_max)
    routes = zip(range(1, n_max + 1), chain.from_iterable(windows), diffs, _certified_extrema(m, 1, n_max))
    mismatched = False
    for n, closed, diff, (_, low, high) in routes:
        brute = 1 + high - low
        if closed != brute or diff not in ("n/a", closed):
            print(f"MISMATCH n={n}: closed_form={closed} prefix_difference={diff} oracle={brute}")
            mismatched = True
    if mismatched:
        return EX_MISMATCH
    print(f"OK {n_max} checked")
    return EX_OK


def _cmd_urep(m: Morphism, args) -> int:
    digits = normal_u_rep(m, args.n, min_places=args.places)
    if args.format == "json":
        print(json.dumps({**_identity(m), "n": str(args.n), "digits": list(digits)}))
    else:
        print(",".join(map(str, digits)))
    return EX_OK


def _cmd_word(m: Morphism, args) -> int:
    print(word_prefix(m, args.which, args.length))
    return EX_OK


def _cmd_maxac(m: Morphism, args) -> int:
    fields = {"max_ac": max_ac(m), "balance_bound": balance_bound(m)}
    _print_record(m, args.format, fields, "{max_ac} {balance_bound}")
    return EX_OK


def _identity(m: Morphism) -> dict:
    """The head of every JSON payload: which morphism the values belong to."""
    return {"p": m.p, "q": m.q, "family": m.family.value}


def _print_record(m: Morphism, fmt: str, fields: dict, plain: str) -> None:
    """Print one record: a csv header and row, a JSON object after m's identity,
    or the template `plain` filled in.  csv and plain values read as in JSON."""
    if fmt == "json":
        print(json.dumps({**_identity(m), **fields}))
        return
    shown = {name: json.dumps(value) for name, value in fields.items()}
    if fmt == "csv":
        print(",".join(shown))
        print(",".join(shown.values()))
    else:
        print(plain.format_map(shown))


def main(argv: list[str] | None = None) -> int:
    # integers of any length, in and out: the int-string limit is lifted for the call
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    set_limit(0)
    try:
        args = build_parser().parse_args(argv)
        return args.handler(Morphism(args.p, args.q, args.family), args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
    finally:
        set_limit(limit)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
