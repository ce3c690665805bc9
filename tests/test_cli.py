"""Command-line surface: subcommands, formats, exit codes."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout, suppress
from itertools import chain
from pathlib import Path

import pytest

import parryac
from parryac import ac, cli, complexity, make_morphism, normal_u_rep, oracle, u_rep_value, words
from parryac.cli import (
    EX_MISMATCH,
    EX_OK,
    EX_UNSTABLE,
    EX_UNSUPPORTED,
    EX_USAGE,
    main,
)

from conftest import ref_apply

NS31 = ["--family", "nonsimple", "--p", "3", "--q", "1"]
S32 = ["--family", "simple", "--p", "3", "--q", "2"]
S41 = ["--family", "simple", "--p", "4", "--q", "1"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- ac ------------------------------------------------------------------------

def test_ac_plain(capsys, nonsimple31):
    code, out, _ = run(capsys, ["ac", *NS31, "--n", "7"])
    assert code == EX_OK
    assert out == "7 3 closed_form\n"


def test_ac_csv(capsys):
    code, out, _ = run(capsys, ["ac", *NS31, "--format", "csv", "--n", "7"])
    assert code == EX_OK
    assert out == "n,ac,method\n7,3,closed_form\n"
    code, out, _ = run(capsys, ["ac", *S32, "--format", "csv", "--n", "7"])
    assert out == "n,ac,method\n7,2,closed_form\n"


def test_ac_csv_sturmian_billion(capsys):
    code, out, _ = run(capsys, ["ac", *S41, "--format", "csv", "--n", "1000000000"])
    assert code == EX_OK
    assert out.splitlines()[1] == "1000000000,2,sturmian"


def test_ac_json_envelope(capsys):
    code, out, _ = run(capsys, ["ac", *NS31, "--format", "json", "--n", "7", "--n-end", "9"])
    assert code == EX_OK
    payload = json.loads(out)
    assert payload["p"] == 3 and payload["q"] == 1 and payload["family"] == "nonsimple"
    assert payload["results"][0] == {"n": "7", "ac": 3, "method": "closed_form"}
    assert [r["n"] for r in payload["results"]] == ["7", "8", "9"]


def test_ac_range_ascending(capsys):
    code, out, _ = run(capsys, ["ac", *S32, "--n", "1", "--n-end", "12"])
    assert code == EX_OK
    ns = [int(line.split()[0]) for line in out.splitlines()]
    assert ns == list(range(1, 13))


def test_ac_fifty_digit_n(capsys):
    n = "1" + "0" * 49
    code, out, _ = run(capsys, ["ac", *NS31, "--n", n])
    assert code == EX_OK
    assert out.startswith(n + " ")


def test_ac_csv_roundtrip_determinism(capsys):
    argv = ["ac", *S32, "--format", "csv", "--n", "1", "--n-end", "40"]
    _, first, _ = run(capsys, argv)
    rows = [line.split(",") for line in first.splitlines()[1:]]
    _, second, _ = run(capsys, ["ac", *S32, "--format", "csv",
                                "--n", rows[0][0], "--n-end", rows[-1][0]])
    assert first == second


def _payload_text(m, fmt, n_start, n_end):
    """The whole output of `ac` over a range, built as one string."""
    results = [ac(m, n) for n in range(n_start, n_end + 1)]
    if fmt == "json":
        return json.dumps({
            "p": m.p, "q": m.q, "family": m.family.value,
            "results": [{"n": str(r.n), "ac": r.value, "method": r.method} for r in results],
        }) + "\n"
    if fmt == "csv":
        return "n,ac,method\n" + "".join(f"{r.n},{r.value},{r.method}\n" for r in results)
    return "".join(f"{r.n} {r.value} {r.method}\n" for r in results)


def _assert_same_text(got, expected):
    """Fail at the first character where got and expected differ, never by a diff of both."""
    if got != expected:  # pytest's diff of two long texts can take minutes
        at = len(os.path.commonprefix((got, expected)))
        near = slice(max(at - 40, 0), at + 40)
        pytest.fail(f"texts differ at character {at} (lengths {len(got)} and {len(expected)}): "
                    f"{got[near]!r} != {expected[near]!r}")


@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
@pytest.mark.parametrize("argv", [S32, NS31, S41])
@pytest.mark.parametrize("n_start, n_end", [(1, 9000), (7, 7), (10 ** 20, 10 ** 20 + 5)])
def test_ac_range_output_is_the_whole_payload(capsys, argv, fmt, n_start, n_end):
    # streamed in chunks of rows, the bytes equal those of the payload built at once
    m = make_morphism(int(argv[3]), int(argv[5]), argv[1])
    code, out, _ = run(capsys, ["ac", *argv, "--format", fmt,
                                "--n", str(n_start), "--n-end", str(n_end)])
    assert code == EX_OK
    _assert_same_text(out, _payload_text(m, fmt, n_start, n_end))


class _Discard(io.TextIOBase):
    def write(self, text):
        return len(text)


def test_ac_long_range_streams_in_constant_memory():
    argv = ["ac", *S32, "--format", "csv", "--n", "1", "--n-end", "100000"]
    tracemalloc.start()
    try:
        with redirect_stdout(_Discard()):
            code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EX_OK
    assert peak < 2 * 2 ** 20, peak


@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
@pytest.mark.parametrize("argv", [S32, NS31, S41])
@pytest.mark.parametrize("n_start, n_end", [
    (999_999_990, 1_000_000_010), (1_999_999_997, 2_000_000_003), (10 ** 9, 10 ** 9),
    (10 ** 9 - 1, 10 ** 9 - 1), (10 ** 30 - 5, 10 ** 30 + 5)])
def test_ac_range_rows_across_the_high_part_of_n(capsys, argv, fmt, n_start, n_end):
    # n prints as a high part, which steps at each multiple of 10^9, and a
    # zero-padded low part
    m = make_morphism(int(argv[3]), int(argv[5]), argv[1])
    assert run(capsys, ["ac", *argv, "--format", fmt, "--n", str(n_start), "--n-end", str(n_end)]) == (
        EX_OK, _payload_text(m, fmt, n_start, n_end), "")


@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
@pytest.mark.parametrize("argv", [S32, NS31, S41])
def test_ac_range_splits_a_window_at_a_multiple_of_the_low_part(capsys, argv, fmt):
    # one window of values holds n = 10^9 - 1 and 10^9, so its rows are
    # written in two parts, before and after the high part steps
    m = make_morphism(int(argv[3]), int(argv[5]), argv[1])
    n_start, n_end = 10 ** 9 - 100, 10 ** 9 + 4_200
    first = n_start
    for window in complexity._ac_values(m, n_start, n_end)[1]:
        if first < 10 ** 9 < first + len(window):
            break
        first += len(window)
    else:
        pytest.fail("no window holds both 10^9 - 1 and 10^9")
    assert run(capsys, ["ac", *argv, "--format", fmt, "--n", str(n_start), "--n-end", str(n_end)]) == (
        EX_OK, _payload_text(m, fmt, n_start, n_end), "")


class _Ends(io.TextIOBase):
    """A sink that keeps the line count and the first and last characters written."""

    KEEP = 300_000

    def __init__(self):
        self.lines, self.head, self.tail = 0, "", ""

    def write(self, text):
        self.lines += text.count("\n")
        if len(self.head) < self.KEEP:
            self.head += text[:self.KEEP]
        self.tail = (self.tail + text[-self.KEEP:])[-self.KEEP:]
        return len(text)


def _parsed(text):
    """int(text), in 1,000-digit chunks: no conversion over the int-string limit."""
    value = 0
    for chunk in (text[at:at + 1000] for at in range(0, len(text), 1000)):
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def test_ac_range_at_a_hundred_thousand_digit_n(nonsimple31):
    # 1,001 rows from n of 10^5 digits: one decimal conversion per row took
    # minutes on interpreters whose int-to-str is quadratic
    head = "7" + "0" * 99_994
    start, end = head + "12345", head + "13345"
    value = _parsed(start)
    sink = _Ends()
    with redirect_stdout(sink):
        code = main(["ac", *NS31, "--format", "csv", "--n", start, "--n-end", end])
    assert code == EX_OK
    assert sink.lines == 1 + 1_001
    header, first_row = sink.head.split("\n")[:2]
    assert header == "n,ac,method"
    assert first_row == f"{start},{ac(nonsimple31, value).value},closed_form"
    assert sink.tail.split("\n")[-2:] == [f"{end},{ac(nonsimple31, value + 1000).value},closed_form", ""]


def test_ac_range_from_a_long_n_writes_in_bounded_memory(nonsimple31):
    # a window of 4,096 rows from n of 10^4 digits is some 40 MB of text;
    # it is written in parts of about 2^20 characters
    head = "7" + "0" * 9_994
    start, end = head + "12345", head + "16440"
    sink = _Ends()
    tracemalloc.start()
    try:
        with redirect_stdout(sink):
            code = main(["ac", *NS31, "--format", "csv", "--n", start, "--n-end", end])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EX_OK
    assert peak < 8 * 2 ** 20, peak
    assert sink.lines == 1 + 4_096
    value = _parsed(start)
    assert sink.head.split("\n")[1] == f"{start},{ac(nonsimple31, value).value},closed_form"
    assert sink.tail.split("\n")[-2:] == [f"{end},{ac(nonsimple31, value + 4_095).value},closed_form", ""]


def test_ac_rejects_zero(capsys):
    code, _, err = run(capsys, ["ac", *NS31, "--n", "0"])
    assert code == EX_USAGE
    assert "n" in err


def test_ac_rejects_bad_range(capsys):
    code, _, err = run(capsys, ["ac", *NS31, "--n", "5", "--n-end", "4"])
    assert code == EX_USAGE


# --- urep ----------------------------------------------------------------------

def test_urep_worked_examples(capsys):
    code, out, _ = run(capsys, ["urep", *NS31, "--n", "157"])
    assert code == EX_OK and out == "3,0,3,1\n"
    code, out, _ = run(capsys, ["urep", *NS31, "--n", "0"])
    assert out == "0\n"
    code, out, _ = run(capsys, ["urep", *S32, "--n", "5"])
    assert out == "1,1\n"


def test_urep_places(capsys):
    code, out, _ = run(capsys, ["urep", *NS31, "--n", "7", "--places", "4"])
    assert out == "0,0,1,3\n"


def test_urep_formats(capsys):
    assert run(capsys, ["urep", *NS31, "--n", "157", "--format", "json"]) == (
        EX_OK, '{"p": 3, "q": 1, "family": "nonsimple", "n": "157", "digits": [3, 0, 3, 1]}\n', "")
    assert run(capsys, ["urep", *NS31, "--n", "157", "--format", "csv"]) == (EX_OK, "3,0,3,1\n", "")


@pytest.mark.parametrize("spec", [(3, 1, "nonsimple"), (3, 2, "simple"), (5, 5, "simple")])
def test_urep_past_place_128(capsys, spec):
    # n has 132 to 189 places, so the split pass runs; 300 places pad it
    m, n = make_morphism(*spec), 7 * 10 ** 100 + 12345
    expected = normal_u_rep(m, n, 300)
    assert len(normal_u_rep(m, n)) > 128 and len(expected) == 300
    argv = ["urep", "--family", spec[2], "--p", str(spec[0]), "--q", str(spec[1]), "--n", str(n),
            "--places", "300"]
    for tail in ([], ["--format", "csv"], ["--format", "json"]):
        code, out, err = run(capsys, argv + tail)
        assert (code, err) == (EX_OK, "")
        digits = tuple(json.loads(out)["digits"] if tail[-1:] == ["json"] else map(int, out.split(",")))
        assert digits == expected and u_rep_value(m, digits) == n, tail
    assert json.loads(out) == {"p": spec[0], "q": spec[1], "family": spec[2], "n": str(n),
                               "digits": list(expected)}


def test_urep_places_over_the_cap_exits_64(capsys):
    places = str(words.GENERATION_CAP + 1)
    code, out, err = run(capsys, ["urep", *NS31, "--n", "5", "--places", places])
    assert (code, out) == (EX_USAGE, "")
    assert err.startswith("error: ") and "generation cap" in err


def test_urep_rejects_negative_n(capsys):
    assert run(capsys, ["urep", *NS31, "--n", "-3"]) == (
        EX_USAGE, "", "error: n must be nonnegative, got -3\n")


# --- word ----------------------------------------------------------------------

def test_word_w_nonsimple(capsys):
    code, out, _ = run(capsys, ["word", *NS31, "--which", "w", "--len", "9"])
    assert code == EX_OK and out == "BABAAABAB\n"


def test_word_v_simple(capsys):
    code, out, _ = run(capsys, ["word", *S32, "--which", "v", "--len", "7"])
    assert code == EX_OK and out == "AAAAABA\n"


def test_word_empty(capsys):
    code, out, _ = run(capsys, ["word", *NS31, "--which", "ubeta", "--len", "0"])
    assert code == EX_OK and out == "\n"


def test_word_unsupported_construction_exit_65(capsys):
    code, _, err = run(capsys, ["word", *S41, "--which", "v", "--len", "5"])
    assert code == EX_UNSUPPORTED
    assert "q = 1" in err


def test_word_v_nonsimple_is_fixed_point(capsys):
    code, out, _ = run(capsys, ["word", *NS31, "--which", "v", "--len", "7"])
    assert out == "AAABAAA\n"


def test_word_rejects_negative_length(capsys):
    code, out, err = run(capsys, ["word", *NS31, "--which", "ubeta", "--len", "-1"])
    assert code == EX_USAGE and out == ""
    assert err.startswith("error: ") and "nonnegative" in err


def test_word_over_generation_cap_is_refused_before_generating(capsys, monkeypatch):
    def no_generation(*args):
        raise AssertionError("a word was generated")

    monkeypatch.setattr(words, "_image", no_generation)
    code, out, err = run(capsys, ["word", *NS31, "--which", "w", "--len", "268435457"])
    assert code == EX_USAGE and out == ""
    assert err.startswith("error: ") and "generation cap" in err


# --- maxac ---------------------------------------------------------------------

def test_maxac_plain(capsys):
    assert run(capsys, ["maxac", *NS31])[:2] == (EX_OK, "3 2\n")
    assert run(capsys, ["maxac", *S32])[1] == "3 2\n"
    assert run(capsys, ["maxac", "--family", "simple", "--p", "5", "--q", "1"])[1] == "2 1\n"


def test_maxac_json(capsys):
    code, out, _ = run(capsys, ["maxac", *S32, "--format", "json"])
    payload = json.loads(out)
    assert payload["max_ac"] == 3 and payload["balance_bound"] == 2


def test_maxac_exact_bytes(capsys):
    assert run(capsys, ["maxac", *NS31, "--format", "csv"]) == (
        EX_OK, "max_ac,balance_bound\n3,2\n", "")
    assert run(capsys, ["maxac", *NS31, "--format", "json"]) == (
        EX_OK, '{"p": 3, "q": 1, "family": "nonsimple", "max_ac": 3, "balance_bound": 2}\n', "")


# --- oracle ----------------------------------------------------------------------

def test_oracle_fixed_prefix(capsys):
    code, out, _ = run(capsys, ["oracle", *NS31, "--n", "7", "--prefix-len", "48"])
    assert code == EX_OK
    assert "min_b=1" in out and "max_b=3" in out and "stabilized=false" in out


def test_oracle_stabilized(capsys):
    code, out, _ = run(capsys, ["oracle", *NS31, "--n", "7"])
    assert code == EX_OK
    assert "ac=3" in out and "stabilized=true" in out


def test_oracle_plain_line(capsys):
    line = "n=7 min_b=1 max_b=3 ac=3 prefix_len_used=48 stabilized="
    assert run(capsys, ["oracle", *NS31, "--n", "7"]) == (EX_OK, line + "true\n", "")
    assert run(capsys, ["oracle", *NS31, "--n", "7", "--prefix-len", "48"]) == (
        EX_OK, line + "false\n", "")


def test_oracle_csv(capsys):
    code, out, _ = run(capsys, ["oracle", *S32, "--format", "csv", "--n", "7"])
    header, row = out.splitlines()
    assert header == "n,min_b,max_b,ac,prefix_len_used,stabilized"
    assert row == "7,1,2,2,50,true"


def test_oracle_json(capsys):
    code, out, _ = run(capsys, ["oracle", *S32, "--format", "json", "--n", "7"])
    assert code == EX_OK
    # the exact bytes pin the key order as well as the values
    assert out == ('{"p": 3, "q": 2, "family": "simple", "n": 7, "min_b": 1, "max_b": 2, '
                   '"ac": 2, "prefix_len_used": 50, "stabilized": true}\n')


def test_oracle_instability_maps_to_exit_2(capsys):
    # the certified scan would need about 5.4e10 letters: refused at once
    code, out, err = run(capsys, ["oracle", "--family", "nonsimple", "--p", "3000",
                                  "--q", "1", "--n", "100000"])
    assert code == EX_UNSTABLE
    assert out == ""
    assert err.startswith("error: ") and "generation cap" in err


# --- verify -----------------------------------------------------------------------

def test_verify_nonsimple_ok(capsys):
    code, out, _ = run(capsys, ["verify", *NS31, "--n-max", "500"])
    assert code == EX_OK
    assert out == "OK 500 checked\n"


def test_verify_simple_ok(capsys):
    code, out, _ = run(capsys, ["verify", *S32, "--n-max", "500"])
    assert code == EX_OK
    assert out == "OK 500 checked\n"


def test_verify_sturmian_simple_ok(capsys):
    code, out, _ = run(capsys, ["verify", *S41, "--n-max", "100"])
    assert code == EX_OK


def test_verify_rejects_empty_range(capsys):
    code, _, err = run(capsys, ["verify", *NS31, "--n-max", "0"])
    assert code == EX_USAGE


def test_verify_reports_each_mismatch(capsys, monkeypatch):
    # one wrong prefix-difference value is reported on its own line, and
    # no OK line follows
    right = cli._prefix_differences
    monkeypatch.setattr(cli, "_prefix_differences", lambda m, start, stop: (
        value + (n == 7) for n, value in enumerate(right(m, start, stop), start)))
    code, out, _ = run(capsys, ["verify", *NS31, "--n-max", "10"])
    assert code == EX_MISMATCH
    assert out == "MISMATCH n=7: closed_form=3 prefix_difference=4 oracle=3\n"


def test_verify_reports_a_wrong_closed_form_value(capsys, monkeypatch):
    # verify's spans start at n = 1
    right = complexity._value_windows
    monkeypatch.setattr(complexity, "_value_windows", lambda spans: (
        [value + (n == 7)] for n, value in enumerate(chain.from_iterable(right(spans)), 1)))
    code, out, _ = run(capsys, ["verify", *NS31, "--n-max", "10"])
    assert code == EX_MISMATCH
    assert out == "MISMATCH n=7: closed_form=4 prefix_difference=3 oracle=3\n"


def off_at_7(extrema):
    """oracle._extrema with max_b one too high at n = 7, still a valid interval."""
    return lambda framed, start, stop: (
        (low, high + (n == 7)) for n, (low, high) in enumerate(extrema(framed, start, stop), start))


def test_verify_reports_a_wrong_oracle_value(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "_extrema", off_at_7(oracle._extrema))
    code, out, _ = run(capsys, ["verify", *NS31, "--n-max", "10"])
    assert code == EX_MISMATCH
    assert out == "MISMATCH n=7: closed_form=3 prefix_difference=3 oracle=4\n"


def test_verify_reports_a_sturmian_mismatch_without_prefix_difference(capsys, monkeypatch):
    # the simple family with q = 1 has no v and w, so its column reads n/a
    monkeypatch.setattr(oracle, "_extrema", off_at_7(oracle._extrema))
    code, out, _ = run(capsys, ["verify", *S41, "--n-max", "10"])
    assert code == EX_MISMATCH
    assert out == "MISMATCH n=7: closed_form=2 prefix_difference=n/a oracle=3\n"


def test_verify_checks_every_oracle_interval(capsys, monkeypatch):
    # min_b above max_b at n = 7 (its true interval is [1, 3]) is a usage-level error
    right = oracle._extrema
    monkeypatch.setattr(oracle, "_extrema", lambda framed, start, stop: (
        (high + 1, high) if n == 7 else (low, high)
        for n, (low, high) in enumerate(right(framed, start, stop), start)))
    code, out, err = run(capsys, ["verify", *NS31, "--n-max", "10"])
    assert (code, out) == (EX_USAGE, "")
    assert err == ("error: inconsistent interval: ParikhInterval(n=7, min_b=4, max_b=3, "
                   "prefix_len_used=48, stabilized=True)\n")


def test_verify_exits_2_at_the_first_n_over_the_cap(capsys, monkeypatch):
    # n = 4 is the first n of level 2, whose word phi^2(AABA) has 48 letters;
    # levels 0 and 1 fit, but the range is refused before any word is built
    def no_build(*args):
        raise AssertionError("a word was built")

    monkeypatch.setattr(oracle, "GENERATION_CAP", 47)
    monkeypatch.setattr(oracle, "_block_pair_positions", no_build)
    code, out, err = run(capsys, ["verify", *NS31, "--n-max", "10"])
    assert code == EX_UNSTABLE
    assert out == ""
    assert "n=4" in err and "phi^2(AABA) of 48 letters" in err


def test_verify_searches_each_oracle_level_once(capsys, monkeypatch, nonsimple31):
    # two parikh_image calls step one level; a search per n made 25,744 here
    levels, image_b = 0, "B"
    while len(image_b) < 2000 - 1:
        levels, image_b = levels + 1, ref_apply(nonsimple31, image_b)
    calls = []
    step = oracle.parikh_image

    def counted(m, row):
        calls.append(row)
        return step(m, row)

    monkeypatch.setattr(oracle, "parikh_image", counted)
    code, out, _ = run(capsys, ["verify", *NS31, "--n-max", "2000"])
    assert (code, out) == (EX_OK, "OK 2000 checked\n")
    assert 0 < len(calls) <= 2 * (levels + 1)


# --- imports and the module entry point ---------------------------------------------

def _python(*args):
    """Run a fresh interpreter on this checkout's package."""
    package_root = str(Path(parryac.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60)


def test_ac_runs_without_numpy():
    # only the oracle needs numpy, and it imports it on first use
    script = (
        "import sys\n"
        "import parryac.cli\n"
        "code = parryac.cli.main(['ac', '--family', 'nonsimple', '--p', '3', '--q', '1', '--n', '7'])\n"
        "print('numpy' in sys.modules)\n"
        "sys.exit(code)\n")
    result = _python("-c", script)
    assert result.returncode == EX_OK, result.stderr
    assert result.stdout.splitlines()[-1] == "False"


def test_module_entry_point_exits_with_main_code():
    # `python -m parryac.cli` runs entrypoint, which exits with main's code
    for n, code, out in (("7", EX_OK, "7 3 closed_form\n"), ("0", EX_USAGE, "")):
        result = _python("-m", "parryac.cli", "ac", *NS31, "--n", n)
        assert (result.returncode, result.stdout) == (code, out), result.stderr


# --- usage and validation -------------------------------------------------------------

def test_missing_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys, [])
    assert code == EX_USAGE


def test_calls_after_a_usage_error_parse_afresh(capsys):
    # one parser serves every call in a process
    assert run(capsys, ["ac", *NS31, "--n", "1", "--bogus"])[0] == EX_USAGE
    assert run(capsys, ["urep", *S32, "--n", "5", "--format", "json"]) == (
        EX_OK, '{"p": 3, "q": 2, "family": "simple", "n": "5", "digits": [1, 1]}\n', "")
    assert run(capsys, ["ac", *NS31, "--n", "7"]) == (EX_OK, "7 3 closed_form\n", "")


def test_invalid_family_combination(capsys):
    code, _, err = run(capsys, ["ac", "--family", "simple", "--p", "2", "--q", "3", "--n", "1"])
    assert code == EX_USAGE
    assert "p >= q" in err


def test_unknown_flag(capsys):
    code, _, _ = run(capsys, ["ac", *NS31, "--n", "1", "--bogus"])
    assert code == EX_USAGE


def test_non_decimal_n(capsys):
    code, _, _ = run(capsys, ["ac", *NS31, "--n", "seven"])
    assert code == EX_USAGE


@pytest.mark.parametrize("argv", [
    ["ac", *NS31, "--n", "x" * 5000],
    ["ac", *NS31, "--n", "7" * 3000 + "x"],
    ["ac", *S32, "--n", "1", "--n-end", "x" * 5000],
    ["urep", *NS31, "--n", "x" * 5000],
    # every integer flag, not only the lengths of ac and urep
    ["maxac", "--family", "nonsimple", "--p", "x" * 5000, "--q", "1"],
    ["maxac", "--family", "nonsimple", "--p", "3", "--q", "x" * 5000],
    ["oracle", *NS31, "--n", "7" * 3000 + "x"],
    ["oracle", *NS31, "--n", "7", "--prefix-len", "x" * 5000],
    ["verify", *NS31, "--n-max", "x" * 5000],
    ["word", *NS31, "--which", "ubeta", "--len", "x" * 5000],
    ["urep", *NS31, "--n", "7", "--places", "x" * 5000],
])
def test_long_malformed_n_is_not_echoed(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == EX_USAGE and out == ""
    assert "not a decimal integer" in err and "characters" in err
    assert len(err.encode()) < 200


@pytest.mark.parametrize("argv, expected", [
    (["urep", *NS31, "--n", "7", "--places", "7" * 5000], EX_USAGE),
    (["ac", *NS31, "--n", "7" * 5000, "--n-end", "5"], EX_USAGE),
    (["verify", *NS31, "--n-max", "-" + "7" * 5000], EX_USAGE),
    (["word", *NS31, "--which", "ubeta", "--len", "7" * 5000], EX_USAGE),
    (["oracle", *NS31, "--n", "7" * 5000], EX_UNSTABLE),
])
def test_long_valid_integers_are_not_echoed(capsys, argv, expected):
    # a refused integer is shown by its size, never by a decimal conversion
    code, out, err = run(capsys, argv)
    assert (code, out) == (expected, "")
    assert "integer of about 5000 digits" in err and len(err.encode()) < 200


@pytest.mark.parametrize("digits", [5000, 20000])
def test_integers_past_the_int_string_limit(capsys, nonsimple31, digits):
    # 7 * 10^(digits - 1) + 12345, built without an int-string conversion,
    # which this interpreter may limit to 4,300 digits outside the CLI
    n, text = 7 * 10 ** (digits - 1) + 12345, "7" + "0" * (digits - 6) + "12345"
    value = ac(nonsimple31, n).value
    assert run(capsys, ["ac", *NS31, "--n", text]) == (EX_OK, f"{text} {value} closed_form\n", "")
    assert run(capsys, ["ac", *NS31, "--n", text, "--format", "csv"]) == (
        EX_OK, f"n,ac,method\n{text},{value},closed_form\n", "")
    assert run(capsys, ["ac", *NS31, "--n", text, "--format", "json"]) == (
        EX_OK, '{"p": 3, "q": 1, "family": "nonsimple", "results": '
               f'[{{"n": "{text}", "ac": {value}, "method": "closed_form"}}]}}\n', "")
    digits_out = ",".join(map(str, normal_u_rep(nonsimple31, n)))
    assert run(capsys, ["urep", *NS31, "--n", text]) == (EX_OK, digits_out + "\n", "")


def test_ac_range_past_the_int_string_limit(capsys, simple32):
    # three rows from 7 * 10^4999 + 12345, whose decimal strings end 12345..12347
    n, head = 7 * 10 ** 4999 + 12345, "7" + "0" * 4994 + "1234"
    rows = [f"{head}{5 + i} {ac(simple32, n + i).value} closed_form\n" for i in range(3)]
    assert run(capsys, ["ac", *S32, "--n", head + "5", "--n-end", head + "7"]) == (
        EX_OK, "".join(rows), "")


def test_oracle_past_the_int_string_limit_exits_2(capsys):
    code, out, err = run(capsys, ["oracle", *NS31, "--n", "7" * 4400])
    assert (code, out) == (EX_UNSTABLE, "")
    assert err.startswith("error: the certified scan for n=") and "generation cap" in err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no int-string limit")
@pytest.mark.parametrize("argv", [["ac", *NS31, "--n", "7" * 5000], ["ac", *NS31, "--n", "x"],
                                  ["verify", *NS31, "--n-max", "0"], ["--help"]])
def test_main_restores_the_int_string_limit(capsys, argv):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        with suppress(SystemExit):  # --help
            main(argv)
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(before)
    capsys.readouterr()


def test_exit_code_constants():
    assert (EX_OK, EX_MISMATCH, EX_UNSTABLE, EX_USAGE, EX_UNSUPPORTED) == (0, 1, 2, 64, 65)
