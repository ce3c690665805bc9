"""Recorded mutants of the package, each with the tests that must kill it.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named mutants only

Pytest does not collect this file: its name does not start with test_.
Each mutant is a file under src/, an exact old text, the new text, and
the test node ids that must fail under it.  The runner copies src/,
tests/ and pyproject.toml into a temporary directory.  It first runs the
named tests of every selected mutant once, unmutated, and they must
pass.  Then, for each mutant, it checks that the old text occurs exactly
once in a fresh copy of its file, so that a stale mutant fails loudly,
applies the edit and runs `pytest -x` on its tests; the mutant is killed
when they fail (pytest exit status 1).  A collection error does not
count as a kill.  The exit status is 0 when every mutant is killed.

A mutant that survives is a fault in the tests: never delete or weaken a
mutant to get a pass.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]


FAR_WV = "tests/test_extremal.py::test_far_wv_stages_simple_equal_running_sums"
FAR_W = "tests/test_extremal.py::test_far_w_stages_nonsimple_equal_running_sums"
#: cli._cmd_ac's text between the three pieces that its late-step mutant changes.
_ROW_STEP = "  # n's high part steps\n                high, low, rows = high + 1, "
_ROW_PART = "\n            k = min(len(values), "
WINDOWS = "tests/test_numeration.py::test_one_top_window_per_call"
NUMERATION_DIGEST = "tests/test_values.py::test_numeration_digest"
NS31 = "[Morphism(p=3, q=1, family=<Family.NONSIMPLE: 'nonsimple'>)]"

MUTANTS = (
    Mutant("stage-length-past-700", "src/parryac/extremal.py",
           "return 1 + (rows.m.q - 1) * rows.sum((1, 1), t, 2)",
           "return 1 + (rows.m.q - 1) * rows.sum((1, 1), t, 2) + (t >= 700)",
           (FAR_WV,)),
    Mutant("b-sum-step-2-past-700", "src/parryac/numeration.py",
           "- wa * u_k1 - wb * b_k1) // (1 - trace + det)",
           "- wa * u_k1 - wb * b_k1) // (1 - trace + det)"
           " + (weights == (0, 1) and step == 2 and k >= 700)",
           (FAR_WV,)),
    Mutant("w-stage-length-past-700", "src/parryac/extremal.py",
           "return rows.sum((1, rows.m.q + 1 - rows.m.p), k), rows.u(k), rows.u(k + 1)",
           "return rows.sum((1, rows.m.q + 1 - rows.m.p), k) + (k >= 700), rows.u(k), rows.u(k + 1)",
           (FAR_W,)),
    Mutant("w-stage-u-past-700", "src/parryac/extremal.py",
           "return rows.sum((1, rows.m.q + 1 - rows.m.p), k), rows.u(k), rows.u(k + 1)",
           "return rows.sum((1, rows.m.q + 1 - rows.m.p), k), rows.u(k) + (k >= 700), rows.u(k + 1)",
           (FAR_W,)),
    Mutant("simple-base-past-place-128", "src/parryac/complexity.py",
           "2 + (rows.m.q - 1) * sums, 1, x0, y0",
           "2 + (rows.m.q - 1) * sums + (rows.top >= 128), 1, x0, y0",
           ("tests/test_complexity.py::test_closed_form_equals_prefix_difference_at_5000_digits",)),
    Mutant("spans-threshold-at-stage-length", "src/parryac/extremal.py",
           "((top - 1, _stage_length(rows, top) - 1), (top, end))",
           "((top - 1, _stage_length(rows, top)), (top, end))",
           ("tests/test_extremal.py::test_spans_split_a_range_into_one_span_per_stage",)),
    Mutant("record-parity-swapped", "src/parryac/complexity.py",
           "(low, below, -sums) if stage % 2 else (below, low, sums)",
           "(low, below, -sums) if not stage % 2 else (below, low, sums)",
           ("tests/test_complexity.py::test_closed_form_equals_prefix_difference",)),
    Mutant("letters-whole-images", "src/parryac/numeration.py",
           "head = A * min(count - first, length) + tail\n"
           "    return _image_prefix(source[1:], _cut_images(m, length), length - len(head), head)",
           "head = A * (count - first) + tail\n"
           "    return _image_prefix(source[1:], (m.image_a, m.image_b), length - len(head), head)",
           ("tests/test_complexity.py::test_ac_range_on_wide_places_equals_prefix_differences",)),
    Mutant("window-one-n-too-long", "src/parryac/complexity.py",
           "steps = min(last - start, _WINDOW - 1)",
           "steps = min(last - start, _WINDOW)",
           ("tests/test_complexity.py::test_ac_range_crosses_windows_inside_one_stage",
            "tests/test_cli.py::test_ac_range_output_is_the_whole_payload")),
    Mutant("advance-b-letter-bounded-by-u24", "src/parryac/numeration.py",
           "else places[j + 1][0] - plan.m.p * places[j][0]",
           "else places[j][0]",
           ("tests/test_numeration.py::test_advance_moves_the_low_digits_or_declines",)),
    Mutant("fixed-point-letter-10-flipped", "src/parryac/words.py",
           "return word_prefix(m, UBETA, length)",
           "return (lambda w: w[:10] + 'AB'[w[10] == 'A'] + w[11:] if length > 50 else w)("
           "word_prefix(m, UBETA, length))",
           ("tests/test_words.py::test_concurrent_readers_share_caches",)),
    Mutant("row-counter-steps-one-row-late", "src/parryac/cli.py",
           "if low == _LOW:" + _ROW_STEP + "0, _Rows(sep + row, high + 1)" + _ROW_PART + "_LOW - low, ",
           "if low == _LOW + 1:" + _ROW_STEP + "1, _Rows(sep + row, high + 1)" + _ROW_PART + "_LOW + 1 - low, ",
           ("tests/test_cli.py::test_ac_range_rows_across_the_high_part_of_n",)),
    Mutant("json-first-separator-kept", "src/parryac/cli.py",
           "cut = len(sep)  # the first row's separator",
           "cut = len(sep) if sep == \"\\n\" else 0  # the first row's separator",
           ("tests/test_cli.py::test_ac_range_output_is_the_whole_payload",)),
    # the same values from rows read below the top: each such read doubles afresh
    Mutant("top-rows-from-above", "src/parryac/numeration.py",
           "top = max(int((n.bit_length() - 1) / plan.log2_beta) - 2, 0)",
           "top = max(int((n.bit_length() - 1) / plan.log2_beta) + 2, 0)",
           (WINDOWS,)),
    Mutant("sum-reads-row-k", "src/parryac/numeration.py",
           "k, lift = k + step, trace - 1",
           "k, lift = k, det",
           (WINDOWS,)),
    # the last split's U_h and s_{h-1} cut to its quotients' bits with no margin
    Mutant("last-split-scale-cut-to-the-quotient-bits", "src/parryac/numeration.py",
           "int((top - h + 2) * plan.log2_beta) - 84, 0)",
           "int((top - h + 2) * plan.log2_beta) - 0, 0)",
           ("tests/test_numeration.py::test_odometer_steps_greedy_digits"
            "[Morphism(p=2, q=2, family=<Family.SIMPLE: 'simple'>)]",
            "tests/test_numeration.py::test_last_split_estimates_within_the_jump_bound" + NS31)),
    # a split's single step keeps the up-step that overshoots m
    Mutant("step-undo-dropped", "src/parryac/numeration.py",
           "                plan.down(digits)\n                break",
           "                break",
           ("tests/test_numeration.py::test_odometer_steps_greedy_digits"
            "[Morphism(p=3, q=2, family=<Family.SIMPLE: 'simple'>)]", NUMERATION_DIGEST)),
    # a split's far estimate left to the eight single steps alone
    Mutant("jump-dropped", "src/parryac/numeration.py",
           "jump = max(_quotient(rest, u, scale), -m) if not -u <= rest < u else 0",
           "jump = 0",
           ("tests/test_numeration.py::test_split_jump_bound_is_m_places_and_eight[0-True-1]",
            "tests/test_numeration.py::test_last_split_estimates_within_the_jump_bound"
            "[Morphism(p=1000000, q=1, family=<Family.NONSIMPLE: 'nonsimple'>)]")),
    # the same digits from estimates 3 high, by a jump of 3 list-only steps at every node
    Mutant("split-estimate-three-high", "src/parryac/numeration.py",
           "m = _quotient(x, u, scale)",
           "m = _quotient(x, u, scale) + 3",
           ("tests/test_numeration.py::test_split_corrections_take_about_one_step_per_node",)),
)

#: Seconds before a pytest run counts as not killing its mutant.
TIMEOUT_S = 600


def _copy(into: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, into / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy2(ROOT / "pyproject.toml", into / "pyproject.toml")


def _pytest(where: Path, tests, *options: str) -> tuple[int, str]:
    """pytest's exit status on the copy at `where`, and its first failed test or last line."""
    env = {**os.environ, "PYTHONPATH": str(where / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    # plain asserts: pytest's diff of two long outputs can take minutes
    command = [sys.executable, "-m", "pytest", "-q", "-rf", "--assert=plain",
               "-p", "no:cacheprovider", *options, *tests]
    try:
        done = subprocess.run(command, cwd=where, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1, f"no result in {TIMEOUT_S} s"
    lines = done.stdout.splitlines() or [""]
    failed = [line[7:].split(" - ")[0] for line in lines if line.startswith("FAILED ")]
    return done.returncode, (failed or lines[-1:])[0][:160]


def main(names: list[str]) -> int:
    unknown = set(names) - {mutant.name for mutant in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [mutant for mutant in MUTANTS if not names or mutant.name in names]
    failures = []  # "unmutated" and every mutant not killed
    with tempfile.TemporaryDirectory(prefix="parryac-mutants-") as scratch:
        where = Path(scratch)
        _copy(where)
        tests = sorted({test for mutant in chosen for test in mutant.tests})
        began = time.perf_counter()
        code, line = _pytest(where, tests)
        print(f"unmutated: {'pass' if code == 0 else f'FAIL (pytest exit {code}): {line}'}"
              f"  {time.perf_counter() - began:.1f} s", flush=True)
        if code != 0:
            failures.append("unmutated")
        for mutant in chosen:
            target = where / mutant.path
            original = target.read_text()
            began = time.perf_counter()
            if original.count(mutant.old) != 1:
                outcome = f"STALE: old text occurs {original.count(mutant.old)} times"
            else:
                target.write_text(original.replace(mutant.old, mutant.new))
                try:
                    code, line = _pytest(where, mutant.tests, "-x")
                finally:
                    target.write_text(original)
                outcome = (f"killed by {line}" if code == 1
                           else f"NOT KILLED (pytest exit {code}): {line}")
            print(f"{mutant.name}: {outcome}  {time.perf_counter() - began:.1f} s", flush=True)
            if not outcome.startswith("killed"):
                failures.append(mutant.name)
    survivors = len(failures) - ("unmutated" in failures)
    print(f"{len(chosen) - survivors} of {len(chosen)} mutants killed"
          + (f"; failed: {', '.join(failures)}" if failures else ""))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
