"""Smoke test of the benchmark itself; run from the repository root.

    python3 perfbench/smoke.py

1. Each workload's output check passes on real output from one small
   round, and fails once a wrong value is planted in that output.
2. A one-second run of every workload, untraced and traced, ends with the
   result line: exactly the metrics BENCHMARK.json names
   for that mode, each with its unit, and all outputs correct.
3. In a directory holding only BENCHMARK.json and the benchmark, the run
   exits nonzero without printing a result.

Exits 0 when every step passes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import run
from workloads import BASELINE, Cli, HugeN, Range, Verify

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def run_round(workload) -> None:
    workload.setup()
    for _cell, op in workload.round():
        workload.reset()
        op()


def planted_checks() -> None:
    class SmallRange(Range):
        N_END, LONG_N_END, ORACLE_SAMPLE, LONG_SAMPLE = 60, 400, 5, 30

    sample = SmallRange(1)
    run_round(sample)
    expect(sample.check() == [], "range: check passes on real output")
    for cell in ("-".join(map(str, BASELINE[1])), sample.long_cell):
        lines, kept = sample.kept[cell]
        number = sorted(kept)[-2]
        n, value, method = kept[number].split(",")
        planted = {**kept, number: f"{n},{int(value) + 1},{method}"}
        sample.kept[cell] = (lines, planted)
        expect(sample.check() != [], f"range: planted wrong value in {cell} is caught")
        sample.kept[cell] = (lines, kept)

    huge = HugeN(1)
    huge.inputs = [item for item in huge.inputs if item[1] < 1000]
    huge.values = {i: set() for i in range(len(huge.inputs))}
    run_round(huge)
    expect(huge.check() == [], "huge_n: check passes on real output")
    huge.values[0] = {next(iter(huge.values[0])) + 1}
    expect(huge.check() != [], "huge_n: planted wrong value is caught")

    verify = Verify(1)
    verify.n_max = 30
    run_round(verify)
    expect(verify.check() == [], "verify: check passes on real output")
    spec, code, _ = verify.results[0]
    verify.results[0] = (spec, code, "OK 29 checked\n")
    expect(verify.check() != [], "verify: planted wrong output is caught")

    cli = Cli(1)
    run_round(cli)
    expect(cli.check() == [], "cli: check passes on real output")
    index = next(i for i, (_, code, _) in enumerate(cli.results) if code == 0)
    argv, code, out = cli.results[index]
    cli.results[index] = (argv, code, out.replace("1", "2", 1) if "1" in out else "x" + out)
    expect(cli.check() != [], "cli: planted wrong output is caught")


def result_line(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def full_runs() -> None:
    with open("BENCHMARK.json") as spec_file:
        spec = json.load(spec_file)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, timeout=180)
            what = f"{workload} trace {trace}"
            result = result_line(done.stdout)
            if done.returncode != 0 or result is None or "metrics" not in result:
                expect(False, f"{what}: exit {done.returncode}\n{done.stderr[-1000:]}")
                continue
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{what}: result keys")
            expect(result["correct"] is True and result["attempted"] >= 1,
                   f"{what}: outputs correct, {result['failed']} of {result['attempted']} refused")
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == wanted, f"{what}: every {section} metric with its unit")
            expect(all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                       for m in result["metrics"].values()), f"{what}: values are numbers")


def bare_directory() -> None:
    with tempfile.TemporaryDirectory() as bare:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree("perfbench", os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "range", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    expect(done.returncode != 0 and result_line(done.stdout) is None,
           "without the package: nonzero exit and no result")


def main() -> int:
    os.environ.update(run.child_env())
    sys.path.insert(0, os.path.abspath("src"))
    planted_checks()
    full_runs()
    bare_directory()
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
