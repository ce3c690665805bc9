"""parryac benchmark: one workload per invocation, from the repository root.

    python3 perfbench/run.py --workload {range,huge_n,verify,cli} --seed N --seconds S --trace {0,1}

With --trace 0 it prints the end-to-end metrics: set-up time (median over
several fresh interpreters), throughput, per-operation latency (median and
tail) and peak resident memory.  Times are scaled to a reference host by
fixed work timed beside the program (see `timing` and
`Workload.time_reference`); the scale factor and the set-up samples are in
the report line.  With
--trace 1 it runs the same work untraced and then traced, for half the
time each, and prints the per-layer metrics and the tracing overhead.
Every run checks the program's outputs; a wrong output makes "correct"
false.  The lines before the last are a readable report and a JSON record
of the environment; the last line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

Each workload runs in fresh interpreters started from here, with
`src/` of the current directory on PYTHONPATH, the int-string limit at
Python's default, and numeric libraries held to one thread.  Without
`src/parryac` in the current directory it exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_n_per_s": "n/s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "numeration.normal_u_rep.calls": "calls/n",
    "numeration.normal_u_rep.self_s": "s/n",
    "numeration.u_lookups": "calls/n",
    "numeration.index_for.self_s": "s/n",
    "extremal.stage_length.calls": "calls/n",
    "extremal.stage_length.self_s": "s/n",
    "extremal.choose.self_s": "s/n",
    "complexity.ac.self_s": "s/n",
    "complexity.prefix_counts.self_s": "s/n",
    "words.fixed_point_prefix.self_s": "s/n",
    "words.letters_generated": "letters/n",
    "oracle.scans_per_call": "ratio",
    "oracle.letters_scanned_per_n": "letters/n",
    "oracle.parikh_extrema.self_s": "s/n",
    "oracle.oracle_ac.self_s": "s/n",
    "cli.import_s": "s",
    "cli.numpy_loaded": "flag",
    "cli.main.self_s": "s/n",
    "cli.startup_s": "s",
    "cli.bare_python_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.untraced_round_s": "s",
}

#: Candidate tail percentiles.  Each workload names one (`Workload.tail`), so
#: every run reports the same percentile; a run with fewer than TAIL_BEYOND
#: calls above it reports the highest candidate that has that many instead.
TAIL_LADDER = (50, 75, 90, 99, 99.9)
TAIL_BEYOND = 10

#: Reference times, centred on a call, whose median scales that call.
REFERENCE_WINDOW = 15

SETUP_PROBES = 6        # set-up-only interpreters per run, half before and half after the measured one
PROCESS_PROBES = 3      # bare-python and traced-cli probes per traced run
DEADLINE_S = 170        # every child is stopped before this much time has passed
PROBE_ARGV = ["ac", "--family", "nonsimple", "--p", "3", "--q", "1", "--n", "7"]

_STARTED = time.perf_counter()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # the default int-string limit stays in force, so the cli defect shows
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    env["PYTHONPATH"] = os.path.abspath("src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _remaining() -> float:
    return max(1.0, DEADLINE_S - (time.perf_counter() - _STARTED))


def run_child(argv: list[str], env: dict[str, str]) -> tuple[float, subprocess.CompletedProcess]:
    """Spawn time (perf_counter) and the finished process."""
    spawned = time.perf_counter()
    done = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=_remaining())
    return spawned, done


def run_worker(args, mode: str, seconds: float, env: dict[str, str]) -> dict:
    spawned, done = run_child([os.path.join(HERE, "worker.py"), "--workload", args.workload,
                               "--seed", str(args.seed), "--seconds", str(seconds),
                               "--mode", mode], env)
    if done.returncode != 0:
        raise RuntimeError(f"{mode} worker exited {done.returncode}:\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def tail_percentile(count: int, preferred: float) -> float:
    fits = [p for p in TAIL_LADDER
            if count - max(1, math.ceil(p / 100 * count)) >= TAIL_BEYOND]
    if preferred in fits:
        return preferred
    return fits[-1] if fits else TAIL_LADDER[0]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of a git checkout in the current directory, read without git."""
    try:
        with open(os.path.join(".git", "HEAD")) as head:
            ref = head.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(".git", ref[5:])) as target:
            return target.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def timing(result: dict, workload) -> dict:
    """Throughput and per-call latency percentiles, scaled to the reference host.

    The workload's reference is timed before every call.  Each call is
    scaled by `workload.reference_s` over the median of the REFERENCE_WINDOW
    reference times nearest to it, so a slow spell of the host slows the call and its
    references alike and cancels out, while one preempted reference cannot
    skew a call.  Throughput is the n completed over the sum of the scaled
    call times; the median and the tail are nearest-rank percentiles over
    the scaled calls, so a change that slows one call in ten moves the
    throughput and the tail even where the median stays.
    """
    references = result["reference_s"]
    nominal = workload.reference_s
    half = REFERENCE_WINDOW // 2
    scaled = []
    for i, (_cell, seconds, _units, _ok) in enumerate(result["calls"]):
        nearby = references[max(0, i - half):i + half + 1]
        scaled.append(seconds * nominal / statistics.median(nearby))
    total_s = sum(scaled)
    units = sum(c[2] for c in result["calls"])
    tail = tail_percentile(len(scaled), workload.tail)
    cells: dict[str, list[float]] = {}
    for (cell, *_), seconds in zip(result["calls"], scaled):
        cells.setdefault(cell, []).append(seconds)
    return {"total_s": total_s, "units": units, "throughput": units / total_s,
            "calls": len(scaled), "p50": percentile(scaled, 50), "tail": percentile(scaled, tail),
            "tail_percentile": tail,
            "host_factor": nominal / statistics.median(references),
            "cell_median_ms": {cell: statistics.median(v) * 1000 for cell, v in cells.items()}}


def end_to_end(args, env) -> tuple[dict, dict]:
    probes = [run_worker(args, "setup", 0, env) for _ in range(SETUP_PROBES // 2)]
    result = run_worker(args, "measure", args.seconds, env)
    probes += [result] + [run_worker(args, "setup", 0, env) for _ in range(SETUP_PROBES // 2)]
    summary = timing(result, WORKLOADS[args.workload])
    # Every set-up is scaled by one factor, from all the references of the
    # measured run: the probes run just before and after it, and a few
    # references per probe would gauge the host too roughly.
    setups = [p["setup_s"] * summary["host_factor"] for p in probes]
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_n_per_s": summary["throughput"],
        "latency_ms_p50": summary["p50"] * 1000,
        "latency_ms_tail": summary["tail"] * 1000,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = {"setup_samples_s": setups, "setup_raw_s": [p["setup_s"] for p in probes],
             "host_factor": summary["host_factor"], "tail_percentile": summary["tail_percentile"],
             "latency_samples": summary["calls"], "rounds": result["rounds"],
             "cell_median_scaled_ms": summary["cell_median_ms"]}
    return {"metrics": metrics, "runs": [result], "notes": notes}, END_TO_END_UNITS


def per_layer(args, env) -> tuple[dict, dict]:
    base = run_worker(args, "measure", args.seconds / 2, env)
    traced = run_worker(args, "trace", args.seconds / 2, env)
    bare = [time.perf_counter() - spawned
            for spawned, _ in (run_child(["-c", "pass"], env) for _ in range(PROCESS_PROBES))]
    probes = []
    for _ in range(PROCESS_PROBES):
        spawned, done = run_child([os.path.join(HERE, "traced_cli.py"), *PROBE_ARGV], env)
        wall = time.perf_counter() - spawned
        report = spans.read_report(done.stderr)
        if done.returncode != 0 or report is None:
            raise RuntimeError(f"cli probe exited {done.returncode}:\n{done.stderr[-2000:]}")
        probes.append((wall, report))
    workload = WORKLOADS[args.workload]
    base_t, traced_t = timing(base, workload), timing(traced, workload)
    # a round of the untraced run, in scaled seconds, and the same n traced
    round_units = base_t["units"] / base["rounds"]
    base_round = round_units / base_t["throughput"]
    traced_round = round_units / traced_t["throughput"]
    metrics = spans.layer_metrics(traced["trace"], max(1, traced_t["units"]))
    metrics.update({
        "cli.import_s": statistics.median(r["import_s"] for _, r in probes),
        "cli.numpy_loaded": max(r["numpy_loaded"] for _, r in probes),
        "cli.startup_s": statistics.median(wall - r["main_s"] for wall, r in probes),
        "cli.bare_python_s": statistics.median(bare),
        "trace.overhead_s": traced_round - base_round,
        "trace.overhead_ratio": traced_round / base_round,
        "trace.untraced_round_s": base_round,
    })
    notes = {"missing_spans": traced["trace"]["missing"], "units": traced_t["units"],
             "rounds_untraced": base["rounds"], "rounds_traced": traced["rounds"],
             "overhead": f"{traced_round:.6g} s traced vs {base_round:.6g} s untraced per round"}
    return {"metrics": metrics, "runs": [base, traced], "notes": notes}, PER_LAYER_UNITS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "parryac", "__init__.py")):
        print("error: run from the repository root; src/parryac is not here", file=sys.stderr)
        return 2

    env = child_env()
    # compile the package once, so no timed interpreter pays for writing bytecode
    subprocess.run([sys.executable, "-c", "import parryac.cli"], env=env, check=True,
                   capture_output=True, timeout=_remaining())
    try:
        outcome, units = (per_layer if args.trace else end_to_end)(args, env)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    runs = outcome["runs"]
    errors = [e for run in runs for e in run["errors"]]
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    workload = WORKLOADS[args.workload]
    record = {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "failed_share": {"value": failed / attempted, "unit": "ratio",
                         "failed": failed, "attempted": attempted},
        "digest": runs[0]["digest"],
        "notes": outcome["notes"],
        "errors": errors[:20],
        "refusals": runs[0]["refusals"],
        "environment": {
            "python": platform.python_version(),
            "numpy": runs[0]["numpy"],
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "int_max_str_digits": runs[0]["int_max_str_digits"],
            "worker_threads": runs[0]["threads"],
            "git_commit": git_commit(),
        },
    }
    print(f"workload {args.workload} (seed {args.seed}, {args.seconds:g} s, trace {args.trace})")
    for name, value in outcome["metrics"].items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    print(f"  {'failed_share':34s} {failed / attempted:14.6g} ratio ({failed} of {attempted})")
    print(f"  {'digest':34s} {record['digest']:>14s}")
    for error in errors[:20]:
        print(f"  WRONG: {error}")
    print("report " + json.dumps(record))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in outcome["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
