"""One workload in one fresh interpreter, single-threaded.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode MODE

MODE is `setup` (set up, then stop), `measure` (set up, run whole rounds
of operations until S seconds have passed, check the outputs; each call is
reported in order as its cell, time, units and outcome, and the workload's
reference is timed before every call) or `trace` (as measure, with the span
wrappers installed around the timed region only).  The last line of stdout
is one JSON object; `ready` is the perf_counter reading at the end of
set-up, which the parent compares with its own reading at spawn time (both
are CLOCK_MONOTONIC on Linux).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

import spans
from workloads import WORKLOADS


def _threads() -> int | None:
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _package_errors() -> list[str]:
    """The measured package must be the checkout's own src/parryac."""
    import parryac
    src = os.path.abspath("src") + os.sep
    if not os.path.abspath(parryac.__file__).startswith(src):
        return [f"parryac was imported from {parryac.__file__}, not from {src}"]
    return []


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=["setup", "measure", "trace"])
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    clock = time.perf_counter
    ready = clock()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    if args.mode == "trace":
        workload.traced = True
        spans.start()
    calls: list[tuple[str, float, int, bool]] = []
    reference: list[float] = []
    rounds = 0
    refusals: list[str] = []
    start = clock()
    while True:
        for cell, op in workload.round():
            workload.reset()
            reference.append(workload.time_reference())
            began = clock()
            try:
                ok, done = op()
            except Exception:  # a refused operation: counted, and the run goes on
                ok, done = False, 0
                if len(refusals) < 5:
                    refusals.append(traceback.format_exc(limit=3))
            calls.append((cell, clock() - began, done, bool(ok)))
        rounds += 1
        if clock() - start >= args.seconds:
            break
    trace = None
    if args.mode == "trace":
        trace = spans.merge([spans.stop()] + [s for s in [workload.trace_snapshot()] if s])
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if workload.rss_of_children
                               else resource.RUSAGE_SELF)
    threads = _threads()

    errors = _package_errors() + workload.check()
    numpy = sys.modules.get("numpy")
    print(json.dumps({
        "ready": ready,
        "calls": calls,
        "reference_s": reference,
        "attempted": len(calls),
        "failed": sum(not ok for *_, ok in calls),
        "rounds": rounds,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "threads": threads,
        "errors": errors,
        "refusals": refusals,
        "digest": workload.digest(),
        "trace": trace,
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "numpy": getattr(numpy, "__version__", None),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
