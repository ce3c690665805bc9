"""Traced stand-in for `python -m parryac.cli`.

    python3 perfbench/traced_cli.py <parryac cli arguments>

Imports `parryac.cli`, installs the span wrappers, runs `cli.main` on the
arguments and exits with its code; the program's stdout is untouched.  On
stderr it writes one line, after `spans.REPORT_MARKER`, with the import
time, whether numpy was loaded by that import, the time spent in `main`
and the trace.
"""

from __future__ import annotations

import json
import sys
import time

import spans


def main() -> int:
    start = time.perf_counter()
    import parryac.cli
    imported = time.perf_counter()
    numpy_loaded = int("numpy" in sys.modules)
    spans.start()
    entered = time.perf_counter()
    code = parryac.cli.main(sys.argv[1:])
    main_s = time.perf_counter() - entered
    report = {"import_s": imported - start, "numpy_loaded": numpy_loaded,
              "main_s": main_s, "trace": spans.stop()}
    sys.stdout.flush()
    print(spans.REPORT_MARKER + json.dumps(report), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
