"""The four benchmark workloads: inputs, operations and output checks.

Each workload draws its inputs from the seed alone, so the same seed gives
the same inputs.  `setup` imports the package, builds the morphisms and
warms up; `round` returns one round of timed operations as (cell, call)
pairs, where a cell names the same work wherever it recurs; `check` runs
after the timed region and returns the errors it found.  A call returns
(ok, units): ok is False when the program refused it (nonzero exit or
exception), and units is the number of n it completed, 0 when refused.

Large n are built arithmetically and recorded by digit count and residue,
never through str(n), so no process crosses Python's int-string limit on
the benchmark's behalf.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import spans

#: The three morphisms of the ROADMAP baseline table.
BASELINE = (("nonsimple", 3, 1), ("simple", 3, 2), ("simple", 5, 5))

#: The acceptance grid p <= 5: simple p >= q >= 1 (Sturmian q = 1 included)
#: and non-simple p > q >= 1.
GRID = tuple(("simple", p, q) for p in range(1, 6) for q in range(1, p + 1)) + tuple(
    ("nonsimple", p, q) for p in range(2, 6) for q in range(1, p))

RESIDUE = (1 << 61) - 1


def _family_args(spec) -> list[str]:
    family, p, q = spec
    return ["--family", family, "--p", str(p), "--q", str(q)]


def _morphism(spec):
    from parryac import make_morphism
    return make_morphism(spec[1], spec[2], spec[0])


def _has_extremal_words(m) -> bool:
    return not (m.family.value == "simple" and m.q == 1)


def _value_errors(label: str, m, n: int, value: int) -> list[str]:
    """A closed-form value must match the prefix-difference route and lie
    in [2, max AC]."""
    from parryac import ac_via_prefix_counts, max_ac
    errors = []
    if not 2 <= value <= max_ac(m):
        errors.append(f"{label}: AC={value} outside [2, {max_ac(m)}]")
    if _has_extremal_words(m):
        expected = ac_via_prefix_counts(m, n)
        if value != expected:
            errors.append(f"{label}: AC={value}, prefix difference gives {expected}")
    return errors


def cold_caches() -> None:
    """Empty the package's memo tables, as in a fresh `parryac` process.

    Clears every functools cache and every private module-level dict named
    as a cache or stream buffer, so caches added later are emptied too.
    """
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "parryac" or name.startswith("parryac.")):
            continue
        for attr, value in list(vars(mod).items()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
            elif (isinstance(value, dict) and attr.startswith("_")
                  and ("cache" in attr or "stream" in attr)):
                value.clear()
    spans.forget_words()


_DOCUMENT = {"rows": [{"n": i, "v": [i, 2 * i, str(i)], "m": "closed_form"} for i in range(300)]}
_ROW = re.compile(r"(\d+),(\d+),(\w+)")


def reference_kernel() -> int:
    """Fixed pure-Python work, timed beside the program to gauge host speed.

    It never changes, so a change in its time is a change in the host: on
    shared machines, contention from other tenants slows every process, for
    seconds to minutes at a time.  Like the program, it spreads its time
    over many Python-level calls, big-int arithmetic, containers and string
    formatting (fractions, json, re), so contention slows it about as much;
    a tight arithmetic loop slows far less than the program does.
    """
    total = Fraction(0)
    for i in range(1, 40):
        total += Fraction(i, i * i + 1)
    rows = json.loads(json.dumps(_DOCUMENT))["rows"]
    text = ",".join(f"{r['n']},{r['v'][1]},{r['m']}" for r in rows)
    return len(_ROW.findall(text)) + total.denominator % 7


def time_kernel() -> float:
    # no collection inside: its cost would depend on the program's heap
    enabled = gc.isenabled()
    gc.disable()
    began = time.perf_counter()
    reference_kernel()
    elapsed = time.perf_counter() - began
    if enabled:
        gc.enable()
    return elapsed


class HashSink(io.TextIOBase):
    """Text sink that hashes what it is given and counts lines.

    It keeps the text of the lines whose numbers (from 0) are in `keep`,
    so a long output can be checked on a sample without holding it all.
    """

    def __init__(self, keep=()):
        self.hash = hashlib.sha256()
        self.lines = 0
        self.keep = keep
        self.kept: dict[int, str] = {}

    def write(self, text: str) -> int:
        self.hash.update(text.encode())
        start = 0
        while True:
            end = text.find("\n", start)
            if self.lines in self.keep:
                piece = text[start:] if end < 0 else text[start:end]
                self.kept[self.lines] = self.kept.get(self.lines, "") + piece
            if end < 0:
                return len(text)
            self.lines += 1
            start = end + 1


class Workload:
    name = ""
    why = ""
    #: peak_rss_mb is the largest child process's, not this process's
    rss_of_children = False
    #: Percentile reported as the latency tail: the highest of run.TAIL_LADDER
    #: with at least ten calls beyond it even when contention halves the
    #: calls a run makes.
    tail = 90
    #: Time of one reference on a quiet core of the reference host (Intel
    #: Xeon, Python 3.11.7); calls are scaled by it over the reference times
    #: measured beside them.
    reference_s = 0.8e-3

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}-{seed}")
        self.traced = False

    def setup(self) -> None:
        raise NotImplementedError

    def reset(self) -> None:
        """Runs untimed before every operation."""

    def time_reference(self) -> float:
        """One timing of fixed work that gauges how fast the host is now."""
        return time_kernel()

    def round(self) -> list[tuple[str, object]]:
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    def digest(self) -> str:
        raise NotImplementedError

    def trace_snapshot(self) -> dict | None:
        """Spans gathered outside this process, if any."""
        return None


class Range(Workload):
    name = "range"
    why = ("Many calls at small consecutive n through `parryac ac --n 1 --n-end N --format csv`. "
           "Per-call overhead dominates: numeration (index_for, normal_u_rep), extremal (seven "
           "O(J) stage-length sums per simple n) and complexity; big-int arithmetic is "
           "negligible and words and oracle do no work. Consecutive n share most of their "
           "digits, so the range engine and a per-morphism table should show here. One call "
           "per run covers n = 1..10^5, so a range engine that streams shows in peak_rss_mb.")

    #: Each round runs the three baseline morphisms at n = 1..~N_END.  One
    #: such call takes about 60 ms, so a 20 s run makes some 250 calls: enough
    #: for a 90th-percentile tail with more than ten calls beyond it.
    N_END = 2000
    #: Once per run, first, one call at the ROADMAP's range traffic,
    #: n = 1..~10^5, for the cheapest baseline morphism (about 3 s).  Today
    #: `_cmd_ac` holds all its rows in one list, some 15 MB of a 50 MB
    #: process, so a range engine that streams shows in peak_rss_mb.
    LONG_N_END = 100_000
    LONG_SPEC = BASELINE[0]
    ORACLE_SAMPLE = 20
    #: Rows of the long call kept and checked, beside its row count and digest.
    LONG_SAMPLE = 300

    def __init__(self, seed: int):
        super().__init__(seed)
        self.cells = {}  # cell -> (spec, n_end)
        for spec in BASELINE:
            self.cells["-".join(map(str, spec))] = (spec, self._jitter(self.N_END))
        self.long_cell = "long-" + "-".join(map(str, self.LONG_SPEC))
        self.cells[self.long_cell] = (self.LONG_SPEC, self._jitter(self.LONG_N_END))
        self.samples = {cell: sorted(self.rng.sample(range(1, min(n_end, self.N_END) + 1),
                                                     self.ORACLE_SAMPLE))
                        for cell, (_, n_end) in self.cells.items()}
        long_end = self.cells[self.long_cell][1]
        self.keep = {cell: range(n_end + 1) for cell, (_, n_end) in self.cells.items()}
        sampled = self.rng.sample(range(1, long_end + 1), self.LONG_SAMPLE)
        self.keep[self.long_cell] = {0, long_end, *self.samples[self.long_cell], *sampled}
        self.digests: dict[str, set[str]] = {cell: set() for cell in self.cells}
        self.kept: dict[str, tuple[int, dict[int, str]]] = {}  # cell -> (lines, kept lines)
        self.long_done = False

    def _jitter(self, n: int) -> int:
        return self.rng.randint(n - n // 50, n + n // 50)

    def _argv(self, spec, n_end: int) -> list[str]:
        return ["ac", *_family_args(spec), "--n", "1", "--n-end", str(n_end), "--format", "csv"]

    def setup(self) -> None:
        from parryac import cli
        self.cli = cli
        self.morphisms = {spec: _morphism(spec) for spec in BASELINE}
        for spec in BASELINE:
            with contextlib.redirect_stdout(HashSink()):
                cli.main(self._argv(spec, 50))

    def round(self) -> list[tuple[str, object]]:
        order = [cell for cell in self.cells if cell != self.long_cell]
        self.rng.shuffle(order)
        if not self.long_done:
            self.long_done = True
            order.insert(0, self.long_cell)
        return [(cell, lambda cell=cell: self._call(cell)) for cell in order]

    def _call(self, cell: str):
        spec, n_end = self.cells[cell]
        # every call keeps the same lines, so every call does the same sink work
        sink = HashSink(keep=self.keep[cell])
        with contextlib.redirect_stdout(sink):
            code = self.cli.main(self._argv(spec, n_end))
        if code != 0:
            return False, 0
        self.digests[cell].add(sink.hash.hexdigest())
        self.kept.setdefault(cell, (sink.lines, sink.kept))
        return True, sink.lines - 1

    def check(self) -> list[str]:
        from parryac import oracle_ac
        errors = []
        for cell, (spec, n_end) in self.cells.items():
            m = self.morphisms[spec]
            if len(self.digests[cell]) > 1:
                errors.append(f"range {cell}: output differs between calls")
            if cell not in self.kept:
                continue
            lines, kept = self.kept[cell]
            if kept.get(0) != "n,ac,method" or lines != n_end + 1:
                errors.append(f"range {cell}: bad header or {lines - 1} rows for n_end={n_end}")
                continue
            values = {}
            for number in sorted(kept.keys() - {0}):
                line = kept[number]
                n_text, value_text, method = line.split(",")
                n, value = int(n_text), int(value_text)
                values[n] = value
                if n != number or method not in ("closed_form", "sturmian"):
                    errors.append(f"range {cell}: bad row {line!r}")
                    break
                errors += _value_errors(f"range {cell} n={n}", m, n, value)
            for n in self.samples[cell]:
                if values.get(n) != oracle_ac(m, n).ac:
                    errors.append(f"range {cell} n={n}: AC={values.get(n)}, oracle disagrees")
        return errors

    def digest(self) -> str:
        joined = "".join(min(self.digests[cell], default="") for cell in self.cells)
        return hashlib.sha256(joined.encode()).hexdigest()[:16]


class HugeN(Workload):
    name = "huge_n"
    why = ("Few library ac() calls at n of 50 to 10,000 decimal digits, dominated by big-int "
           "divmod in normal_u_rep and by the U-table. Same numeration layer as `range`, used "
           "the opposite way: divide-and-conquer digits should show here, the range engine "
           "should not, and a table change that costs time or memory here shows.")

    #: Decimal sizes per morphism and round.  Sizes differ tenfold, so calls
    #: sort by size class first and by morphism within a class.  With these
    #: weights the median falls mid-way into the fastest morphism's 2000-digit
    #: calls and the 90th percentile mid-way into the middle morphism's
    #: 10000-digit calls, away from the edges where it would jump.
    SIZES = (50, 500, 2000, 2000, 10000)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.inputs = []  # (spec, digit count, n)
        for spec in BASELINE:
            for size in self.SIZES:
                digits = size + self.rng.randint(-(size // 100), size // 100)
                self.inputs.append((spec, digits, self.rng.randrange(10 ** (digits - 1), 10 ** digits)))
        self.values: dict[int, set[int]] = {i: set() for i in range(len(self.inputs))}

    def setup(self) -> None:
        import parryac
        self.ac = parryac.ac
        self.morphisms = {spec: _morphism(spec) for spec in BASELINE}
        for spec in BASELINE:
            largest = max((n for s, _, n in self.inputs if s == spec))
            parryac.ac(self.morphisms[spec], largest)

    def round(self) -> list[tuple[str, object]]:
        order = list(range(len(self.inputs)))
        self.rng.shuffle(order)
        return [(f"{i}:{'-'.join(map(str, self.inputs[i][0]))}:{self.inputs[i][1]}d",
                 lambda i=i: self._call(i)) for i in order]

    def _call(self, i: int):
        spec, _, n = self.inputs[i]
        self.values[i].add(self.ac(self.morphisms[spec], n).value)
        return True, 1

    def check(self) -> list[str]:
        errors = []
        for i, (spec, digits, n) in enumerate(self.inputs):
            label = f"huge_n {spec} {digits} digits, n mod 2^61-1 = {n % RESIDUE}"
            if len(self.values[i]) > 1:
                errors.append(f"{label}: values differ between rounds")
            for value in self.values[i]:
                errors += _value_errors(label, self.morphisms[spec], n, value)
        return errors

    def digest(self) -> str:
        text = ";".join(f"{spec}:{digits}:{n % RESIDUE}:{sorted(self.values[i])}"
                        for i, (spec, digits, n) in enumerate(self.inputs))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


class Verify(Workload):
    name = "verify"
    why = ("`parryac verify` over the whole acceptance grid p <= 5 with cold caches, as a user "
           "pays on every run. The oracle does most of the work (prefix doubling scans at least "
           "3 times per n), then word generation; the closed form does little. The certified "
           "oracle should show here and not on range or huge_n.")

    #: Half the ROADMAP's oracle traffic (n = 1..2000).  At 2000 a round of
    #: 25 calls takes 8 to 12 s, so a 20 s run held only 50 to 75 calls and
    #: its tail moved by 10% between seeds.  At 1000 a round takes about 3 s,
    #: and the largest word, (5,5) at 131,072 letters, is still some 4 MB of
    #: a 39 MB process, so word memory shows in peak_rss_mb.
    N_MAX = 1000
    tail = 75  # 100 to 175 calls a run; p90 would fall back when contention halves them

    def __init__(self, seed: int):
        super().__init__(seed)
        self.n_max = self.rng.randint(self.N_MAX - self.N_MAX // 50, self.N_MAX + self.N_MAX // 50)
        self.results: list[tuple[tuple, int, str]] = []

    def _argv(self, spec, n_max: int) -> list[str]:
        return ["verify", *_family_args(spec), "--n-max", str(n_max)]

    def setup(self) -> None:
        from parryac import cli
        self.cli = cli
        for spec in (GRID[0], BASELINE[0], BASELINE[1]):
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(self._argv(spec, 20))

    def reset(self) -> None:
        cold_caches()

    def round(self) -> list[tuple[str, object]]:
        order = list(GRID)
        self.rng.shuffle(order)
        return [("-".join(map(str, spec)), lambda spec=spec: self._call(spec)) for spec in order]

    def _call(self, spec):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(self._argv(spec, self.n_max))
        self.results.append((spec, code, out.getvalue()))
        # exit 1 is a wrong value, reported by check(); other codes are refusals
        ok = code in (0, 1)
        return ok, self.n_max if ok else 0

    def check(self) -> list[str]:
        expected = f"OK {self.n_max} checked\n"
        return [f"verify {spec}: exit {code}, output {out[:200]!r}"
                for spec, code, out in self.results
                if code in (0, 1) and (code, out) != (0, expected)]

    def digest(self) -> str:
        text = ";".join(sorted({f"{spec}:{code}:{out}" for spec, code, out in self.results}))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


class Cli(Workload):
    name = "cli"
    why = ("Sequential `python -m parryac.cli` processes, one at a time: short ac, urep, maxac, "
           "word and oracle commands, plus ac at an n of more than 4,300 digits. Process start "
           "and imports dominate, so lazy imports should show here and in setup_s only.")

    rss_of_children = True
    tail = 75  # 55 to 110 calls a run
    #: The reference is a bare interpreter start, `python -c pass`: process
    #: start and imports slow under contention with it (fitted slope 0.9 to
    #: 1.0), not with the in-process kernel (slope 0.3).  Its time on a
    #: quiet core is taken as 60 ms.
    reference_s = 0.06
    TRACED_CLI = os.path.join(os.path.dirname(os.path.abspath(__file__)), "traced_cli.py")
    LONG_DIGITS = (4301, 5000)
    TIMEOUT_S = 60

    def __init__(self, seed: int):
        super().__init__(seed)
        digits = self.rng.randint(*self.LONG_DIGITS)
        self.long_n = str(self.rng.randint(1, 9)) + "".join(
            self.rng.choice("0123456789") for _ in range(digits - 1))
        self.long_spec = self.rng.choice([s for s in GRID if s[0] == "nonsimple" or s[2] > 1])
        self.results: list[tuple[list[str], int, str]] = []
        self.snapshots: list[dict] = []

    def setup(self) -> None:
        import parryac.cli  # noqa: F401  (the import every timed process pays)

    def round(self) -> list[tuple[str, object]]:
        rng = self.rng
        commands = [
            ("ac", ["ac", *_family_args(rng.choice(GRID)), "--n", str(rng.randint(1, 10 ** 6))]),
            ("urep", ["urep", *_family_args(rng.choice(GRID)),
                      "--n", str(rng.randint(0, 10 ** 12))]),
            ("maxac", ["maxac", *_family_args(rng.choice(GRID))]),
            ("word", ["word", *_family_args(rng.choice(GRID)), "--which", "ubeta",
                      "--len", str(rng.randint(100, 1000))]),
            ("oracle", ["oracle", *_family_args(rng.choice(GRID)),
                        "--n", str(rng.randint(1, 200))]),
            ("ac_long", ["ac", *_family_args(self.long_spec), "--n", self.long_n]),
        ]
        rng.shuffle(commands)
        return [(cell, lambda argv=argv: self._call(argv)) for cell, argv in commands]

    def _call(self, argv: list[str]):
        program = [self.TRACED_CLI] if self.traced else ["-m", "parryac.cli"]
        done = subprocess.run([sys.executable, *program, *argv],
                              capture_output=True, text=True, timeout=self.TIMEOUT_S)
        self.results.append((argv, done.returncode, done.stdout))
        if self.traced:
            report = spans.read_report(done.stderr)
            if report is not None:
                self.snapshots.append(report["trace"])
        ok = done.returncode == 0
        return ok, 1 if ok else 0

    def time_reference(self) -> float:
        began = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=self.TIMEOUT_S)
        return time.perf_counter() - began

    def trace_snapshot(self) -> dict | None:
        return spans.merge(self.snapshots)

    @staticmethod
    def _decimal(text: str) -> int:
        # chunked so no single conversion crosses the int-string limit
        value = 0
        for start in range(0, len(text), 1000):
            chunk = text[start:start + 1000]
            value = value * 10 ** len(chunk) + int(chunk)
        return value

    def _expected(self, argv: list[str]) -> str:
        from parryac import (ac, balance_bound, fixed_point_prefix, max_ac, normal_u_rep,
                             oracle_ac)
        command, values = argv[0], dict(zip(argv[1::2], argv[2::2]))
        m = _morphism((values["--family"], int(values["--p"]), int(values["--q"])))
        if command == "ac":
            result = ac(m, self._decimal(values["--n"]))
            return f"{values['--n']} {result.value} {result.method}\n"
        if command == "urep":
            return ",".join(map(str, normal_u_rep(m, int(values["--n"])))) + "\n"
        if command == "maxac":
            return f"{max_ac(m)} {balance_bound(m)}\n"
        if command == "word":
            return fixed_point_prefix(m, int(values["--len"])) + "\n"
        interval = oracle_ac(m, int(values["--n"]))
        return (f"n={interval.n} min_b={interval.min_b} max_b={interval.max_b} ac={interval.ac} "
                f"prefix_len_used={interval.prefix_len_used} "
                f"stabilized={str(interval.stabilized).lower()}\n")

    def check(self) -> list[str]:
        errors = []
        expected: dict[tuple, str] = {}
        for argv, code, out in self.results:
            if code != 0:
                continue
            key = tuple(argv)
            if key not in expected:
                expected[key] = self._expected(argv)
            if out != expected[key]:
                errors.append(f"cli {' '.join(argv)[:120]}: output {out[:80]!r}, "
                              f"expected {expected[key][:80]!r}")
        return errors

    def digest(self) -> str:
        text = ";".join(sorted({f"{' '.join(argv)}:{code}:{out}"
                                for argv, code, out in self.results}))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


WORKLOADS = {w.name: w for w in (Range, HugeN, Verify, Cli)}
