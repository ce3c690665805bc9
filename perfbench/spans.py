"""Per-layer tracing installed from outside the package.

Wrappers are installed at run time around the public functions of each
parryac module.  Every module namespace that holds a wrapped function is
rebound, because the modules import names from each other directly
(`complexity` calls `normal_u_rep` through its own namespace, for example).

Each call records a span: its layer name, start, end and parent layer.
Spans are folded at once into per-(name, parent) aggregates of count,
total time and self time, so memory stays bounded over millions of calls.
Self time is a span's duration minus the time its child spans cover.

`USequence.row` is counted, not timed: every U lookup goes through it, and
a timed wrapper there would cost more than the lookup it measures.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

#: Prefix of the line a traced cli child writes to stderr.
REPORT_MARKER = "PERFBENCH-TRACE "

#: (module, function, layer).  Names missing from the package are skipped
#: and listed in the trace, so a layer that disappears reads as zero.
FUNCTION_SPANS = (
    ("numeration", "normal_u_rep", "numeration.normal_u_rep"),
    ("numeration", "prefix_b_count", "complexity.prefix_counts"),
    ("extremal", "wv_stage_length_simple", "extremal.stage_length"),
    ("extremal", "w_stage_length_nonsimple", "extremal.stage_length"),
    ("extremal", "choose_mn_simple", "extremal.choose"),
    ("extremal", "choose_k_nonsimple", "extremal.choose"),
    ("extremal", "v_b_count_simple", "complexity.prefix_counts"),
    ("extremal", "w_b_count_simple", "complexity.prefix_counts"),
    ("extremal", "w_b_count_nonsimple", "complexity.prefix_counts"),
    ("complexity", "ac", "complexity.ac"),
    ("complexity", "ac_simple", "complexity.ac"),
    ("complexity", "ac_nonsimple", "complexity.ac"),
    ("complexity", "ac_via_prefix_counts", "complexity.prefix_counts"),
    ("words", "fixed_point_prefix", "words.fixed_point_prefix"),
    ("words", "word_prefix", "words.fixed_point_prefix"),
    ("oracle", "parikh_extrema", "oracle.parikh_extrema"),
    ("oracle", "oracle_ac", "oracle.oracle_ac"),
    ("cli", "main", "cli.main"),
)

#: (module, class, method, layer) for timed methods.
METHOD_SPANS = (
    ("numeration", "USequence", "index_for", "numeration.index_for"),
)

#: (module, class, method, counter) for counted methods.
METHOD_COUNTS = (
    ("numeration", "USequence", "row", "numeration.u_lookups"),
)


def _package_modules() -> list:
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "parryac" or name.startswith("parryac."))]


class Tracer:
    """Span aggregates and counters for one process."""

    def __init__(self) -> None:
        self._stack: list[list] = []
        # (name, parent) -> [count, total_s, self_s]
        self.spans: dict[tuple[str, str | None], list] = {}
        self.counters: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._requested: dict[tuple, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    # --- wrappers ---------------------------------------------------------

    def _timed(self, name: str, fn, observe=None):
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                record = spans.get((name, parent))
                if record is None:
                    record = spans[(name, parent)] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += duration
                record[2] += duration - frame[1]
            if observe is not None:
                observe(parent, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _counted(self, counter: str, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _observe_scan(self, parent, args, result) -> None:
        # one oracle scan: the letters it read count toward letters_scanned
        if parent == "oracle.oracle_ac":
            self.counters["oracle.letters_scanned"] += result.prefix_len_used

    def _observe_words(self, parent, args, result) -> None:
        # letters requested beyond the longest earlier request for that word
        if len(args) < 3:
            return
        key = (args[0], args[1])
        before = self._requested.get(key, 0)
        if args[2] > before:
            self.counters["words.letters_generated"] += args[2] - before
            self._requested[key] = args[2]

    def forget_words(self) -> None:
        """Word caches were emptied: later requests generate anew."""
        self._requested.clear()

    # --- install ----------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        names = {spec[0] for spec in FUNCTION_SPANS + METHOD_SPANS + METHOD_COUNTS}
        modules = {}
        for name in names:
            try:
                modules[name] = importlib.import_module(f"parryac.{name}")
            except ImportError:
                self.missing.append(f"parryac.{name}")
        observers = {"parikh_extrema": self._observe_scan, "word_prefix": self._observe_words}
        for module, func, layer in FUNCTION_SPANS:
            original = getattr(modules.get(module), func, None)
            if original is None:
                self.missing.append(f"{module}.{func}")
                continue
            self._rebind(original, self._timed(layer, original, observers.get(func)))
        for specs, wrap in ((METHOD_SPANS, self._timed), (METHOD_COUNTS, self._counted)):
            for module, cls_name, method, layer in specs:
                cls = getattr(modules.get(module), cls_name, None)
                original = vars(cls).get(method) if cls is not None else None
                if original is None:
                    self.missing.append(f"{module}.{cls_name}.{method}")
                    continue
                self._restore.append((cls, method, original))
                setattr(cls, method, wrap(layer, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def snapshot(self) -> dict:
        return {
            "spans": [[name, parent, *record] for (name, parent), record in self.spans.items()],
            "counters": dict(self.counters),
            "missing": list(self.missing),
        }


#: The tracer of this process, if one is installed.
ACTIVE: Tracer | None = None


def start() -> Tracer:
    global ACTIVE
    ACTIVE = Tracer()
    ACTIVE.install()
    return ACTIVE


def stop() -> dict:
    global ACTIVE
    tracer, ACTIVE = ACTIVE, None
    tracer.uninstall()
    return tracer.snapshot()


def forget_words() -> None:
    if ACTIVE is not None:
        ACTIVE.forget_words()


def merge(snapshots: list[dict]) -> dict:
    """Sum span aggregates and counters over several snapshots."""
    spans: dict[tuple, list] = {}
    counters: dict[str, int] = defaultdict(int)
    missing: set[str] = set()
    for snap in snapshots:
        for name, parent, count, total, self_s in snap["spans"]:
            record = spans.setdefault((name, parent), [0, 0.0, 0.0])
            record[0] += count
            record[1] += total
            record[2] += self_s
        for key, value in snap["counters"].items():
            counters[key] += value
        missing.update(snap["missing"])
    return {"spans": [[n, p, *r] for (n, p), r in spans.items()],
            "counters": dict(counters), "missing": sorted(missing)}


def layer_metrics(snap: dict, units: int) -> dict[str, float]:
    """Per-layer figures per unit of work (per n completed).

    The scan ratios are per oracle_ac call instead: one scan per call is
    the useful one, and the rest is what a certified prefix would save.
    """
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    scans = 0
    for name, parent, count, _total, own in snap["spans"]:
        calls[name] += count
        self_s[name] += own
        if name == "oracle.parikh_extrema" and parent == "oracle.oracle_ac":
            scans += count
    counters = snap["counters"]
    per = 1.0 / units
    oracle_calls = calls["oracle.oracle_ac"]
    return {
        "numeration.normal_u_rep.calls": calls["numeration.normal_u_rep"] * per,
        "numeration.normal_u_rep.self_s": self_s["numeration.normal_u_rep"] * per,
        "numeration.u_lookups": counters.get("numeration.u_lookups", 0) * per,
        "numeration.index_for.self_s": self_s["numeration.index_for"] * per,
        "extremal.stage_length.calls": calls["extremal.stage_length"] * per,
        "extremal.stage_length.self_s": self_s["extremal.stage_length"] * per,
        "extremal.choose.self_s": self_s["extremal.choose"] * per,
        "complexity.ac.self_s": self_s["complexity.ac"] * per,
        "complexity.prefix_counts.self_s": self_s["complexity.prefix_counts"] * per,
        "words.fixed_point_prefix.self_s": self_s["words.fixed_point_prefix"] * per,
        "words.letters_generated": counters.get("words.letters_generated", 0) * per,
        "oracle.scans_per_call": scans / oracle_calls if oracle_calls else 0.0,
        "oracle.letters_scanned_per_n": (counters.get("oracle.letters_scanned", 0) / oracle_calls
                                         if oracle_calls else 0.0),
        "oracle.parikh_extrema.self_s": self_s["oracle.parikh_extrema"] * per,
        "oracle.oracle_ac.self_s": self_s["oracle.oracle_ac"] * per,
        "cli.main.self_s": self_s["cli.main"] * per,
    }


def read_report(stderr: str) -> dict | None:
    """The report a traced cli child left on stderr, if any."""
    for line in reversed(stderr.splitlines()):
        if line.startswith(REPORT_MARKER):
            return json.loads(line[len(REPORT_MARKER):])
    return None
