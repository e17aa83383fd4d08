"""Spans around the public functions of each ramcirc layer.

A ``Tracer`` replaces each target function with a wrapper at every name
its callers look up: the attribute of every loaded ``ramcirc`` module
(and of the package) that holds the original, or the class attribute
for a method.  Each call records name, start, end and parent span into
flat arrays kept in memory until the run ends; leaving the ``with``
block puts every original back.  Self time is a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import importlib
import inspect
import math
import statistics
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Callable


def _member(args, kwargs, result):
    return result.member


def _escalated(args, kwargs, result):
    return result.escalated


def _digits(args, kwargs, result):
    _margin, digits, resolved = result
    return digits, resolved


def _kind(args, kwargs, result):
    return result.kind


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _class_clean(args, kwargs, result):
    ## sets in a class the oracle found clean, which it had to scan in full
    m, l = _arg(args, kwargs, 0, "m"), _arg(args, kwargs, 1, "l")
    return math.comb((m - 1) // 2, (l - 1) // 2) if result else 0


def _abelian_clean(args, kwargs, result):
    ## classes l0+2 .. hat_l passed, each one scanned in full
    m = math.prod(_arg(args, kwargs, 0, "group").orders)
    l0 = 2 * ((math.isqrt(4 * m) - 3) // 2) + 1
    return sum(math.comb((m - 1) // 2, (l - 1) // 2)
               for l in range(l0 + 2, result + 1, 2))


@dataclass(frozen=True)
class Target:
    """One traced function: its module, attribute path and what to note.

    note(args, kwargs, result) keeps a small summary of each call.
    """

    module: str
    attr: str
    note: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.module.rsplit('.', 1)[-1]}.{self.attr}"


TARGETS = (
    Target("ramcirc.bounds", "in_candidate_set", _member),
    Target("ramcirc.bounds", "trivial_bound"),
    Target("ramcirc.spectra", "window_eigenvalue"),
    Target("ramcirc.spectra", "is_ramanujan", _escalated),
    Target("ramcirc.numtheory", "factorize"),
    Target("ramcirc.numtheory", "is_prime"),
    Target("ramcirc.precision", "refine_margin", _digits),
    Target("ramcirc.classify", "classify", _kind),
    Target("ramcirc.classify", "scan_range"),
    Target("ramcirc.oracle", "hat_l_exhaustive"),
    Target("ramcirc.oracle", "class_all_ramanujan", _class_clean),
    Target("ramcirc.oracle", "class_max"),
    Target("ramcirc.abelian", "abelian_oracle", _abelian_clean),
    Target("ramcirc.abelian", "abelian_is_ramanujan"),
    Target("ramcirc.abelian", "AbelianGroup.spans"),
    Target("ramcirc.abelian", "abelian_hat_l"),
)


class Tracer:
    """Install span-recording wrappers; use as a context manager.

    Spans are recorded only while ``active`` is true, so the benchmark
    can run its own answer checks through the same functions untraced.
    """

    def __init__(self):
        self.targets = TARGETS
        self.active = False
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.notes: list = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self):
        try:
            for i, target in enumerate(self.targets):
                self._install(i, target)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self.active = False
        self._restore()
        return False

    def _install(self, index: int, target: Target) -> None:
        owner = importlib.import_module(target.module)
        *path, attr = target.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = inspect.getattr_static(owner, attr)
        wrapper = self._wrap(index, original, target)
        if path:
            owners = [owner]
        else:
            owners = [mod for key, mod in list(sys.modules.items())
                      if (key == "ramcirc" or key.startswith("ramcirc."))
                      and getattr(mod, attr, None) is original]
        for obj in owners:
            setattr(obj, attr, wrapper)
            self._patches.append((obj, attr, original))

    def _restore(self) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    def _wrap(self, index: int, fn, target: Target):
        note = target.note
        clock = time.perf_counter
        stack = self._stack
        name, start, end, parent, notes = (
            self.name, self.start, self.end, self.parent, self.notes)

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = len(start)
            name.append(index)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            notes.append(None)
            stack.append(span)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()
            if note is not None:
                notes[span] = note(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def by_target(self) -> dict[str, dict]:
        """Per target: call count, total self time, and per-span durations,
        self times and notes in recording order."""
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += duration[i]
        out = {t.name: {"calls": 0, "self_s": 0.0, "durations": [],
                        "selfs": [], "notes": []}
               for t in self.targets}
        for i in range(n):
            rec = out[self.targets[self.name[i]].name]
            rec["calls"] += 1
            rec["self_s"] += duration[i] - child[i]
            rec["durations"].append(duration[i])
            rec["selfs"].append(duration[i] - child[i])
            rec["notes"].append(self.notes[i])
        return out


## digit levels refine_margin can end at: the default policy starts at
## 50 digits for every m below 10^25 and doubles up to MAX_DIGITS = 400
DIGIT_LEVELS = (50, 100, 200, 400)
KINDS = ("small", "I", "II", "III", "outside_J", "other_composite")
KIND_P50 = ("outside_J", "I", "II", "other_composite")


def _clean_rate(rec) -> tuple[int, float]:
    ## total sets in the classes decided clean, per second of self time
    ## of the calls that decided at least one class clean
    sets, busy = 0, 0.0
    for clean, self_s in zip(rec["notes"], rec["selfs"]):
        if clean:
            sets += clean
            busy += self_s
    return sets, (sets / busy if busy > 0 else 0.0)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced pass, as name -> (value, unit)."""
    recs = tracer.by_target()
    out: dict[str, tuple[float, str]] = {}
    for name, rec in recs.items():
        out[f"{name}.calls"] = (rec["calls"], "count")
        out[f"{name}.self_s"] = (rec["self_s"], "s")

    icand = recs["bounds.in_candidate_set"]
    members = sum(1 for member in icand["notes"] if member)
    out["bounds.j_member_ratio"] = (
        members / icand["calls"] if icand["calls"] else 0.0, "ratio")

    out["spectra.is_ramanujan.escalated"] = (
        sum(1 for e in recs["spectra.is_ramanujan"]["notes"] if e), "count")

    refine = Counter(recs["precision.refine_margin"]["notes"])
    for d in DIGIT_LEVELS:
        out[f"precision.refine_margin.digits_{d}"] = (
            sum(c for (digits, _), c in refine.items() if digits == d), "count")
    out["precision.refine_margin.unresolved"] = (
        sum(c for (_, resolved), c in refine.items() if not resolved), "count")

    cls = recs["classify.classify"]
    per_kind: dict[str, list[float]] = {k: [] for k in KINDS}
    for kind, duration in zip(cls["notes"], cls["durations"]):
        if kind is not None:
            per_kind.setdefault(kind, []).append(duration)
    for kind in KINDS:
        out[f"classify.kind.{kind}.count"] = (len(per_kind[kind]), "count")
    for kind in KIND_P50:
        times = per_kind[kind]
        out[f"classify.kind.{kind}.p50_us"] = (
            statistics.median(times) * 1e6 if times else 0.0, "us")

    for layer, fn in (("oracle", "class_all_ramanujan"),
                      ("abelian", "abelian_oracle")):
        sets, rate = _clean_rate(recs[f"{layer}.{fn}"])
        out[f"{layer}.clean_sets"] = (sets, "count")
        out[f"{layer}.sets_per_s"] = (rate, "1/s")

    car = recs["oracle.class_all_ramanujan"]
    exits = sum(1 for clean in car["notes"] if clean == 0)
    out["oracle.class_all_ramanujan.early_exit_ratio"] = (
        exits / car["calls"] if car["calls"] else 0.0, "ratio")
    return out

