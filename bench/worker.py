"""Run one workload in this interpreter and print its measurements as JSON.

Reads {"workload", "items", "seconds", "trace"} from stdin.  Untraced,
it repeats whole passes over the item list for about ``seconds`` (at
least one pass, and no pass that would end past the deadline), timing
every item.  An item's time is the least of all its timings in the run,
over passes and over repeats in the list, scaled by the run's machine
speed (bench/speed.py), and the best pass is the sum of those times
over the list.  Traced, it makes one
untraced pass and then one traced pass, and reports the per-layer
metrics of the traced one.  The answer checks run outside the timed
calls and outside tracing.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import speed
import tracing
import workloads


class Tally:
    """Attempted and failed items, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 5:
            self.messages.append(message)


## how often the speed gauge (speed.reference) is timed between items
REFERENCE_EVERY_S = 0.005


def run_pass(workload, items, ctx, tally: Tally, tracer=None,
             refs: list[float] | None = None) -> list[float]:
    """Call the workload on every item once; return the per-item times.

    With ``refs``, time speed.reference() before an item whenever
    REFERENCE_EVERY_S has passed since the last such timing, and append
    the time to ``refs``.
    """
    times = []
    clock = time.perf_counter
    last_ref = -REFERENCE_EVERY_S
    for item in items:
        if refs is not None and clock() - last_ref >= REFERENCE_EVERY_S:
            last_ref = clock()
            speed.reference()
            refs.append(clock() - last_ref)
        tally.attempted += 1
        if tracer is not None:
            tracer.active = True
        t0 = clock()
        try:
            result = workload.run(item)
        except Exception as exc:  # a failed item is counted; the run goes on
            times.append(clock() - t0)
            tally.fail(f"{item!r}: {type(exc).__name__}: {exc}")
            continue
        finally:
            if tracer is not None:
                tracer.active = False
        times.append(clock() - t0)
        try:
            problem = workload.check(item, result, ctx)
        except Exception as exc:  # a malformed answer is a failed item too
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is not None:
            tally.fail(f"{item!r}: {problem}")
    return times


def measure(name: str, items: list, seconds: float, trace: bool) -> dict:
    workload = workloads.WORKLOADS[name]
    ctx = workload.prepare(items)
    tally = Tally()
    if trace:
        untraced = sum(run_pass(workload, items, ctx, tally))
        with tracing.Tracer() as tracer:
            traced = sum(run_pass(workload, items, ctx, tally, tracer))
        layers = tracing.layer_metrics(tracer)
        layers["trace.overhead_s"] = (traced - untraced, "s")
        return {"attempted": tally.attempted, "failed": tally.failed,
                "failures": tally.messages, "layers": layers,
                "spans": len(tracer.start)}
    pass_times: list[float] = []
    per_item: dict[str, list[float]] = {}
    refs: list[float] = []
    keys = [json.dumps(item) for item in items]
    start = time.perf_counter()
    while True:
        times = run_pass(workload, items, ctx, tally, refs=refs)
        for key, t in zip(keys, times):
            per_item.setdefault(key, []).append(t)
        pass_times.append(sum(times))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(pass_times) > seconds:
            break
    best = {key: min(v) for key, v in per_item.items()}
    scale = speed.factor(refs)
    return {"attempted": tally.attempted, "failed": tally.failed,
            "failures": tally.messages, "pass_times": pass_times,
            "speed": scale, "references": len(refs),
            "item_times": [t * scale for t in best.values()],
            "best_pass": scale * sum(best[key] for key in keys),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def main() -> None:
    spec = json.load(sys.stdin)
    ## the same lazy set-up that setup_s times, done before any timing
    import ramcirc.cli  # noqa: F401  (pulls in every module)
    from ramcirc.classify import thresholds
    thresholds()
    result = measure(spec["workload"], spec["items"], spec["seconds"],
                     bool(spec["trace"]))
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
