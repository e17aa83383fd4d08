"""The ramcirc benchmark: one workload per run, each in a fresh interpreter.

    python3 bench/run.py --workload census --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

The package is imported from src/ (as the tier-1 tests do), nothing is
installed.  Inputs come from the seed; a worker process
(bench/worker.py) runs them single-threaded and the answers are checked
there.  The last line printed is one JSON object with the keys correct,
attempted, failed and metrics; the line before it carries the full
record, environment block included.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402

WORKLOADS = ("census", "deep", "oracle", "abelian")
SETUP_RUNS = 7
IMPORT_RUNS = 3
## the whole run has to end within 180 s
RUN_LIMIT_S = 170.0
## the set-up ends at ``done``; the child then gauges its own speed
## (bench/speed.py), in the same spell as the set-up it just timed
SETUP_CODE = ("import time\n"
              "import ramcirc.cli\n"
              "from ramcirc.classify import thresholds\n"
              "thresholds()\n"
              "done = time.monotonic()\n"
              "import sys\n"
              f"sys.path.insert(0, {str(BENCH)!r})\n"
              "import speed\n"
              "print(done, speed.gauge())\n")
IMPORTED = ("ramcirc", "ramcirc.errors", "ramcirc.precision", "ramcirc.spectra",
            "ramcirc.bounds", "ramcirc.numtheory", "ramcirc.classify",
            "ramcirc.oracle", "ramcirc.abelian", "ramcirc.golden",
            "ramcirc.cli", "numpy", "mpmath")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict[str, str]:
    """Environment of every process the benchmark starts: one thread each."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], deadline: float, stdin: str | None = None):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting " + " ".join(args[:3]))
    try:
        proc = subprocess.run(args, input=stdin, capture_output=True, text=True,
                              env=child_env(), cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(args[:3])} ran past the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args[:3])} exited with {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return proc


def measure_setup(deadline: float) -> tuple[list[float], list[float]]:
    """Wall time of fresh interpreters that import ramcirc.cli and warm up,
    raw and scaled by each interpreter's own speed gauge.

    time.monotonic() reads one system-wide clock (CLOCK_MONOTONIC on
    Linux), so the child's ``done`` and the parent's start compare.
    """
    raw, scaled = [], []
    for _ in range(SETUP_RUNS):
        t0 = time.monotonic()
        proc = run_child([sys.executable, "-c", SETUP_CODE], deadline)
        done, factor = map(float, proc.stdout.split())
        raw.append(done - t0)
        scaled.append((done - t0) * factor)
    return raw, scaled


def measure_imports(deadline: float) -> dict[str, tuple[float, str]]:
    """Median self time per module from ``python -X importtime``."""
    samples: dict[str, list[float]] = {mod: [] for mod in IMPORTED}
    for _ in range(IMPORT_RUNS):
        proc = run_child([sys.executable, "-X", "importtime", "-c",
                          "import ramcirc.cli"], deadline)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not line.startswith("import time:"):
                continue
            mod = parts[2].strip()
            if mod in samples:
                samples[mod].append(int(parts[0].split(":")[1]) / 1000)
    return {f"import.{mod}.self_ms": (statistics.median(v) if v else 0.0, "ms")
            for mod, v in samples.items()}


def tail(samples: list[float]) -> tuple[float, int]:
    """The value at the highest whole percentile that still has at least
    ten samples above it (nearest rank), and that percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in range(99, 0, -1):
        rank = -(-pct * n // 100)
        if n - rank >= 10:
            return ordered[rank - 1], pct
    return ordered[-1], 100


def src_lines() -> dict[str, int]:
    lines = {}
    for path in sorted((SRC / "ramcirc").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            lines[f"src.{path.stem}.lines"] = sum(1 for _ in fh)
    return {"src.lines": sum(lines.values()), **lines}


def environment(seed: int) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        cpu = platform.processor() or cpu
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "mpmath": version("mpmath"), "nproc": os.cpu_count(), "cpu": cpu,
            "seed": seed, "commit": commit, **src_lines()}


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 deadline: float) -> dict:
    items = workloads.generate(name, seed)
    extra: dict[str, object] = {}
    if not trace:
        setup_raw, setup = measure_setup(deadline)
        extra.update(setup_runs=len(setup),
                     setup_raw_s=statistics.median(setup_raw))
    spec = json.dumps({"workload": name, "items": items, "seconds": seconds,
                       "trace": int(trace)})
    proc = run_child([sys.executable, str(BENCH / "worker.py")], deadline, spec)
    out = json.loads(proc.stdout)
    if trace:
        layers = dict(out["layers"])
        layers.update(measure_imports(deadline))
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        extra["spans"] = out["spans"]
    else:
        item_ms = [t * 1000 for t in out["item_times"]]
        tail_ms, pct = tail(item_ms)
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": out["best_pass"], "unit": "s"},
            "item_p50_ms": {"value": statistics.median(item_ms), "unit": "ms"},
            "item_tail_ms": {"value": tail_ms, "unit": "ms"},
            "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MiB"},
        }
        extra.update(passes=len(out["pass_times"]), items=len(items),
                     item_tail_percentile=pct, item_samples=len(item_ms),
                     speed=out["speed"], references=out["references"])
    return {"workload": name, "trace": int(trace), "correct": out["failed"] == 0,
            "attempted": out["attempted"], "failed": out["failed"],
            "error_rate": out["failed"] / out["attempted"],
            "failures": out["failures"], "metrics": metrics, **extra}


def report(rec: dict) -> None:
    print(f"workload {rec['workload']}  trace {rec['trace']}  "
          f"attempted {rec['attempted']}  failed {rec['failed']}")
    for key, metric in rec["metrics"].items():
        note = ""
        if key == "item_tail_ms":
            note = f"  (p{rec['item_tail_percentile']} of {rec['item_samples']} samples)"
        print(f"  {key:48s} {metric['value']:>16.6g} {metric['unit']}{note}")
    print(f"  {'error_rate':48s} {rec['error_rate']:>16.6g} ratio")
    if "speed" in rec:
        print(f"  timings scaled by {rec['speed']:.4g} "
              f"(machine speed, from {rec['references']} reference timings)")
    for message in rec["failures"]:
        print(f"  failure: {message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="also write the full records to this JSON file")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "ramcirc" / "__init__.py").is_file():
        print(f"bench: no ramcirc package under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if len(names) > 1:
        ## one run limit per workload
        deadline += RUN_LIMIT_S * (len(names) - 1)
    env = environment(args.seed)
    records = []
    try:
        for name in names:
            rec = run_workload(name, args.seed, args.seconds, bool(args.trace),
                               deadline)
            rec["env"] = env
            report(rec)
            print("record " + json.dumps(rec))
            records.append(rec)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if args.out:
        args.out.write_text(json.dumps(records, indent=1) + "\n")
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v
                   for r in records for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in records)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
