"""Benchmark of the u4codes library: one workload per run, closed loop.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One Python process with one thread sends each call and waits for its result
before sending the next; between calls it times a fixed reference kernel,
and code latencies are reported in multiples of that kernel's time (see
``Reference``).  ``--trace 0`` measures the end-to-end metrics with
nothing wrapped.  ``--trace 1`` repeats that untraced pass for the overhead
ratio, then runs the first batch traced (a fixed amount of work, so counts
repeat exactly for a seed) and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
holds the environment record; the full record of the run, and the traced
spans, are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 60

EXIT_NO_PROGRAM = 2
EXIT_USAGE = 64

_SETUP_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import u4codes
for p, m in {fields!r}:
    u4codes.field_make(p, m)
print("ready", flush=True)
"""


def measure_setup(fields) -> list[float]:
    """Seconds from starting a fresh interpreter until it has imported
    u4codes and built the workload's fields, once per repeat."""
    script = _SETUP_CHILD.format(fields=list(fields))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(SRC)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
        )
        try:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {err.strip()[-500:]}")
        times.append(elapsed)
    return times


# --- environment ------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def _lscpu() -> dict[str, str]:
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    pairs = (line.split(":", 1) for line in text.splitlines() if ":" in line)
    return {key.strip(): value.strip() for key, value in pairs}


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "u4codes").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    import numpy

    cpu_model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        None,
    )
    lscpu = _lscpu()
    return {
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or lscpu.get("Model name"),
        "l2_cache": lscpu.get("L2 cache"),
        "l3_cache": lscpu.get("L3 cache"),
        "thread_pins": THREAD_PINS,
        "seed": seed,
    }


# --- passes -------------------------------------------------------------------------


# Kernel runs timed in each gap between calls; single runs of a few
# milliseconds are noisy, and their median is steadier.
KERNEL_RUNS = 3


class Reference:
    """A fixed kernel, timed between the calls of the timed pass.

    It does what the library's field arithmetic does, in the benchmark's own
    code: a pure-Python integer loop and numpy int16 table lookups.  This
    host's speed drifts by about 20 % between runs of a few seconds (a fixed
    loop's time moves as much as any workload's), and the kernel's time
    drifts with it.  Latencies are reported as multiples of the kernel's
    time on either side of them, which cancels most of that drift.  The raw
    times are in the full record.
    """

    LOOP = 30000
    LOOKUPS = 60

    def __init__(self):
        import numpy as np

        self.table = (np.arange(625, dtype=np.int16) % 25).reshape(25, 25)
        self.vector = (np.arange(4096, dtype=np.int16) * 7) % 25

    def time(self) -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(self.LOOP):
            acc += i * i % 7
        v = self.vector
        for _ in range(self.LOOKUPS):
            v = self.table[v, self.vector]
        return time.perf_counter() - start

    def gap(self) -> list[float]:
        return [self.time() for _ in range(KERNEL_RUNS)]


def local_reference(gaps: list[list[float]]) -> list[float]:
    """Per call, the median of the kernel times in the gaps just before and
    just after it.  ``gaps`` has one more entry than there were calls: the
    first is timed before the first call."""
    return [statistics.median(a + b) for a, b in zip(gaps, gaps[1:])]


def _steal_ticks() -> tuple[int, int]:
    """(steal, total) clock ticks of all CPUs so far, from /proc/stat."""
    fields = _read("/proc/stat").split("\n", 1)[0].split()[1:]
    ticks = [int(f) for f in fields[:8]]
    return (ticks[7], sum(ticks)) if len(ticks) == 8 else (0, 0)


def timed_pass(workload, batches, seconds: float, tracer=None, min_calls: int = 1,
               reference: Reference | None = None):
    """Whole batches in order, in a closed loop, until ``seconds`` of wall time
    have passed and at least ``min_calls`` calls have run.  With a
    ``reference``, its kernel is timed in the gap before the first call and
    in the gap after every call.

    Returns ([(position, unit, raw)], kernel times by gap, seconds, steal share),
    where the steal share is the part of all CPUs' time that the virtual
    machine's host gave to others meanwhile (0 where /proc/stat does not
    report it).
    """
    results = []
    gaps = [reference.gap()] if reference is not None else []
    steal0, total0 = _steal_ticks()
    start = time.perf_counter()
    for batch in itertools.cycle(batches):
        for position, unit in enumerate(batch):
            if tracer is not None:
                tracer.code_id += 1
            results.append((position, unit, workload.call(unit, tracer)))
            if reference is not None:
                gaps.append(reference.gap())
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(results) >= min_calls:
            steal1, total1 = _steal_ticks()
            steal = (steal1 - steal0) / (total1 - total0) if total1 > total0 else 0.0
            return results, gaps, elapsed, steal


def tail(latencies: list[float], pct: int) -> float:
    """The ``pct`` percentile of the latencies, which must leave at least ten
    codes beyond it.  Each workload fixes its percentile and runs enough
    calls for it; a percentile picked from each run's code count would
    switch between runs and move the tail by the gap between two shapes."""
    ordered = sorted(latencies)
    index = math.ceil(len(ordered) * pct / 100) - 1
    if len(ordered) - 1 - index < 10:
        raise ValueError(f"{len(ordered)} codes leave fewer than ten beyond p{pct}")
    return ordered[index]


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Run one workload and return the full record of the run."""
    import workloads

    workload = workloads.WORKLOADS[name]
    setup_times = measure_setup(workload.fields)
    batches = workload.prepare(seed, workdir / "inputs")
    workload.call(batches[0][0], None)  # lazy set-up in numpy and the library

    reference = Reference()
    reference.time()  # warm-up, like the call above

    results, gaps, elapsed, steal = timed_pass(
        workload, batches, seconds, min_calls=workload.min_calls, reference=reference)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    outcomes = workload.check(results)
    latencies = [o.latency_s for o in outcomes]
    local = local_reference(gaps)
    relative = [o.latency_s / local[o.call] for o in outcomes]
    tail_pct = workload.tail_percentile
    per_unit = {}
    for outcome in outcomes:
        per_unit.setdefault(outcome.position, []).append(round(outcome.latency_s * 1e3, 3))
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "codes": len(outcomes),
        "elapsed_s": elapsed,
        "steal_share": steal,
        "setup_s_samples": setup_times,
        "code_tail_percentile": tail_pct,
        "reference_ms_by_gap": [[round(t * 1e3, 4) for t in gap] for gap in gaps],
        "latencies_ms_by_position": per_unit,
        "raw": {
            "codes_per_s": (len(latencies) / sum(latencies), "1/s"),
            "code_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "code_tail_ms": (tail(latencies, tail_pct) * 1e3, "ms"),
            "reference_p50_ms": (statistics.median(t for gap in gaps for t in gap) * 1e3, "ms"),
        },
        "end_to_end": {
            "setup_s": (statistics.median(setup_times), "s"),
            "codes_per_kref": (1e3 * len(relative) / sum(relative), "1/kref"),
            "code_p50_ref": (statistics.median(relative), "ref"),
            "code_tail_ref": (tail(relative, tail_pct), "ref"),
            "peak_rss_mb": (peak_rss_mib, "MiB"),
        },
    }
    attempted = len(outcomes)
    failed = sum(not o.ok for o in outcomes)

    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, _, traced_elapsed, _ = timed_pass(workload, batches[:1], 0, tracer)
        finally:
            tracer.uninstall()
        traced_outcomes = workload.check(traced)
        attempted += len(traced_outcomes)
        failed += sum(not o.ok for o in traced_outcomes)
        traced_rate = len(traced_outcomes) / traced_elapsed
        untraced_rate = record["raw"]["codes_per_s"][0]
        layers = tracer.layer_metrics()
        layers["trace.codes_per_s"] = (traced_rate, "1/s")
        layers["trace.speed_ratio"] = (traced_rate / untraced_rate, "ratio")
        record["per_layer"] = layers
        record["traced_codes"] = len(traced_outcomes)
        workdir.mkdir(parents=True, exist_ok=True)
        spans_path = workdir / f"spans-{name}-seed{seed}.npz"
        tracer.save(str(spans_path))
        record["spans_file"] = spans_path.name

    record["attempted"] = attempted
    record["failed"] = failed
    record["fail_frac"] = failed / attempted
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(THREAD_PINS)  # before numpy is first imported

    if not (SRC / "u4codes" / "__init__.py").is_file():
        print(f"error: no u4codes sources under {SRC}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import u4codes

    if Path(u4codes.__file__).resolve().parent != SRC / "u4codes":
        print(f"error: imported u4codes from {u4codes.__file__}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    import workloads

    if args.workload not in workloads.WORKLOADS:
        names = ", ".join(workloads.WORKLOADS)
        print(f"error: unknown workload {args.workload!r}; one of {names}", file=sys.stderr)
        return EXIT_USAGE

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), OUT)
    record["env"] = environment(args.seed)
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    chosen = record["per_layer"] if args.trace else record["end_to_end"]
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in chosen.items()},
    }
    print(json.dumps({"env": record["env"], "codes": record["codes"],
                      "code_tail_percentile": record["code_tail_percentile"],
                      "raw": record["raw"],
                      "fail_frac": record["fail_frac"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
