"""Where an ``analyze --verify --json`` call spends its time, stage by stage.

    python3 tools/stage_times.py FILE... [--passes N]
    python3 tools/stage_times.py --workload NAME --seed N [--passes N]

runs ``u4codes analyze FILE --verify --json`` in process on every file,
once as a warm-up and then N times (default 15), the files in order on
even passes and in reverse on odd ones.  The second form writes the code
files of a perfbench workload that has them (``analyze_large``,
``enum_verify``) into a temporary directory, through
``perfbench/workloads.py``.

Each stage is timed around the function that ``cli`` calls for it, rebound
in ``cli`` for the run: reading and parsing the file, the closed form,
the span basis, the torsion profile, the enumeration, printing the
generators and the JSON encoding.  ``other`` is the rest of the call
(argument parsing, the verdicts, writing the output).  For each stage the
tool prints the median and quartiles, over the passes, of its
microseconds per file.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import sys
import tempfile
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# one thread for numpy's BLAS, as perfbench/run.py pins it
THREAD_PINS = dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"), "1")
# (stage, the name in cli that runs it); JSON is cli.json.dumps
STAGES = (
    ("read and parse", "_read_code_file"),
    ("closed form", "analyze_code"),
    ("span basis", "span_basis"),
    ("torsion profile", "torsion_profile"),
    ("enumeration", "min_weights"),
    ("generator printing", "format_generator"),
)
ROWS = [stage for stage, _ in STAGES] + ["JSON", "other", "total"]


def _timed(fn, stage: str, spent: dict):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[stage] += time.perf_counter() - start

    return wrapper


def run_pass(files: list[str], spent: dict) -> None:
    """One analyze call per file, adding each stage's seconds to ``spent``."""
    from u4codes import cli

    for path in files:
        start = time.perf_counter()
        status = cli.run_command(["analyze", path, "--verify", "--json"], out=io.StringIO())
        spent["total"] += time.perf_counter() - start
        if status not in (cli.EXIT_OK, cli.EXIT_MISMATCH):
            raise SystemExit(f"stage_times: analyze {path} exited {status}")


def stage_times(files: list[str], passes: int) -> dict[str, list[float]]:
    """Stage -> its microseconds per file on each timed pass."""
    from u4codes import cli

    samples = {row: [] for row in ROWS}
    spent = dict.fromkeys(ROWS, 0.0)
    saved = {name: getattr(cli, name) for _, name in STAGES + (("JSON", "json"),)}
    for stage, name in STAGES:
        setattr(cli, name, _timed(saved[name], stage, spent))
    cli.json = types.SimpleNamespace(dumps=_timed(json.dumps, "JSON", spent))
    try:
        run_pass(files, spent)  # warm-up: field tables, lazy numpy set-up
        for i in range(passes):
            spent.update(dict.fromkeys(ROWS, 0.0))
            run_pass(files if i % 2 == 0 else files[::-1], spent)
            spent["other"] = spent["total"] - sum(spent[row] for row in ROWS[:-2])
            for row in ROWS:
                samples[row].append(spent[row] / len(files) * 1e6)
    finally:
        for name, value in saved.items():
            setattr(cli, name, value)
    return samples


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, median, q3


def report(samples: dict[str, list[float]], files: int) -> str:
    passes = len(samples["total"])
    lines = [f"{'stage':<20}{'median':>10}{'q1':>10}{'q3':>10}"
             f"   us per file, {passes} passes of {files} files"]
    for row, xs in samples.items():
        q1, median, q3 = quartiles(xs)
        lines.append(f"{row:<20}{median:>10.1f}{q1:>10.1f}{q3:>10.1f}")
    return "\n".join(lines)


def workload_files(name: str, seed: int, folder: Path) -> list[str]:
    """The code files perfbench writes for an analyze workload, one per unit."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    if name not in workloads.WORKLOADS:
        raise SystemExit(f"stage_times: unknown workload {name!r}")
    batches = workloads.WORKLOADS[name].prepare(seed, folder)
    units = [unit for batch in batches for unit in batch]
    if not all(isinstance(unit, list) and unit[:1] == ["analyze"] for unit in units):
        raise SystemExit(f"stage_times: workload {name} writes no code files")
    return [unit[1] for unit in units]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=15)
    args = parser.parse_args(argv)
    if bool(args.files) == bool(args.workload):
        parser.error("give code files or --workload, not both")
    if args.passes < 1:
        parser.error("--passes must be >= 1")
    with tempfile.TemporaryDirectory(prefix="stage-times-") as tmp:
        files = args.files or workload_files(args.workload, args.seed, Path(tmp))
        samples = stage_times(files, args.passes)
    print(report(samples, len(files)))
    return 0


if __name__ == "__main__":
    os.environ.update(THREAD_PINS)  # before numpy is first imported
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main(sys.argv[1:]))
