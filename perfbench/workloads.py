"""The four workloads: their inputs, one closed-loop call per code, and checks.

Every workload is a list of batches of units, built from the seed before
timing starts.  The timed loop calls the library once per unit, waits for
the result, and runs whole batches in order (starting over after the last)
until the time is up; outputs are kept and checked after the clock stops.

Inputs are built by this module, not by ``u4codes.random_code``, so that a
change to the library's sampler cannot change what is measured.  Each
workload uses a fixed list of code *shapes*: field, length, ideal type,
generator degrees and correction degrees.  The seed draws every unit
polynomial of every correction.  Fixed shapes keep the work per batch the
same for every seed: with random degrees, the cost of one code at n = 625
ranges from 1 ms to 20 s, and no run of a few seconds could average that out.
"""

from __future__ import annotations

import io
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import u4codes as u
from u4codes import cli

_DEGREE_NAMES = {0: "r", 1: "r1", 2: "r2", 3: "r3"}
# Correction slot -> (generator level that owns it, level whose degree bounds it).
_CORRECTION_SLOTS = {1: (0, 1), 2: (0, 2), 3: (0, 3), 4: (1, 2), 5: (1, 3), 6: (2, 3)}
_UNIT_EXTRA_TERMS = 4


@dataclass(frozen=True)
class Shape:
    """Everything about a code except its unit polynomials.

    ``corrections`` maps correction slot -> degree k_i, or is one fraction
    that places every correction of the present generators at that share of
    its degree bound.
    """

    p: int
    m: int
    k: int
    degrees: dict
    corrections: object

    def correction_degrees(self) -> dict[int, int]:
        if isinstance(self.corrections, dict):
            return dict(self.corrections)
        n = self.p**self.k
        out = {}
        for slot, (owner, bounder) in _CORRECTION_SLOTS.items():
            if owner in self.degrees:
                bound = self.degrees.get(bounder, n)
                out[slot] = int(bound * self.corrections)
        return out


def _unit(rng: random.Random, spec, n: int) -> "u.SPoly":
    coeffs = np.zeros(n, dtype=np.int16)
    coeffs[0] = rng.randrange(1, spec.q)
    for i in range(1, min(n - 1, _UNIT_EXTRA_TERMS) + 1):
        coeffs[i] = rng.randrange(spec.q)
    return u.SPoly(spec, n, coeffs)


def make_code(rng: random.Random, shape: Shape) -> "u.CyclicCode":
    """The code of this shape whose units are drawn from ``rng``."""
    spec = u.field_make(shape.p, shape.m)
    n = spec.p**shape.k
    fields = {_DEGREE_NAMES[level]: deg for level, deg in shape.degrees.items()}
    for slot, degree in sorted(shape.correction_degrees().items()):
        fields[f"k{slot}"] = degree
        fields[f"p{slot}"] = _unit(rng, spec, n)
    return u.validate_canonical(spec, shape.k, u.GeneratorForm(**fields))


# --- independent expectations ---------------------------------------------------


def wt_sp_reference(t3: int, p: int, k: int) -> int:
    """Minimum symbol-pair weight for a third torsional degree t3.

    The paper's case table, written out here rather than taken from
    ``u4codes.weights`` so that a fault in the library's table shows.
    """
    n = p**k
    if t3 == 0:
        return 2
    if t3 == n:
        return 0
    if t3 == n - 1:
        return n
    if n - p < t3 < n - 1:
        return (t3 - (n - p) + 2) * p ** (k - 1)
    for ell in range(k - 1):
        lo, step = n - p ** (k - ell), p ** (k - ell - 1)
        if lo < t3 <= lo + (p - 1) * step:
            if t3 == lo + 1:
                return 3 * p**ell
            if t3 <= lo + step:
                return 4 * p**ell
            mu = (t3 - lo - 1) // step
            return 2 * (mu + 2) * p**ell
    raise ValueError(f"t3 = {t3} outside [0, {n}]")


def oracle_expectation(code) -> tuple[int, int, int]:
    """(t3, wt_sp, wt_rt) from the span oracle, never from the closed form."""
    t3 = u.torsion_profile(code, u.span_basis(code))[3]
    n = code.n
    return t3, wt_sp_reference(t3, code.p, code.k), (t3 + 1 if t3 < n else 0)


# --- workloads --------------------------------------------------------------------


@dataclass
class Outcome:
    """One code's result: the position of its unit in the batch, its latency,
    whether its output passed the check, and the index of the call that ran
    it in the timed pass (a ``verify`` call runs several codes)."""

    position: int
    latency_s: float
    ok: bool
    call: int


@dataclass
class Workload:
    """How to build, run and check one workload.  Why each workload exists
    is recorded with it in BENCHMARK.json."""

    fields: tuple  # (p, m) pairs the workload builds; set-up time covers them
    prepare: Callable  # (seed, workdir) -> list of batches, each a list of units
    call: Callable  # (unit, tracer) -> raw result with its latency
    check: Callable  # [(position, unit, raw)] -> list of Outcome
    tail_percentile: int  # code_tail_ref's percentile
    min_calls: int  # a run makes at least this many calls: ten codes beyond the tail


def _run_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    try:
        rc = cli.run_command(argv, out=out)
    except Exception as exc:  # a traceback is a failed code, not a stopped run
        return -1, f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue()


# verify_small ----------------------------------------------------------------

VERIFY_GRID = ((2, 1, 2), (2, 1, 3), (2, 2, 2), (3, 1, 2), (5, 1, 1), (2, 1, 4))
VERIFY_TRIALS = 16
# More batches than a run of 60 s gets through, so no trial repeats.
VERIFY_BATCHES = 400


def _verify_prepare(seed: int, workdir: Path):
    rng = random.Random(seed)
    return [
        [
            ["verify", "--p", str(p), "--m", str(m), "--k", str(k),
             "--trials", str(VERIFY_TRIALS), "--seed", str(rng.randrange(2**31))]
            for p, m, k in VERIFY_GRID
        ]
        for _ in range(VERIFY_BATCHES)
    ]


def _verify_call(argv, tracer):
    """One verify call; a trial's latency runs from its random_code call to
    the next one (the last trial to the end of the call), so the call's time
    is split exactly between its trials."""
    marks = []
    draw = cli.random_code

    def marked(*args, **kwargs):
        marks.append(time.perf_counter())
        if tracer is not None:
            tracer.code_id += 1
        return draw(*args, **kwargs)

    cli.random_code = marked
    start = time.perf_counter()
    try:
        rc, text = _run_cli(argv)
    finally:
        end = time.perf_counter()
        cli.random_code = draw
    if marks:
        marks[0] = start
    bounds = marks + [end]
    return rc, text, [b - a for a, b in zip(bounds, bounds[1:])]


def _verify_check(results):
    outcomes = []
    for call, (position, _, (rc, text, latencies)) in enumerate(results):
        lines = text.splitlines()
        failing = set()
        for line in lines:
            if line.startswith("MISMATCH "):
                try:
                    failing.add(json.loads(line[len("MISMATCH "):])["trial"])
                except (json.JSONDecodeError, KeyError, TypeError):
                    failing.update(range(VERIFY_TRIALS))
        t3_line = f"{VERIFY_TRIALS}/{VERIFY_TRIALS} formula==oracle"
        weights_ok = len(lines) >= 2 and _full_pass(lines[1], "weight-table==enumeration")
        if not (rc == 0 and lines[:1] == [t3_line] and weights_ok) and not failing:
            failing = set(range(VERIFY_TRIALS))
        if len(latencies) != VERIFY_TRIALS:
            latencies = [sum(latencies) / VERIFY_TRIALS] * VERIFY_TRIALS
            failing = set(range(VERIFY_TRIALS))
        outcomes.extend(
            Outcome(position, lat, i not in failing, call) for i, lat in enumerate(latencies)
        )
    return outcomes


def _full_pass(line: str, label: str) -> bool:
    head = line.split(" ", 1)
    if len(head) != 2 or not head[1].startswith(label):
        return False
    passed, _, checked = head[0].partition("/")
    return passed.isdigit() and passed == checked


# analyze workloads --------------------------------------------------------------


def _write_code_files(shapes, batches: int, seed: int, workdir: Path, tag: str):
    rng = random.Random(seed)
    folder = workdir / f"{tag}-seed{seed}"
    folder.mkdir(parents=True, exist_ok=True)
    out = []
    for b in range(batches):
        batch = []
        for i, shape in enumerate(shapes):
            path = folder / f"batch{b:02d}-code{i:02d}.txt"
            path.write_text(u.format_code_file(make_code(rng, shape)), encoding="utf-8")
            batch.append(["analyze", str(path), "--verify", "--json"])
        out.append(batch)
    return out


def _analyze_call(argv, tracer):
    start = time.perf_counter()
    rc, text = _run_cli(argv)
    return rc, text, time.perf_counter() - start


def _analyze_ok(rc: int, text: str, need_enum: bool) -> bool:
    if rc != 0:
        return False
    try:
        doc = json.loads(text)
        verdicts = doc["verdicts"]
        ok = bool(verdicts) and all(v is True for v in verdicts.values())
        ok = ok and doc["t3"] == doc["torsion_oracle"][3]
        if need_enum:
            ok = ok and doc["enum"]["skipped"] is None
            ok = ok and {"wt_sp_eq_enum", "wt_rt_eq_enum"} <= verdicts.keys()
    except (json.JSONDecodeError, KeyError, IndexError, TypeError, AttributeError):
        return False
    return ok


def _analyze_check(need_enum: bool):
    def check(results):
        return [
            Outcome(position, lat, _analyze_ok(rc, text, need_enum), call)
            for call, (position, _, (rc, text, lat)) in enumerate(results)
        ]

    return check


# analyze_large: row reduction at n = 256 and 625 leads; t3 is cheap for these
# types and enumeration is skipped, since q^rank is far above the cap.
ANALYZE_LARGE_SHAPES = (
    Shape(5, 1, 4, {1: 600, 3: 500}, 0.9),
    Shape(5, 1, 4, {2: 560, 3: 480}, 0.9),
    Shape(5, 1, 4, {1: 600, 2: 560}, 0.9),
    Shape(2, 1, 8, {0: 240, 2: 200, 3: 80}, 0.9),
    Shape(2, 1, 8, {1: 200, 2: 150, 3: 100}, 0.9),
)
ANALYZE_LARGE_BATCHES = 6

# enum_verify: q^rank between 2^15 and 2^20, so enumeration leads.
ENUM_SHAPES = (
    Shape(2, 1, 4, {1: 14, 3: 7}, {4: 13, 5: 0}),
    Shape(2, 1, 4, {0: 14}, {1: 10, 2: 12, 3: 13}),
    Shape(2, 1, 4, {2: 14, 3: 1}, {6: 0}),
    Shape(3, 1, 2, {2: 3}, {6: 1}),
    Shape(3, 1, 2, {1: 8, 3: 8}, {4: 3, 5: 2}),
    Shape(3, 1, 3, {2: 22, 3: 21}, {6: 18}),
    Shape(2, 2, 3, {2: 4, 3: 3}, {6: 1}),
    Shape(2, 2, 3, {2: 3}, {6: 4}),
    Shape(5, 1, 2, {2: 24, 3: 23}, {6: 18}),
    Shape(5, 1, 2, {2: 24}, {6: 17}),
)
ENUM_BATCHES = 8

# closed_form_large: u4codes.analyze without the oracle at n = 625 and 3125.
# High degrees keep the rank small, so the span oracle that checks each code
# costs under a second at n = 625 and about four at n = 3125; the closed form
# still inverts dense units of length n.  The oracle bounds the number of
# distinct batches; later batches repeat them.
CLOSED_FORM_SHAPES = (
    Shape(5, 1, 4, {0: 620, 1: 600, 2: 580, 3: 560}, 0.95),
    Shape(5, 1, 4, {0: 610, 1: 590, 2: 570}, 0.95),
    Shape(5, 1, 4, {0: 620, 1: 600, 2: 580}, 0.95),
    Shape(5, 1, 4, {0: 615, 1: 605, 2: 595, 3: 585}, 0.97),
    Shape(5, 1, 5, {0: 3100}, 0.97),
)
CLOSED_FORM_BATCHES = 3


@dataclass
class OracleChecked:
    """A code and, once the check has run, its oracle expectation."""

    code: object
    expected: tuple | None = None


def _closed_form_prepare(seed: int, workdir: Path):
    rng = random.Random(seed)
    return [
        [OracleChecked(make_code(rng, shape)) for shape in CLOSED_FORM_SHAPES]
        for _ in range(CLOSED_FORM_BATCHES)
    ]


def _closed_form_call(unit: OracleChecked, tracer):
    start = time.perf_counter()
    try:
        report = u.analyze(unit.code)
        raw = (report.t3, report.wt_sp, report.wt_rt)
    except Exception as exc:  # a traceback is a failed code, not a stopped run
        raw = f"{type(exc).__name__}: {exc}"
    return raw, time.perf_counter() - start


def _closed_form_check(results):
    outcomes = []
    for call, (position, unit, (raw, lat)) in enumerate(results):
        if unit.expected is None:
            unit.expected = oracle_expectation(unit.code)
        outcomes.append(Outcome(position, lat, raw == unit.expected, call))
    return outcomes


def _fields(shapes) -> tuple:
    return tuple(sorted({(s.p, s.m) for s in shapes}))


WORKLOADS = {
    "verify_small": Workload(
        fields=tuple(sorted({(p, m) for p, m, _ in VERIFY_GRID})),
        prepare=_verify_prepare,
        call=_verify_call,
        check=_verify_check,
        tail_percentile=99,
        min_calls=64,  # 1024 trials; a run of 20 s makes about 4000
    ),
    "analyze_large": Workload(
        fields=_fields(ANALYZE_LARGE_SHAPES),
        prepare=lambda seed, workdir: _write_code_files(
            ANALYZE_LARGE_SHAPES, ANALYZE_LARGE_BATCHES, seed, workdir, "analyze_large"),
        call=_analyze_call,
        check=_analyze_check(need_enum=False),
        tail_percentile=50,
        min_calls=20,  # a run of 20 s makes about 25
    ),
    "closed_form_large": Workload(
        fields=_fields(CLOSED_FORM_SHAPES),
        prepare=_closed_form_prepare,
        call=_closed_form_call,
        check=_closed_form_check,
        tail_percentile=50,
        min_calls=20,  # a run of 20 s makes about 25
    ),
    "enum_verify": Workload(
        fields=_fields(ENUM_SHAPES),
        prepare=lambda seed, workdir: _write_code_files(
            ENUM_SHAPES, ENUM_BATCHES, seed, workdir, "enum_verify"),
        call=_analyze_call,
        check=_analyze_check(need_enum=True),
        tail_percentile=75,
        min_calls=40,  # a run of 20 s makes 70 to 100
    ),
}
