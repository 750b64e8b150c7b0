"""Run the tier-1 suite and pass only when its one failure is criterion 1d.

Criterion 1d (``tests/test_acceptance.py::test_criterion_1d_g0_f3_reference_values``)
asserts handed-down reference values that the exhaustive oracle refutes, so
it stays red, unedited, by design (ROADMAP aim 3).  The gate runs the
ROADMAP tier-1 command with a JUnit report and exits 0 only when 1d failed
and nothing else failed or errored.  It exits 1 on any other failure, on a
collection error, on a run in which 1d did not run or passed, and when
pytest itself stopped abnormally.

    python3 tools/tier1_gate.py [extra pytest arguments]
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# A test as the JUnit report names it: dotted module path :: test name.
RED_BY_DESIGN = "tests.test_acceptance::test_criterion_1d_g0_f3_reference_values"


# JUnit child element of a test case -> its outcome; a case without one passed.
_OUTCOMES = {"failure": "failed", "error": "error", "skipped": "skipped"}


def outcomes(report: str) -> dict[str, str]:
    """Test id -> "passed", "failed", "error" or "skipped", from JUnit XML text."""
    result = {}
    for case in ET.fromstring(report).iter("testcase"):
        found = [_OUTCOMES[child.tag] for child in case if child.tag in _OUTCOMES]
        result[f"{case.get('classname')}::{case.get('name')}"] = found[0] if found else "passed"
    return result


def verdict(results: dict[str, str]) -> list[str]:
    """Why the gate fails, one reason a line; empty when it passes."""
    reasons = []
    red = results.get(RED_BY_DESIGN)
    if red is None:
        reasons.append(f"{RED_BY_DESIGN} did not run")
    elif red == "passed":
        reasons.append(f"{RED_BY_DESIGN} passed: its reference values or the oracle changed")
    elif red != "failed":
        reasons.append(f"{RED_BY_DESIGN} {red}, not failed")
    reasons += [f"{test} {outcome}" for test, outcome in sorted(results.items())
                if outcome in ("failed", "error") and test != RED_BY_DESIGN]
    if not any(outcome == "passed" for outcome in results.values()):
        reasons.append("no test passed")
    return reasons


def main(argv: list[str]) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory(prefix="tier1-gate-") as tmp:
        report = Path(tmp) / "junit.xml"
        command = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                   f"--junitxml={report}", *argv]
        status = subprocess.run(command, cwd=ROOT, env=env).returncode
        if status not in (0, 1) or not report.exists():
            print(f"tier-1 gate: pytest stopped with exit status {status}", file=sys.stderr)
            return 1
        reasons = verdict(outcomes(report.read_text(encoding="utf-8")))
    for reason in reasons:
        print(f"tier-1 gate: {reason}", file=sys.stderr)
    if not reasons:
        print(f"tier-1 gate: passed; the one failure is {RED_BY_DESIGN}")
    return 1 if reasons else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
