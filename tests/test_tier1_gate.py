import importlib.util
from pathlib import Path

import pytest

RED = "test_criterion_1d_g0_f3_reference_values"


def _load_gate():
    path = Path(__file__).resolve().parents[1] / "tools" / "tier1_gate.py"
    spec = importlib.util.spec_from_file_location("tier1_gate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load_gate()


def report(*cases):
    """JUnit XML with one testcase per (classname, name, child tag or None)."""
    body = "".join(
        f'<testcase classname="{cls}" name="{name}">' + (f"<{tag}/>" if tag else "") + "</testcase>"
        for cls, name, tag in cases
    )
    return f'<testsuites><testsuite name="pytest">{body}</testsuite></testsuites>'


GREEN = ("tests.test_api", "test_every_public_name_resolves", None)


@pytest.mark.parametrize("cases,passes", [
    ([GREEN, ("tests.test_acceptance", RED, "failure")], True),
    ([GREEN, ("tests.test_acceptance", RED, None)], False),  # 1d started passing
    ([GREEN, ("tests.test_acceptance", RED, "skipped")], False),
    ([GREEN], False),  # 1d deselected
    ([("tests.test_acceptance", RED, "failure")], False),  # nothing passed
    ([GREEN, ("tests.test_acceptance", RED, "failure"), ("tests.test_api", "test_x", "failure")], False),
    ([GREEN, ("tests.test_acceptance", RED, "failure"), ("", "tests.test_broken", "error")], False),
])
def test_gate_passes_only_on_the_red_criterion(cases, passes):
    assert (gate.verdict(gate.outcomes(report(*cases))) == []) is passes
