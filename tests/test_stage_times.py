import importlib.util
from pathlib import Path

import pytest

from u4codes import cli
from test_cli import GOLDEN_G1_FILE, GOLDEN_G2_F25_FILE


def load_tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "stage_times.py"
    spec = importlib.util.spec_from_file_location("stage_times", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = load_tool()


def test_stage_times_on_two_golden_files(tmp_path, capsys):
    files = []
    for name, text in (("g1.txt", GOLDEN_G1_FILE), ("g2.txt", GOLDEN_G2_F25_FILE)):
        (tmp_path / name).write_text(text, encoding="utf-8")
        files.append(str(tmp_path / name))
    wrapped = {name: getattr(cli, name) for _, name in tool.STAGES}
    assert tool.main([*files, "--passes", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:4] == ["stage", "median", "q1", "q3"]
    assert "3 passes of 2 files" in lines[0]
    rows = {line[:20].strip(): [float(x) for x in line[20:].split()] for line in lines[1:]}
    assert list(rows) == tool.ROWS
    for median, q1, q3 in rows.values():
        assert 0 <= q1 <= median <= q3
    # both files enumerate, and every stage but "other" ran
    assert all(rows[row][0] > 0 for row in tool.ROWS if row != "other")
    assert rows["total"][0] >= rows["read and parse"][0] + rows["span basis"][0]
    # the run leaves cli as it found it
    assert {name: getattr(cli, name) for _, name in tool.STAGES} == wrapped
    assert cli.json.dumps.__module__ == "json"


def test_stage_times_refuses_a_workload_without_code_files(tmp_path):
    with pytest.raises(SystemExit, match="writes no code files"):
        tool.workload_files("verify_small", 1, tmp_path)
    with pytest.raises(SystemExit):
        tool.main([])
