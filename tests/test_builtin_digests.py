"""tools/builtin_digests.py: printed digests and the --check comparison."""

import importlib.util
from pathlib import Path

import pytest

from cvpert import scenarios

TOOL = Path(__file__).resolve().parents[1] / "tools" / "builtin_digests.py"


@pytest.fixture
def tool(monkeypatch):
    spec = importlib.util.spec_from_file_location("builtin_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # one builtin keeps the test short; the tool reads the registry at call time
    name = "quartic-pair-expansion"
    monkeypatch.setattr(scenarios, "REGISTRY", {name: scenarios.REGISTRY[name]})
    return module


def test_check_passes_on_saved_digests_and_names_each_difference(tool, tmp_path, capsys):
    assert tool.main(["101", str(tmp_path / "a")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines] == [
        "quartic-pair-expansion/quartic-pair-expansion_residuals.csv",
        "quartic-pair-expansion/report.json"]
    saved = tmp_path / "saved.txt"
    saved.write_text("\n".join(lines) + "\n")
    assert tool.main(["101", str(tmp_path / "b"), "--check", str(saved)]) == 0
    assert capsys.readouterr().out.startswith("all 2 files match")

    digest, name = lines[0].split()
    saved.write_text("\n".join([f"{'0' * len(digest)}  {name}", lines[1],
                                f"{digest}  gone/file.csv"]) + "\n")
    assert tool.main(["101", str(tmp_path / "c"), "--check", str(saved)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["missing: gone/file.csv", f"differs: {name}",
                   f"2 of 3 files differ from {saved}"]


def test_against_prints_how_far_each_differing_file_moved(tool, tmp_path, capsys):
    assert tool.main(["101", str(tmp_path / "a")]) == 0
    lines = capsys.readouterr().out.splitlines()
    saved = tmp_path / "saved.txt"
    csv_digest, csv_name = lines[0].split()
    # the saved run's CSV had one number larger by a factor 1 + 1e-9
    saved.write_text("\n".join([f"{'0' * len(csv_digest)}  {csv_name}", lines[1]]) + "\n")
    path = tmp_path / "a" / csv_name
    header, first, *rest = path.read_text().splitlines()
    cells = first.split(",")
    cells[1] = repr(float(cells[1]) * (1 + 1e-9))
    path.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
    assert tool.main(["101", str(tmp_path / "b"), "--check", str(saved),
                      "--against", str(tmp_path / "a")]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith(f"differs: {csv_name}  largest relative difference 1e-09")
    assert tool.largest_relative_difference([1.0, 2.0], [1.0]) == float("inf")
    assert tool.largest_relative_difference([0.0, float("nan")], [0.0, float("nan")]) == 0.0
