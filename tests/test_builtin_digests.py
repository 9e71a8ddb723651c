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
    assert out[0] == f"differs: {csv_name}  largest relative difference 1e-09 at row 1 column 1"


def test_largest_move_has_an_absolute_floor_and_a_place(tool):
    inf, nan = float("inf"), float("nan")
    assert tool.largest_move([("a", 1.0), ("b", 2.0)], [("a", 1.0)]) == (inf, "number count")
    assert tool.largest_move([("a", 0.0), ("b", nan)], [("a", 0.0), ("b", nan)]) == (0.0, "")
    # a move to or from exactly 0 reads as its size against the floor, not as 1
    assert tool.largest_move([("gap", 0.0), ("x", 3.0)], [("gap", 1e-31), ("x", 3.0 + 3e-9)]) \
        == (pytest.approx(1e-9), "x")
    assert tool.largest_move([("gap", 0.0)], [("gap", 2e-12)]) == (1.0, "gap")
    assert tool.largest_move([("x", 1.0), ("y", 1.0)], [("x", 1.0), ("y", nan)]) == (inf, "y")


def test_json_numbers_are_placed_by_key_path(tool, tmp_path):
    path = tmp_path / "data.json"
    path.write_text('{"a": [1.5, {"b": 2}], "c": true, "d": "text"}')
    assert tool.numbers(path) == [("a.0", 1.5), ("a.1.b", 2)]
