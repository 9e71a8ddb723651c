"""tools/ab_pairs.py: the summary of alternating benchmark pairs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"


@pytest.fixture
def tool():
    spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def side(wall, setup, rss):
    return {"wall_s": wall, "setup_s": setup, "peak_rss_mb": rss}


def test_summary_gives_medians_and_wins(tool):
    pairs = [(side(0.020, 0.5, 55.0), side(0.018, 0.5, 55.1)),
             (side(0.019, 0.6, 55.2), side(0.017, 0.4, 55.2)),
             (side(0.021, 0.4, 55.1), side(0.022, 0.7, 55.0))]
    got = tool.summary(pairs)
    assert list(got) == ["wall_s", "setup_s", "peak_rss_mb"]
    assert got["wall_s"] == (0.020, 0.018, 2)
    # a tie is no win
    assert got["setup_s"] == (0.5, 0.5, 1)
    assert got["peak_rss_mb"] == (55.1, 55.1, 1)


def test_summary_of_an_even_count_takes_the_middle_mean(tool):
    pairs = [(side(1.0, 1.0, 1.0), side(2.0, 1.0, 1.0)),
             (side(3.0, 1.0, 1.0), side(4.0, 1.0, 1.0))]
    assert tool.summary(pairs)["wall_s"] == (2.0, 3.0, 0)


def test_spread_is_the_parents_interquartile_distance(tool):
    pairs = [(side(wall, 1.0, 55.0), side(0.0, 2.0, 9.0))
             for wall in (5.0, 1.0, 4.0, 2.0, 3.0)]
    # quartiles 2 and 4 of the parent's walls; the change's values play no part
    assert tool.spread(pairs) == {"wall_s": 2.0, "setup_s": 0.0, "peak_rss_mb": 0.0}
