"""Summary arithmetic of ``tools/bench_pairs.py`` on canned result lines;
no benchmark runs."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SPEC = [
    {"name": "steps_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "step_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "train_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def result_line(steps, p50, rss) -> str:
    metrics = {"steps_per_s": {"value": steps, "unit": "1/s"},
               "step_p50_ms": {"value": p50, "unit": "ms"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    provenance = json.dumps({"provenance": {}, "checks": {}, "detail": {}})
    result = json.dumps({"correct": True, "attempted": 100, "failed": 0, "metrics": metrics})
    return f"{provenance}\n{result}\n"


# Ten pairs: the change wins steps_per_s on 9 (pair 4 ties), loses
# step_p50_ms on pair 0 only, and grows peak_rss_mb by 12%.
PARENT = [(600 + 10 * i, 1.5, 50.0) for i in range(10)]
CHANGE = [(700 + 10 * i, 1.6 if i == 0 else 1.2, 56.0) for i in range(10)]
CHANGE[4] = (640, 1.2, 56.0)


def summary(tool, parent=PARENT, change=CHANGE):
    rows = tool.summarize([tool.parse_result(result_line(*r)) for r in parent],
                          [tool.parse_result(result_line(*r)) for r in change], SPEC)
    return {row["name"]: row for row in rows}


def test_parse_takes_the_last_line():
    tool = load_tool()
    assert tool.parse_result(result_line(1.0, 2.0, 3.0) + "\n")["metrics"]["step_p50_ms"] == {
        "value": 2.0, "unit": "ms"}
    with pytest.raises(ValueError):
        tool.parse_result("\n")


def test_quartiles_interpolate():
    tool = load_tool()
    assert tool.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert tool.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)
    assert tool.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_summary_counts_wins_medians_and_verdicts():
    tool = load_tool()
    rows = summary(tool)
    assert set(rows) == {"steps_per_s", "step_p50_ms", "peak_rss_mb"}   # train_s unreported
    steps = rows["steps_per_s"]
    assert steps["parent"] == (622.5, 645.0, 667.5)
    assert steps["change"][1] == 740.0
    assert steps["wins"] == 9 and steps["pairs"] == 10
    assert steps["rel_gain"] == pytest.approx(95 / 645)
    assert steps["gain_rule"] and steps["within_bound"]
    p50 = rows["step_p50_ms"]
    assert p50["wins"] == 9 and p50["rel_gain"] == pytest.approx(0.2)
    assert p50["gain_rule"]                         # parent IQR 0
    rss = rows["peak_rss_mb"]
    assert rss["wins"] == 0 and rss["rel_gain"] == pytest.approx(-0.12)
    assert not rss["gain_rule"] and not rss["within_bound"]
    assert "BOUND-EXCEEDED" in tool.format_rows(list(rows.values()))


def test_gain_rule_needs_nine_wins_and_a_gain_over_the_parent_iqr():
    tool = load_tool()
    # Eight wins of ten: no gain, though the median moved far.
    change = [(700, 1.2, 50.0)] * 8 + [(500, 1.2, 50.0)] * 2
    assert not summary(tool, change=change)["steps_per_s"]["gain_rule"]
    # Ten wins, but the median gain (5) is inside the parent's IQR (45).
    change = [(p[0] + 5, 1.2, 50.0) for p in PARENT]
    row = summary(tool, change=change)["steps_per_s"]
    assert row["wins"] == 10 and not row["gain_rule"]


def test_sides_must_pair_up():
    tool = load_tool()
    with pytest.raises(ValueError):
        tool.summarize([tool.parse_result(result_line(*PARENT[0]))], [], SPEC)
