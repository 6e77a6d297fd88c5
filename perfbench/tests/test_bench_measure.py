"""Span arithmetic, percentile rules and metric names of the benchmark."""

import json
from pathlib import Path

import numpy as np
import pytest

from measure import (
    TAIL_CANDIDATES,
    HostSpeed,
    Tracer,
    aggregate,
    check_metric_name,
    count_under,
    percentile,
    samples_beyond,
    self_times,
    tail_percentile,
)

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["root", 0, 100, -1],
        ["a", 10, 30, 0],
        ["b", 20, 50, 0],     # overlaps a: the union [10, 50] is covered once
        ["a.child", 15, 25, 1],
        ["late", 90, 120, 0],  # runs past its parent: only [90, 100] counts
    ]
    assert self_times(spans) == [100 - 40 - 10, 20 - 10, 30, 10, 30]


def test_self_times_of_a_traced_call_tree_sum_to_its_wall_time():
    tracer = Tracer()

    def leaf(x):
        return sum(range(x))

    traced_leaf = tracer.wrap("leaf", leaf)

    def mid(x):
        return traced_leaf(x) + traced_leaf(2 * x)

    traced_mid = tracer.wrap("mid", mid)
    root = tracer.begin("root")
    for n in (1000, 2000):
        traced_mid(n)
    tracer.end(root)

    agg = aggregate(tracer.spans)
    assert agg["leaf"]["calls"] == 4 and agg["mid"]["calls"] == 2
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 1, 0, 4, 4]
    total = sum(a["self_s"] for a in agg.values())
    assert total == pytest.approx(agg["root"]["total_s"], rel=1e-9, abs=1e-12)
    assert all(a["self_s"] >= 0 for a in agg.values())


def test_count_under_credits_the_nearest_listed_ancestor():
    spans = [
        ["solve", 0, 10, -1],
        ["eval", 1, 2, 0],
        ["inner", 3, 9, 0],
        ["eval", 4, 5, 2],
        ["eval", 11, 12, -1],   # no listed ancestor
        ["rescan", 13, 20, -1],
        ["eval", 14, 15, 5],
    ]
    got = count_under(spans, "eval", frozenset({"solve", "rescan"}))
    assert got == {"solve": 2, "rescan": 1}


def test_percentile_matches_numpy():
    rng = np.random.default_rng(3)
    for n in (1, 2, 7, 100, 1001):
        xs = list(rng.exponential(size=n))
        for p in (0, 50, 90, 99, 100):
            assert percentile(xs, p) == pytest.approx(np.percentile(xs, p), rel=1e-12)


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (99, 90.0), (100, 90.0), (901, 90.0), (902, 99.0),
    (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_is_the_highest_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    xs = list(range(n))
    higher = [p for p in TAIL_CANDIDATES if expected is None or p > expected]
    for p in higher:
        assert sum(x > percentile(xs, p) for x in xs) < 10
    if expected is not None:
        assert sum(x > percentile(xs, expected) for x in xs) == samples_beyond(n, expected) >= 10


def test_spec_metric_names_are_legal_and_unique():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert check_metric_name(name) == name


@pytest.mark.parametrize("bad", ["", "_lead", ".lead", "has space", "slash/name", "x" * 65,
                                 "unicodeé", "colon:name"])
def test_illegal_metric_names_are_refused(bad):
    with pytest.raises(ValueError):
        check_metric_name(bad)


def test_host_speed_scales_a_piece_by_the_samples_around_it():
    speed = HostSpeed()
    k = speed.REFERENCE_S
    speed.samples = [(0.0, k), (10.0, 2 * k), (20.0, 2 * k), (21.0, k / 2), (40.0, k)]
    assert speed.scale(12.0, 18.0) == 0.5                    # nearest: 10 and 20
    assert speed.scale(20.5, 20.6) == pytest.approx(1 / 1.25)   # nearest: 20 and 21
    assert speed.scale(15.0, 30.0) == pytest.approx(1 / 1.5)   # 10; 20, 21 inside; 40
    assert speed.scale(-1.0, 50.0) == 1.0                    # all five: median k
    assert speed.seconds([(12.0, 18.0), (30.0, 31.0)]) == pytest.approx(6 * 0.5 + 1 / 0.75)
    speed.tick(force=True)
    assert len(speed.samples) == 6 and speed.samples[-1][1] > 0
