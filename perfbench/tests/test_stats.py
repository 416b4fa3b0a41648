"""Percentile rule, closure arithmetic and metric names."""

import json
import os

import pytest

import stats

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# -- percentile with sample count --------------------------------------------


def test_percentile_interpolates_like_numpy():
    values = [1.0, 2.0, 3.0, 4.0]
    assert stats.percentile(values, 50) == 2.5
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 100) == 4.0
    assert stats.percentile(list(range(101)), 99) == 99.0


def test_p99_needs_ten_samples_beyond_it():
    assert stats.beyond(1000, 99) == 10
    assert stats.supported(1000, 99)
    assert not stats.supported(999, 99)


def test_p99_is_fixed_and_refused_below_a_thousand_samples():
    values = [float(i) for i in range(1000)]
    assert stats.p99(values) == stats.percentile(values, 99.0)
    with pytest.raises(ValueError):
        stats.p99(values[:999])


# -- closure arithmetic ------------------------------------------------------


def test_request_layers_add_up_to_the_round_trip():
    timings = {
        "queue_ms": 0.2, "coalesce_ms": 2.1, "engine_ms": 2.9,
        "serialize_ms": 0.1, "total_ms": 9.6,
    }
    layers = stats.split_request_layers(10.7, timings)
    assert layers["outside"] == pytest.approx(1.1)
    assert layers["inside_gap"] == pytest.approx(4.3)
    assert sum(layers.values()) == pytest.approx(10.7)


def test_closure_passes_within_and_fails_beyond_tolerance():
    ok = stats.check_closure("x", {"a": 4.0, "b": 5.9}, 10.0, 0.05)
    assert ok["ok"] and ok["error"] == pytest.approx(0.01)
    bad = stats.check_closure("x", {"a": 4.0, "b": 5.0}, 10.0, 0.05)
    assert not bad["ok"] and bad["error"] == pytest.approx(0.10)
    over = stats.check_closure("x", {"a": 11.0}, 10.0, 0.05)
    assert not over["ok"]


def test_closure_fails_on_a_negative_part_even_when_the_sum_matches():
    overlap = stats.check_closure("x", {"a": 14.0, "gap": -4.0}, 10.0, 0.05)
    assert overlap["error"] == 0.0
    assert not overlap["ok"] and overlap["negative"] == ["gap"]


def test_closure_rejects_a_non_positive_total():
    with pytest.raises(ValueError):
        stats.closure_error({"a": 1.0}, 0.0)


def test_median_band_budget_closes_on_skewed_layers():
    # Two independent skewed layers: their medians do not add up to the
    # median total, the median-band means do.
    rows, totals = [], []
    for i in range(100):
        a = 1.0 if i % 2 else 5.0
        b = 1.0 if i % 3 else 5.0
        rows.append({"a": a, "b": b})
        totals.append(a + b)
    medians = {k: stats.median([r[k] for r in rows]) for k in ("a", "b")}
    median_total = stats.median(totals)
    assert stats.closure_error(medians, median_total) > 0.05
    band = stats.median_band(rows, totals)
    assert stats.closure_error(stats.layer_means(band), median_total) <= 0.05


def test_median_item_keeps_parts_together():
    items = [{"t": 3.0, "p": 1}, {"t": 1.0, "p": 2}, {"t": 2.0, "p": 3}]
    assert stats.median_item(items, "t") == {"t": 2.0, "p": 3}


# -- metric names ------------------------------------------------------------


@pytest.mark.parametrize(
    "name", ["setup_s", "front.outside_ms", "core.fit.select_s", "9lives", "a-b"]
)
def test_valid_names(name):
    assert stats.valid_name(name)


@pytest.mark.parametrize(
    "name", ["", ".hidden", "_x", "has space", "p99%", "a/b", "x" * 65, "é"]
)
def test_invalid_names(name):
    assert not stats.valid_name(name)


def test_benchmark_json_follows_the_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [w["name"] for w in spec["workloads"]] == ["wave", "bulk"]
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(stats.valid_name(name) for name in names)
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert 1 <= spec["run_seconds"] <= 60
    # A steadiness sweep of 4 + 22 runs per workload, each with up to
    # 30 s of set-up, audit and swap tail, fits in 57 minutes.
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * (spec["run_seconds"] + 30) <= 57 * 60
