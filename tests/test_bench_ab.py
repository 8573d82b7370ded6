"""The A/B script's arguments, summary and verdict on canned results; no process is started."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_ab", ROOT / "scripts" / "bench_ab.py")
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)

SPEC = {"end_to_end": [
    {"name": "ops_per_s", "unit": "ops/s", "better": "higher", "bound": 0.24},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "ok_ratio", "unit": "ratio", "better": "higher", "bound": 0.05},
]}


def _runs(base_ops, head_ops, base_rss, head_rss, correct=True):
    return [{"seed": k, "first": "base" if k % 2 == 0 else "head",
             "base": {"correct": True, "metrics": {"ops_per_s": b, "peak_rss_mb": br, "ok_ratio": 1.0}},
             "head": {"correct": correct, "metrics": {"ops_per_s": h, "peak_rss_mb": hr, "ok_ratio": 1.0}}}
            for k, (b, h, br, hr) in enumerate(zip(base_ops, head_ops, base_rss, head_rss))]


def test_quartiles_interpolate_between_order_statistics():
    assert bench_ab.quartiles([5]) == (5, 5, 5)
    assert bench_ab.quartiles([4, 1, 3, 2, 5]) == (2, 3, 4)
    assert bench_ab.quartiles([1, 2, 3, 4]) == (1.75, 2.5, 3.25)
    with pytest.raises(ValueError):
        bench_ab.quartiles([])


def test_a_gain_wins_nine_tenths_and_clears_the_base_spread():
    base = [100, 102, 98, 101, 99, 100, 103, 97, 100, 101]
    head = [b * 1.15 for b in base]
    head[3] = 90  # one lost pair of ten
    summary = bench_ab.summarize(_runs(base, head, [30] * 10, [31] * 10), SPEC)
    ops = summary["ops_per_s"]
    assert (ops["won"], ops["lost"]) == (9, 1)
    assert ops["gain"] and not ops["breach"]
    assert ops["base"]["median"] == 100 and ops["change"] == pytest.approx(0.15)
    rss = summary["peak_rss_mb"]  # lower is better: +3.3% is worse, inside its 10% bound
    assert (rss["won"], rss["lost"], rss["gain"], rss["breach"]) == (0, 10, False, False)
    ties = summary["ok_ratio"]
    assert (ties["won"], ties["lost"], ties["change"], ties["gain"]) == (0, 0, 0, False)
    assert bench_ab.verdict(_runs(base, head, [30] * 10, [31] * 10), summary) == (0, [])


def test_no_gain_when_eight_pairs_of_ten_are_won_or_the_spread_is_wider():
    base = [100] * 10
    head = [120] * 8 + [90, 90]
    assert not bench_ab.summarize(_runs(base, head, [1] * 10, [1] * 10), SPEC)["ops_per_s"]["gain"]
    base = [80, 90, 100, 110, 120, 80, 90, 100, 110, 120]  # quartiles 90 and 110
    head = [b + 15 for b in base]
    ops = bench_ab.summarize(_runs(base, head, [1] * 10, [1] * 10), SPEC)["ops_per_s"]
    assert ops["won"] == 10 and not ops["gain"]


def test_a_breached_bound_or_an_incorrect_run_exits_1():
    runs = _runs([100] * 3, [100] * 3, [30] * 3, [33.3] * 3)
    summary = bench_ab.summarize(runs, SPEC)
    assert summary["peak_rss_mb"]["breach"]
    code, reasons = bench_ab.verdict(runs, summary)
    assert code == 1 and reasons == ["peak_rss_mb is 11.0% worse than the base, past its bound of 10%"]
    runs = _runs([100] * 3, [70] * 3, [30] * 3, [30] * 3, correct=False)
    code, reasons = bench_ab.verdict(runs, bench_ab.summarize(runs, SPEC))
    assert code == 1
    assert reasons[:3] == [f"head run on seed {k} is not correct" for k in range(3)]
    assert reasons[3] == "ops_per_s is 30.0% worse than the base, past its bound of 24%"


def test_a_base_median_of_zero_gives_an_absolute_change():
    runs = _runs([100] * 2, [100] * 2, [1] * 2, [1] * 2)
    for run, value in zip(runs, (0.0, 0.02)):
        run["base"]["metrics"]["ok_ratio"], run["head"]["metrics"]["ok_ratio"] = 0.0, value
    ok = bench_ab.summarize(runs, SPEC)["ok_ratio"]
    assert ok["change"] == pytest.approx(0.01) and not ok["breach"]


def test_the_summary_covers_every_end_to_end_metric_of_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["end_to_end"]]
    runs = [{"seed": 1, "first": "base",
             "base": {"correct": True, "metrics": dict.fromkeys(names, 1.0)},
             "head": {"correct": True, "metrics": dict.fromkeys(names, 1.0)}}]
    assert list(bench_ab.summarize(runs, spec)) == names


@pytest.mark.parametrize("argv", [
    ["--base", "HEAD", "--workload", "sampler", "--pairs", "0", "--seconds", "1"],
    ["--base", "HEAD", "--workload", "sampler", "--pairs", "1", "--seconds", "0"],
    ["--base", "HEAD", "--workload", "sampler", "--pairs", "1", "--seconds", "nan"],
    ["--base", "HEAD", "--workload", "nosuch", "--pairs", "1", "--seconds", "1"],
    ["--base", "HEAD", "--pairs", "1", "--seconds", "1"],
    ["--base", "HEAD", "--tier1", "0"],
    ["--base", "HEAD", "--tier1", "three"],
    ["--base", "HEAD", "--tier1", "3", "--workload", "sampler"],
], ids=["no-pairs", "no-seconds", "nan-seconds", "unknown-workload", "no-workload",
        "no-tier1-pairs", "tier1-not-a-count", "tier1-and-a-workload"])
def test_a_bad_argument_exits_2_before_any_run(argv, capsys):
    with pytest.raises(SystemExit) as exited:
        bench_ab.main(argv)
    assert exited.value.code == 2
    assert "error: " in capsys.readouterr().err


def test_the_defaults_are_ten_20_second_pairs_against_head():
    args = bench_ab._parser().parse_args(["--workload", "sampler"])
    assert (args.base, args.pairs, args.seconds, args.seed, args.out) == ("HEAD", 10, 20.0, 1, None)
    args = bench_ab._parser().parse_args(["--workload", "export", "--base", "abc123", "--pairs", "1",
                                          "--seconds", "1", "--seed", "601"])
    assert (args.base, args.pairs, args.seconds, args.seed) == ("abc123", 1, 1.0, 601)
    args = bench_ab._parser().parse_args(["--tier1", "3"])
    assert (args.base, args.tier1, args.workload) == ("HEAD", 3, None)


def _tier1_runs(base_seconds, head_seconds, head_correct=True):
    return [{"seed": k, "first": "base" if k % 2 == 0 else "head",
             "base": {"correct": True, "metrics": {"tier1_s": b}, "result": "878 passed"},
             "head": {"correct": head_correct, "metrics": {"tier1_s": h}, "result": "878 passed"}}
            for k, (b, h) in enumerate(zip(base_seconds, head_seconds))]


def test_tier1_timings_summarize_as_a_lower_is_better_metric_without_a_bound():
    runs = _tier1_runs([42.0, 41.0, 44.0, 43.0, 40.0], [40.0, 41.5, 39.0, 38.0, 39.5])
    summary = bench_ab.summarize(runs, bench_ab.TIER1_SPEC)
    assert list(summary) == ["tier1_s"]
    entry = summary["tier1_s"]
    assert entry["base"] == {"q1": 41.0, "median": 42.0, "q3": 43.0}
    assert entry["head"] == {"q1": 39.0, "median": 39.5, "q3": 40.0}
    assert (entry["won"], entry["lost"]) == (4, 1)
    assert entry["change"] == pytest.approx(-2.5 / 42)
    assert not entry["gain"] and not entry["breach"]  # 4 of 5 pairs is under nine tenths
    slower = _tier1_runs([40.0] * 3, [80.0] * 3)
    entry = bench_ab.summarize(slower, bench_ab.TIER1_SPEC)["tier1_s"]
    assert entry["change"] == pytest.approx(1.0) and not entry["breach"]
    assert bench_ab.verdict(slower, {"tier1_s": entry}) == (0, [])


def test_a_tier1_run_that_fails_a_test_is_not_correct():
    runs = _tier1_runs([40.0, 41.0], [39.0, 39.0], head_correct=False)
    code, reasons = bench_ab.verdict(runs, bench_ab.summarize(runs, bench_ab.TIER1_SPEC))
    assert code == 1 and reasons == [f"head run on seed {k} is not correct" for k in range(2)]
