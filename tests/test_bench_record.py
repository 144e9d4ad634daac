"""Tests for scripts/bench_record.py, which builds the BENCH_*.json records."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "scripts" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

LOWER = {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25}
HIGHER = {"name": "cells_per_s", "unit": "cells/s", "better": "higher", "bound": 0.25}


def test_seed_ranges():
    assert bench_record.seeds("uci_grid:321-323,341-342,350") == (
        "uci_grid", [321, 322, 323, 341, 342, 350])
    assert bench_record.seeds("wide_fr:7") == ("wide_fr", [7])


class TestSummary:
    def test_ties_count_for_neither_side(self):
        parent = [1.0] * 10
        out = bench_record.summary(LOWER, parent, [0.5] * 8 + [1.0] * 2)
        assert out["change_wins"] == 8 and out["pairs"] == 10
        assert not out["gain_rule_met"]  # a tie is a pair the change did not win
        assert bench_record.summary(LOWER, parent, parent)["change_wins"] == 0

    def test_higher_is_better(self):
        parent, change = [1.0] * 10, [2.0] * 10
        up = bench_record.summary(HIGHER, parent, change)
        assert up["change_wins"] == 10 and up["gain_rule_met"]
        assert up["relative_change"] == pytest.approx(1.0)
        down = bench_record.summary(LOWER, parent, change)
        assert down["change_wins"] == 0 and not down["gain_rule_met"]

    def test_nine_of_ten_wins_needed(self):
        parent = [1.0] * 10
        assert bench_record.summary(LOWER, parent, [0.5] * 9 + [1.5])["gain_rule_met"]
        eight = bench_record.summary(LOWER, parent, [0.5] * 8 + [1.5] * 2)
        assert eight["change_wins"] == 8 and not eight["gain_rule_met"]

    def test_median_gap_must_exceed_parent_iqr(self):
        # Parent 1.0 .. 1.9: inclusive quartiles 1.225, 1.45, 1.675, IQR 0.45.
        parent = [1.0 + 0.1 * i for i in range(10)]
        near = bench_record.summary(LOWER, parent, [p - 0.3 for p in parent])
        assert near["parent_quartiles"] == pytest.approx([1.225, 1.45, 1.675])
        assert near["change_wins"] == 10 and not near["gain_rule_met"]
        assert bench_record.summary(LOWER, parent, [p - 0.5 for p in parent])["gain_rule_met"]


def write_results(path, seeds, trace, metrics_of, commit, workload="wide_fr",
                  calls_of=lambda seed: [[1.0]], absent=()):
    """Result files as perfbench/run.py writes them: the workload's raw
    metrics, without a layer the tree does not have, and the result's,
    which report such a layer as 0.0 and list it under absent_layers."""
    path.mkdir(parents=True, exist_ok=True)
    for seed in seeds:
        metrics = metrics_of(seed)
        result = {k: {"value": 0.0 if k in absent else v, "unit": "s"} for k, v in metrics.items()}
        record = {"machine": {"git_commit": commit, "src_tree": commit + "-tree", "cpus": 2},
                  "result": {"correct": True, "metrics": result},
                  "metrics": {k: v for k, v in metrics.items() if k not in absent},
                  "absent_layers": list(absent), "pass_call_s": calls_of(seed)}
        (path / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record))


def test_record_from_result_files(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"]]
    for side, scale in (("parent", 1.0), ("change", 0.5)):
        write_results(tmp_path / side, range(1, 11), 0,
                      lambda seed: {n: scale * (1.0 + 0.01 * seed) for n in names}, side)
        write_results(tmp_path / side, [1], 1,
                      lambda seed: {"lowrank.self_s": scale, "not.a.layer": 1.0}, side)
    out = tmp_path / "BENCH.json"
    assert bench_record.main(["--parent", str(tmp_path / "parent"),
                              "--change", str(tmp_path / "change"), "--workload", "wide_fr:1-10",
                              "--trace", "wide_fr:1", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert (record["parent"]["git_commit"], record["change"]["git_commit"]) == ("parent", "change")
    assert record["machine"] == {"cpus": 2}
    workload = record["workloads"]["wide_fr"]
    assert workload["correct"] and [p["seed"] for p in workload["pairs"]] == list(range(1, 11))
    assert set(workload["summary"]) == set(names)
    for metric in spec["end_to_end"]:  # every change value is half its parent's
        s = workload["summary"][metric["name"]]
        lower = metric["better"] == "lower"
        assert s["change_wins"] == (10 if lower else 0)
        assert s["gain_rule_met"] == lower
    assert record["traces"]["wide_fr"] == [
        {"seed": 1, "parent": {"lowrank.self_s": 1.0}, "change": {"lowrank.self_s": 0.5}}]


def test_a_layer_absent_on_one_side_is_listed_on_both(tmp_path):
    layers = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    gone = "data.split_standardize.calls"
    for side, absent in (("parent", ()), ("change", (gone,))):
        write_results(tmp_path / side, [1], 1, lambda seed: dict.fromkeys(layers, 1.0), side,
                      absent=absent)
    out = tmp_path / "BENCH.json"
    assert bench_record.main(["--parent", str(tmp_path / "parent"), "--change",
                              str(tmp_path / "change"), "--trace", "wide_fr:1",
                              "--out", str(out)]) == 0
    (trace,) = json.loads(out.read_text())["traces"]["wide_fr"]
    assert sorted(trace["parent"]) == sorted(trace["change"]) == sorted(layers)
    assert (trace["parent"][gone], trace["change"][gone]) == (1.0, 0.0)


def test_each_uci_grid_call_keeps_its_fastest_pass(tmp_path):
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    labels = bench_record.call_labels("uci_grid")
    assert labels[0] == "sgd_64" and labels[-1] == "adagram_fr_128" and len(set(labels)) == 10

    def calls_of(scale):  # three passes; call i is fastest, at i + 1 + seed / 100, in pass i % 3
        return lambda seed: [[(i + 1 + seed / 100) * (scale if i == 9 else 1.0)
                              * (1.0 if i % 3 == p else 1.5) for i in range(10)]
                             for p in range(3)]
    for side, scale in (("parent", 1.0), ("change", 0.5)):
        write_results(tmp_path / side, range(1, 11), 0, lambda seed: dict.fromkeys(names, 1.0),
                      side, "uci_grid", calls_of(scale))
    out = tmp_path / "BENCH.json"
    assert bench_record.main(["--parent", str(tmp_path / "parent"), "--change",
                              str(tmp_path / "change"), "--workload", "uci_grid:1-10",
                              "--out", str(out)]) == 0
    calls = json.loads(out.read_text())["workloads"]["uci_grid"]["calls"]
    assert [c["call"] for c in calls] == labels
    first, last = calls[0], calls[-1]
    assert first["fastest_s"][0] == [pytest.approx(1.01)] * 2 and first["pairs"] == 10
    assert first["parent_quartiles"][1] == pytest.approx(1.055)  # the median of 1.01 .. 1.10
    assert first["change_wins"] == 0 and not first["gain_rule_met"]
    assert last["fastest_s"][0] == [pytest.approx(10.01), pytest.approx(5.005)]
    assert last["change_wins"] == 10 and last["gain_rule_met"]
    assert last["relative_change"] == pytest.approx(-0.5)
    result = {"pass_call_s": calls_of(1.0)(1)}  # run_s sums these minima
    fastest = bench_record.fastest_calls(result)
    assert sum(fastest) == pytest.approx(sum(i + 1.01 for i in range(10)))


_spec10 = importlib.util.spec_from_file_location("criterion10_record",
                                                 ROOT / "scripts" / "criterion10_record.py")
criterion10_record = importlib.util.module_from_spec(_spec10)
_spec10.loader.exec_module(criterion10_record)

PASS_OUT = ("ACCEPTANCE 10 PASS  per-step cost linear in mn; no dense mn x mn allocation"
            "  [ratios 1.72, 1.75; peak 120 KiB]\n.\n1 passed in 9.81s\n")
FAIL_OUT = ("ACCEPTANCE 10 FAIL  per-step cost linear in mn; no dense mn x mn allocation"
            "  [ratios 1.08, 1.86; peak 120 KiB]\nF\nAssertionError\n1 failed in 9.90s\n")


class TestCriterion10Record:
    def test_parse_canned_lines(self):
        assert criterion10_record.parse(PASS_OUT) == {"passed": True, "ratios": [1.72, 1.75]}
        assert criterion10_record.parse(FAIL_OUT) == {"passed": False, "ratios": [1.08, 1.86]}
        crashed = "ImportError while loading conftest\n1 error in 0.20s\n"
        assert criterion10_record.parse(crashed) == {"passed": False, "ratios": None}
        # Only criterion 10's line counts.
        other = "ACCEPTANCE  9 PASS  something  [ratios 1.90, 1.80]\n"
        assert criterion10_record.parse(other)["ratios"] is None

    def test_alternating_runs_and_pass_rates(self, tmp_path):
        out = tmp_path / "BENCH.json"
        out.write_text(json.dumps({"workloads": {"wide_ps": {}}}))
        calls = []

        def runner(tree):  # the change fails its second run
            calls.append(tree)
            return FAIL_OUT if tree.endswith("change") and calls.count(tree) == 2 else PASS_OUT
        argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                "--runs", "4", "--out", str(out)]
        assert criterion10_record.main(argv, runner) == 0
        sides = [pathlib.Path(t).name for t in calls]
        assert sides == ["parent", "change", "change", "parent"] * 2
        record = json.loads(out.read_text())
        assert record["workloads"] == {"wide_ps": {}}  # the rest of the record is kept
        c10 = record["criterion_10"]
        assert [r["first"] for r in c10["runs"]] == ["parent", "change"] * 2
        assert c10["runs"][1]["change"] == {"passed": False, "ratios": [1.08, 1.86]}
        assert (c10["parent"]["passes"], c10["parent"]["pass_rate"]) == (4, 1.0)
        assert (c10["change"]["passes"], c10["change"]["pass_rate"]) == (3, 0.75)


_spec_t1 = importlib.util.spec_from_file_location("tier1_record",
                                                  ROOT / "scripts" / "tier1_record.py")
tier1_record = importlib.util.module_from_spec(_spec_t1)
_spec_t1.loader.exec_module(tier1_record)

TIER1_OUT = (
    "........................................................................ [ 11%]\n"
    "============================= slowest durations ==============================\n"
    "8.31s setup    tests/test_acceptance.py::test_criterion_8_uci_accuracy_parity\n"
    "4.59s call     tests/test_acceptance.py::test_criterion_10_linear_scaling_and_no_dense_"
    "allocation\n"
    "0.12s setup    tests/test_acceptance.py::test_criterion_10_linear_scaling_and_no_dense_"
    "allocation\n"
    "0.40s call     tests/test_acceptance.py::test_criterion_8_uci_accuracy_parity\n"
    "\n(12 durations < 0.005s hidden.  Use -vv to show these durations.)\n"
    "602 passed in 30.54s\n")
TIER1_FAIL_OUT = (
    "FAILED tests/test_acceptance.py::test_criterion_10_linear_scaling_and_no_dense_allocation"
    " - AssertionError\n"
    "1 failed, 601 passed, 2 warnings in 62.80s (0:01:02)\n")


class TestTier1Record:
    def test_parse_canned_output(self):
        assert tier1_record.parse(TIER1_OUT) == {
            "passed": 602, "failed": 0, "total_s": 30.54,
            "criterion_8_setup_s": 8.31, "criterion_10_call_s": 4.59}
        assert tier1_record.parse(TIER1_FAIL_OUT) == {
            "passed": 601, "failed": 1, "total_s": 62.8,
            "criterion_8_setup_s": None, "criterion_10_call_s": None}
        crashed = "ImportError while loading conftest\n"
        assert tier1_record.parse(crashed)["total_s"] is None

    def test_alternating_runs_and_medians(self, tmp_path):
        out = tmp_path / "BENCH.json"
        out.write_text(json.dumps({"criterion_10": {"runs": []}}))
        calls = []

        def runner(tree):  # the change's runs are a second faster, its first crashes
            calls.append(tree)
            if tree.endswith("change"):
                return "crashed\n" if len(calls) == 2 else TIER1_OUT.replace("30.54", "29.54")
            return TIER1_OUT
        argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                "--runs", "3", "--out", str(out)]
        assert tier1_record.main(argv, runner) == 0
        assert [pathlib.Path(t).name for t in calls] == ["parent", "change", "change", "parent",
                                                          "parent", "change"]
        record = json.loads(out.read_text())
        assert record["criterion_10"] == {"runs": []}  # the rest of the record is kept
        t1 = record["tier1"]
        assert [r["first"] for r in t1["runs"]] == ["parent", "change", "parent"]
        assert t1["runs"][0]["change"]["total_s"] is None
        assert t1["parent"] == {"runs": 3, "median_total_s": 30.54,
                                "median_criterion_8_setup_s": 8.31,
                                "median_criterion_10_call_s": 4.59}
        assert t1["change"]["median_total_s"] == 29.54
