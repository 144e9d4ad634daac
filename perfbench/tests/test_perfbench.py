"""Tests of the benchmark harness itself.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import inputs, shims, workload  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _bindings():
    """Every function bound in the package's namespaces and wrapped classes."""
    out = {}
    for ns in shims.namespaces():
        for attr, obj in vars(ns).items():
            if isinstance(obj, types.FunctionType):
                out[(ns.__name__, attr)] = obj
    for name, _, cls in shims._targets():
        if cls is not None:
            out[(cls.__qualname__, name)] = cls.__dict__[name.rsplit(".", 1)[1]]
    return out


def test_install_then_uninstall_restores_every_attribute():
    from adagram import bench, lowrank, optim, precond

    before = _bindings()
    installed = shims.install(shims.SpanRecorder())
    try:
        # Names bound with `from .x import y` are replaced where they are called.
        for owner, attr, same_as in ((precond, "projector_splitting_step", lowrank.projector_splitting_step),
                                     (optim, "apply_inverse", precond.apply_inverse),
                                     (bench, "load_libsvm", None),
                                     (lowrank, "orthogonal_factorization", None)):
            shim = getattr(owner, attr)
            assert shim is not before[(owner.__name__, attr)]
            assert shim.__wrapped__ is before[(owner.__name__, attr)]
            if same_as is not None:
                assert shim is same_as
        assert optim.AdaGram.step.__wrapped__ is before[("AdaGram", "optim.Optimizer.step")]
    finally:
        installed.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_times_nonnegative_and_within_traced_run(tmp_path, monkeypatch):
    from adagram import cli

    monkeypatch.chdir(tmp_path)
    recorder = shims.SpanRecorder()
    installed = shims.install(recorder)
    try:
        t0 = time.perf_counter()
        rc = cli.main(["--dataset", "synthetic:dense", "--optimizer", "adagram_ps",
                       "--n-features", "15", "--n-samples", "100", "--rank", "3",
                       "--epochs", "2", "--batch-size", "16", "--out", "run.csv"])
        run_s = time.perf_counter() - t0
    finally:
        installed.uninstall()
    assert rc == 0
    stats = shims.layer_stats(recorder, 1)
    self_times = {k: v for k, v in stats.items() if k.endswith(".self_s") and k.count(".") >= 2}
    assert self_times and all(v >= 0.0 for v in self_times.values())
    assert sum(self_times.values()) <= run_s
    module_total = sum(stats[f"{m}.self_s"] for m in shims.MODULES if f"{m}.self_s" in stats)
    assert module_total == pytest.approx(sum(self_times.values()))
    # 80 train samples in batches of 16, two epochs.
    assert stats["glm.gradient.calls"] == stats["optim.Optimizer.step.calls"] == 10
    assert stats["lowrank.orthogonal_factorization.calls"] == 20
    assert stats["cli.main.calls"] == 1


def _last_json(cmd):
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_declared(trace, group):
    result = _last_json([sys.executable, "perfbench/run.py", "--workload", "wide_fr",
                         "--seed", "3", "--seconds", "1", "--trace", str(trace)])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_benchmark_json_within_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(inputs.WORKLOADS)
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    assert len(set(names + [m["name"] for m in metrics])) == len(names) + len(metrics)
    assert all(name.match(n) for n in names) and all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    for m in metrics:
        assert name.match(m["name"]) and unit.match(m["unit"]) and m["better"] in ("higher", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_same_seed_same_inputs_other_seed_other_inputs():
    assert inputs.standin_libsvm(7).encode() == inputs.standin_libsvm(7).encode()
    assert inputs.standin_libsvm(7) != inputs.standin_libsvm(8)
    lines = inputs.standin_libsvm(7).splitlines()
    assert len(lines) == inputs.STANDIN_SAMPLES
    assert {line.split()[0] for line in lines} == {"0", "1"}
    for w in inputs.WIDE_KIND:
        assert inputs.wide_argv(w, 7) == inputs.wide_argv(w, 7) != inputs.wide_argv(w, 8)


def test_reference_check_catches_a_small_loss_change(tmp_path, monkeypatch):
    path = tmp_path / "reference.json"
    path.write_text(json.dumps({"wide_ps": {"selected": {"adagram_ps": "abc"},
                                            "final_train_loss": {"abc": 0.25, "abd": None}}}))
    monkeypatch.setattr(workload, "REFERENCE_PATH", str(path))

    def failures(selected, final_loss):
        oc = workload.Outcome(cells=2, selected=selected, final_loss=final_loss)
        workload.check_reference("wide_ps", oc)
        return oc.failed

    assert failures({"adagram_ps": "abc"}, {"abc": 0.25, "abd": None}) == 0
    assert failures({"adagram_ps": "abc"}, {"abc": 0.25 * (1 + 1e-7), "abd": None}) == 0
    assert failures({"adagram_ps": "abc"}, {"abc": 0.25 * (1 + 1e-5), "abd": None}) == 1
    assert failures({"adagram_ps": "abc"}, {"abc": 0.25, "abd": 0.3}) == 1
    assert failures({"adagram_ps": "abd"}, {"abc": 0.25}) == 2


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "wide_ps",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
