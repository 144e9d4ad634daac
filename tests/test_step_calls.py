"""Smoke test of scripts/step_calls.py, which counts the calls of one lone
optimizer step and times it."""

import importlib.util
import json
import math
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("step_calls", ROOT / "scripts" / "step_calls.py")
step_calls = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(step_calls)


def test_counts_python_and_builtin_calls():
    def inner():
        return len("ab")

    before = sys.getprofile()
    python, builtin, names = step_calls.count_calls(lambda: [inner(), inner(), abs(-1)])
    assert sys.getprofile() is before
    assert (python, builtin) == (2, 3) and names == {"len": 2, "abs": 1}


def test_measure_a_small_stack():
    out = step_calls.measure("adagram_fr", k=2, mn=12, rank=3, mu=0.9, steps=3, repeat=2)
    assert {k: out[k] for k in ("kind", "k", "mn", "rank", "mu")} == \
        {"kind": "adagram_fr", "k": 2, "mn": 12, "rank": 3, "mu": 0.9}
    assert out["python_calls"] > 10 and out["builtin_calls"] > 10
    assert sum(out["top_builtins"].values()) <= out["builtin_calls"]
    assert 0.0 < out["us_per_step"] < math.inf


def test_main_prints_one_json_line(capsys):
    assert step_calls.main(["sgd", "--mn", "6", "--steps", "2", "--repeat", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("sgd K=1 mn=6 r=5 mu=None: ")
    out = json.loads(lines[-1])
    assert out["kind"] == "sgd" and out["python_calls"] >= 1
