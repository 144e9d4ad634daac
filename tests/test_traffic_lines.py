"""Smoke test of scripts/traffic_lines.py, which lists the package lines
that the benchmark workloads never run."""

import importlib.util
import os
import pathlib
import re
import sys

import pytest

from adagram import optim

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("traffic_lines",
                                               ROOT / "scripts" / "traffic_lines.py")
traffic_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(traffic_lines)

SMALL_SGD_RUN = ["--dataset", "synthetic:isotropic", "--optimizer", "sgd", "--epochs", "1",
                 "--n-samples", "60", "--n-features", "3", "--out", "run.csv"]


def code_lines(fn) -> set[int]:
    return set(traffic_lines.function_lines(fn.__code__))


def test_one_small_call(tmp_path):
    cwd, before = os.getcwd(), sys.gettrace()
    hits = traffic_lines.trace_calls([SMALL_SGD_RUN], str(tmp_path))
    assert (os.getcwd(), sys.gettrace()) == (cwd, before)
    assert (tmp_path / "run.csv").exists()
    ran = hits[str(ROOT / "src" / "adagram" / "optim.py")]
    assert code_lines(optim.sgd_step) <= ran
    assert not code_lines(optim.adagram_step) & ran

    text = traffic_lines.report(hits)
    heads = [line for line in text.splitlines() if not line.startswith("  ")]
    assert {h.split(":")[0] for h in heads} >= {"optim.py", "bench.py", "cli.py"}
    assert all(re.fullmatch(r"\w+\.py: \d+ of \d+ function lines not run", h) for h in heads)
    first = min(code_lines(optim.adagram_step))
    optim_ranges = text.split("optim.py:")[1].split("\n", 1)[1].split("\nprecond.py:")[0]
    assert re.search(rf"\b{first}-\d+", optim_ranges)


def test_failing_call_raises(tmp_path):
    with pytest.raises(RuntimeError, match="exited 2"):
        traffic_lines.trace_calls([["--dataset", "synthetic:dense", "--optimizer", "kate"]],
                                  str(tmp_path))


def test_workload_calls_name_their_inputs(tmp_path):
    traffic_lines.write_inputs(str(tmp_path))
    argvs = traffic_lines.workload_argvs()
    assert len(argvs) == 12
    named = {a[a.index(flag) + 1] for a in argvs for flag in ("--dataset", "--grid") if flag in a}
    assert named - {"synthetic:dense"} == {p.name for p in tmp_path.iterdir()}
