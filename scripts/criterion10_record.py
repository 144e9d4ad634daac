"""Record acceptance criterion 10's isolated pass rate in two source trees.

  python3 scripts/criterion10_record.py --parent ../parent --change . \
      --runs 10 --out BENCH_22.json

Runs `test_criterion_10_linear_scaling_and_no_dense_allocation` alone, in
a fresh pytest process, N times in each tree, alternating which tree goes
first.  From each run's `ACCEPTANCE 10 PASS|FAIL ... [ratios r1, r2; ...]`
line it keeps the pass or fail and the two ratios; a run that prints no
such line counts as a failure without ratios.  The runs and each side's
pass rate go under the `criterion_10` key of --out, which keeps the rest
of an existing record (run it after `scripts/bench_record.py`).  It only
runs pytest and reads its output.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys

TEST = "tests/test_acceptance.py::test_criterion_10_linear_scaling_and_no_dense_allocation"
LINE = re.compile(r"ACCEPTANCE 10 (PASS|FAIL)\b.*\[ratios ([^,\s]+), ([^;\]\s]+)")


def parse(output: str) -> dict:
    """The pass or fail and ratios of the criterion-10 line in pytest's output."""
    match = LINE.search(output)
    if match is None:
        return {"passed": False, "ratios": None}
    return {"passed": match[1] == "PASS", "ratios": [float(match[2]), float(match[3])]}


def run(tree: str) -> str:
    """pytest's output for the test run alone in ``tree``, on its own sources."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
                           TEST], cwd=tree, env=env, capture_output=True, text=True)
    return proc.stdout + proc.stderr


def alternate(trees: dict, runs: int, runner, parse) -> list:
    """``runs`` runs per tree, the parent first in even runs, each parsed."""
    out = []
    for i in range(runs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        out.append({"run": i, "first": order[0],
                    **{side: parse(runner(trees[side])) for side in order}})
    return out


def store(path: str, key: str, value) -> dict:
    """The record at ``path`` with ``value`` under ``key``, written back."""
    result: dict = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
    result[key] = value
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return result


def record(trees: dict, runs: int, runner=run) -> dict:
    """``runs`` alternating runs per tree, and each side's pass count and rate."""
    out: dict = {"test": TEST, "runs": alternate(trees, runs, runner, parse)}
    for side in trees:
        passes = sum(r[side]["passed"] for r in out["runs"])
        out[side] = {"passes": passes, "runs": runs, "pass_rate": passes / runs if runs else None}
    return out


def main(argv=None, runner=run) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="the parent's source tree")
    p.add_argument("--change", required=True, help="the change's source tree")
    p.add_argument("--runs", type=int, default=10, help="runs per tree")
    p.add_argument("--out", required=True, help="BENCH_<pr>.json to write into")
    args = p.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    result = store(args.out, "criterion_10", record(trees, args.runs, runner))
    for side in trees:
        s = result["criterion_10"][side]
        print(f"{side}: {s['passes']} of {s['runs']} passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
