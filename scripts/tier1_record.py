"""Record tier-1 wall times in two source trees.

  python3 scripts/tier1_record.py --parent ../parent --change . \
      --runs 5 --out BENCH_23.json

Runs the tier-1 suite (the command in ROADMAP.md) with `--durations=0`, in
a fresh pytest process, N times in each tree, alternating which tree goes
first.  From each run's output it keeps the pass and fail counts and the
total of pytest's last line, the setup time of criterion 8's grid fixture
(charged to the one test that uses it) and the call time of criterion 10;
a time the output does not show is None.  The runs and each side's median
times go under the `tier1` key of --out, which keeps the rest of an
existing record (run it after `scripts/bench_record.py`).  It only runs
pytest and reads its output.
"""

from __future__ import annotations

import argparse
import os
import re
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from criterion10_record import alternate, store  # noqa: E402

ARGS = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", "--durations=0"]
ACCEPTANCE = "tests/test_acceptance.py::test_criterion_"
DURATIONS = {
    "criterion_8_setup_s": ("setup", ACCEPTANCE + "8_uci_accuracy_parity"),
    "criterion_10_call_s": ("call", ACCEPTANCE + "10_linear_scaling_and_no_dense_allocation"),
}
FINAL = re.compile(r"^=*\s*(\d+ \w+(?:, \d+ \w+)*) in ([\d.]+)s\b", re.M)


def parse(output: str) -> dict:
    """The counts and total of pytest's last line, and the two durations."""
    out: dict = {"passed": 0, "failed": 0, "total_s": None}
    final = FINAL.findall(output)
    if final:
        counts, total = final[-1]
        for count in counts.split(", "):
            n, _, outcome = count.partition(" ")
            if outcome in ("passed", "failed"):
                out[outcome] = int(n)
        out["total_s"] = float(total)
    for key, (phase, test) in DURATIONS.items():
        match = re.search(rf"^([\d.]+)s {phase} +{re.escape(test)}$", output, re.M)
        out[key] = float(match[1]) if match else None
    return out


def run(tree: str) -> str:
    """pytest's output for tier-1 in ``tree``, on its own sources."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run([sys.executable, "-m", "pytest", *ARGS], cwd=tree, env=env,
                          capture_output=True, text=True)
    return proc.stdout + proc.stderr


def record(trees: dict, runs: int, runner=run) -> dict:
    """``runs`` alternating runs per tree, and each side's median of each
    time over the runs that show it."""
    out: dict = {"args": ARGS, "runs": alternate(trees, runs, runner, parse)}
    for side in trees:
        times = {key: [r[side][key] for r in out["runs"] if r[side][key] is not None]
                 for key in ("total_s", *DURATIONS)}
        out[side] = {"runs": runs, **{f"median_{key}": statistics.median(v) if v else None
                                      for key, v in times.items()}}
    return out


def main(argv=None, runner=run) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="the parent's source tree")
    p.add_argument("--change", required=True, help="the change's source tree")
    p.add_argument("--runs", type=int, default=5, help="runs per tree")
    p.add_argument("--out", required=True, help="BENCH_<pr>.json to write into")
    args = p.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    result = store(args.out, "tier1", record(trees, args.runs, runner))
    for side in trees:
        s = result["tier1"][side]
        print(f"{side}: median total {s['median_total_s']} s, criterion-8 fixture "
              f"{s['median_criterion_8_setup_s']} s, "
              f"criterion 10 {s['median_criterion_10_call_s']} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
