"""Run an adagram benchmark workload and print its metrics.

  python3 perfbench/run.py --workload uci_grid --seed 1 --seconds 25 --trace 0
  python3 perfbench/run.py --workload all --seed 1
  python3 perfbench/run.py --workload wide_ps --seed 1 --repeat 10
  python3 perfbench/run.py --record-reference

A run starts the workload in a fresh process (perfbench/workload.py) with
BLAS threads pinned to 1 in its environment.  With --trace 0 it prints the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones;
the last line is one JSON object.  It exits 1 when an output check fails
and 2 when the workload cannot be run; the machine record and the details
go to perfbench/out/results/.  --repeat N runs seeds seed..seed+N-1 and
prints each metric's median and quartiles.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench.machine import THREAD_VARS  # noqa: E402  (stdlib only)

RESULTS_DIR = os.path.join(HERE, "out", "results")
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The workload could not be run or measured."""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # The package runs `git describe` per cell; keep git inside the checkout.
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    return env


def spawn(args: list[str], timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run perfbench.workload in a fresh process; return its JSON line."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "perfbench.workload", *args, "--t0", repr(t0)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process exceeded {timeout} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited {proc.returncode}: {proc.stderr.strip()[-3000:]}")
    return json.loads(lines[-1])


def run_once(spec: dict, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One measured run: the result object plus the details for the file."""
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    setup = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setup.append(spawn(base + ["--setup-only"])["setup_s"])
    child = spawn(base + ["--trace", str(trace)])
    measured = child["metrics"]
    if not trace:
        setup.append(child["setup_s"])
        measured["setup_s"] = statistics.median(setup)

    metrics, absent = {}, []
    for m in spec["per_layer" if trace else "end_to_end"]:
        value = measured.get(m["name"])
        if value is None and trace:
            # A layer function this tree no longer has: it ran 0 times.
            absent.append(m["name"])
            value = 0.0
        elif value is None:
            raise BenchError(f"workload {workload} did not measure {m['name']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    result = {"correct": child["failed"] == 0, "attempted": child["attempted"],
              "failed": child["failed"], "metrics": metrics}

    os.makedirs(RESULTS_DIR, exist_ok=True)
    details = dict(child, workload=workload, seed=seed, seconds=seconds, trace=trace,
                   setup_samples=setup, absent_layers=absent, result=result)
    with open(os.path.join(RESULTS_DIR, f"{workload}-seed{seed}-trace{trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)
    return details


def print_run(d: dict) -> None:
    r = d["result"]
    print(f"{d['workload']} seed={d['seed']} trace={d['trace']}: "
          f"{len(d['pass_call_s'])} passes of {d['cells_per_pass']} cells, "
          f"{r['attempted']} operations, {r['failed']} failed")
    for e in d["errors"]:
        print(f"  check failed: {e}")
    for name, m in r["metrics"].items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat(spec: dict, workloads: list[str], seed: int, n: int, seconds: float, trace: int) -> int:
    """Run each workload on n seeds; print median, quartiles and spread."""
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    ok = True
    for w in workloads:
        samples: dict[str, list[float]] = {}
        units = {}
        for i in range(n):
            d = run_once(spec, w, seed + i, seconds, trace)
            ok = ok and d["result"]["correct"]
            for name, m in d["result"]["metrics"].items():
                samples.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{w} seed={seed + i}: " + " ".join(
                f"{k}={m['value']:.6g}" for k, m in d["result"]["metrics"].items()
                if k in bounds), flush=True)
        print(f"{w}: {n} runs, seeds {seed}..{seed + n - 1}")
        print(f"  {'metric':<44} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6} unit")
        for name, vals in samples.items():
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / abs(med) if med else float("nan")
            bound = bounds.get(name)
            print(f"  {name:<44} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} "
                  f"{bound if bound is not None else '':>6} {units[name]} (n={len(vals)})")
    return 0 if ok else 1


def record_reference(workloads: list[str]) -> int:
    """Rewrite reference.json from the current tree's outputs."""
    reference = {}
    for w in workloads:
        out = spawn(["--workload", w, "--seed", "0", "--record-reference"])
        reference[w] = {"selected": out["selected"], "final_train_loss": out["final_train_loss"]}
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    print(json.dumps(reference, indent=1))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default="all", help="a workload of BENCHMARK.json, or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, help="timed window (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0, help="runs on successive seeds")
    p.add_argument("--record-reference", action="store_true")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "adagram", "__init__.py")):
        print(f"error: no adagram source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if args.seed < 0 or not set(workloads) <= set(names):
        p.error(f"need --seed >= 0 and --workload in {names + ['all']}")
    seconds = args.seconds or spec["run_seconds"]

    try:
        if args.record_reference:
            return record_reference(names)
        if args.repeat:
            return repeat(spec, workloads, args.seed, args.repeat, seconds, args.trace)
        runs = [run_once(spec, w, args.seed, seconds, args.trace) for w in workloads]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for d in runs:
        print_run(d)
    if len(runs) == 1:
        result = runs[0]["result"]
    else:
        result = {
            "correct": all(d["result"]["correct"] for d in runs),
            "attempted": sum(d["result"]["attempted"] for d in runs),
            "failed": sum(d["result"]["failed"] for d in runs),
            "metrics": {f"{d['workload']}.{k}": m for d in runs
                        for k, m in d["result"]["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
