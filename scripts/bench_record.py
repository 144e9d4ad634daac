"""Build a BENCH_<n>.json record from perfbench result files of two checkouts.

  python3 scripts/bench_record.py --parent ../parent/perfbench/out/results \
      --change perfbench/out/results --workload wide_fr:101-110 \
      --workload uci_grid:301-310 --trace wide_fr:1 --out BENCH_7.json

Each --workload names the seeds (comma-separated ranges) of alternating
parent/change pairs run with `perfbench/run.py --trace 0`; each --trace
names seeds run on both sides with `--trace 1`.  For every end-to-end
metric of BENCHMARK.json the record keeps each pair, each side's median
and quartiles, the change's wins and whether the gain rule holds (the
change wins at least nine tenths of the pairs and the medians differ by
more than the parent's interquartile range).  The same summary is kept
for each cli.main call of a pass, labelled by kind and batch size for
uci_grid: the call's fastest time over a run's passes, the term that
run_s sums.  Traced pairs keep the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.inputs import GRID_CALLS  # noqa: E402

CALL_TIME = {"unit": "s", "better": "lower", "bound": None}


def seeds(spec: str) -> tuple[str, list[int]]:
    """name:first-last[,first-last...] as the name and its seeds."""
    name, _, spans = spec.partition(":")
    out = []
    for span in spans.split(","):
        lo, _, hi = span.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return name, out


def load(results: str, workload: str, seed: int, trace: int) -> dict:
    with open(os.path.join(results, f"{workload}-seed{seed}-trace{trace}.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def quartiles(values: list[float]) -> list[float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def call_labels(workload: str) -> list[str]:
    """Names of a pass's cli.main calls, as the workload orders them."""
    return [f"{kind}_{bs}" for kind, bs in GRID_CALLS] if workload == "uci_grid" else [workload]


def fastest_calls(result: dict) -> list[float]:
    """Each call's fastest time over the passes of one run."""
    return [min(times) for times in zip(*result["pass_call_s"])]


def summary(metric: dict, parent: list[float], change: list[float]) -> dict:
    lower = metric["better"] == "lower"
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    pq, cq = quartiles(parent), quartiles(change)
    return {
        "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
        "parent_quartiles": pq, "change_quartiles": cq,
        "relative_change": cq[1] / pq[1] - 1.0 if pq[1] else None,
        "change_wins": wins, "pairs": len(parent),
        "gain_rule_met": wins >= 0.9 * len(parent) and abs(cq[1] - pq[1]) > pq[2] - pq[0]
        and ((cq[1] < pq[1]) if lower else (cq[1] > pq[1])),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="parent's perfbench/out/results")
    p.add_argument("--change", required=True, help="change's perfbench/out/results")
    p.add_argument("--workload", action="append", default=[], help="name:first-last seeds")
    p.add_argument("--trace", action="append", default=[], help="name:first-last traced seeds")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    record: dict = {"benchmark": "perfbench/run.py", "run_seconds": spec["run_seconds"],
                    "workloads": {}, "traces": {}}
    for name, seed_list in map(seeds, args.workload):
        runs = {side: [load(d, name, s, 0) for s in seed_list]
                for side, d in (("parent", args.parent), ("change", args.change))}
        for side, recs in runs.items():
            record.setdefault(side, {k: recs[0]["machine"][k] for k in ("git_commit", "src_tree")})
        record.setdefault("machine", {k: v for k, v in runs["parent"][0]["machine"].items()
                                      if k not in ("git_commit", "src_tree")})
        record["workloads"][name] = {
            "correct": all(r["result"]["correct"] for rs in runs.values() for r in rs),
            "pairs": [{"seed": s, **{side: runs[side][i]["metrics"] for side in runs}}
                      for i, s in enumerate(seed_list)],
            "summary": {m["name"]: summary(m, [r["metrics"][m["name"]] for r in runs["parent"]],
                                           [r["metrics"][m["name"]] for r in runs["change"]])
                        for m in spec["end_to_end"]},
        }
        fastest = {side: [fastest_calls(r) for r in recs] for side, recs in runs.items()}
        record["workloads"][name]["calls"] = [  # in the order of a pass
            {"call": label, "fastest_s": [[p[i], c[i]] for p, c in zip(*fastest.values())],
             **summary(CALL_TIME, *([r[i] for r in rs] for rs in fastest.values()))}
            for i, label in enumerate(call_labels(name))]
    layers = [m["name"] for m in spec["per_layer"]]
    for name, seed_list in map(seeds, args.trace):
        record["traces"][name] = [  # result.metrics also lists an absent layer, at 0.0
            {"seed": s, **{side: {k: m["value"]
                                  for k, m in load(d, name, s, 1)["result"]["metrics"].items()
                                  if k in layers}
                           for side, d in (("parent", args.parent), ("change", args.change))}}
            for s in seed_list]
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
