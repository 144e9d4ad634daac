"""One benchmark workload in a fresh process: set-up, timed body, checks.

run.py starts ``python -m perfbench.workload`` from the repository root
with BLAS threads pinned to 1 in the environment, so the pin holds from
the first numpy import on.  The last line this prints is one JSON object
for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

from . import inputs
from .machine import THREAD_VARS, machine_record
from .shims import SpanRecorder, install, layer_stats, save_spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")
REFERENCE_PATH = os.path.join(ROOT, "perfbench", "reference.json")

# Inputs whose outputs are stored in reference.json.  Every run also runs
# them once, after the timed body, so each run checks the values.
REFERENCE_SEED = 0
# Relative tolerance on a reference train loss: far below the gap a wrong
# preconditioner opens, far above BLAS reordering noise.
RTOL = 1e-6

TRACE_COLUMNS = ("epoch", "wall_clock_s", "train_loss", "test_loss", "test_acc")
CPUS = sorted(os.sched_getaffinity(0))
STANDIN_TRAIN = inputs.train_size(inputs.STANDIN_SAMPLES)
WIDE_TRAIN = inputs.train_size(inputs.WIDE_SAMPLES)


class SetupError(RuntimeError):
    """The workload could not be prepared; no result is printed."""


@dataclass
class Outcome:
    """Checked outputs of one pass over a workload's cli.main calls.

    An operation is one grid cell or one single run; ``failed`` counts the
    operations that raised, exited non-zero or failed an output check.
    """

    cells: int = 0
    failed: int = 0
    steps: int = 0
    timed_wall_s: float = 0.0
    selected: dict = field(default_factory=dict)    # kind -> config_hash
    final_loss: dict = field(default_factory=dict)  # config_hash -> loss
    fingerprint: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    def fail(self, ops: int, message: str) -> None:
        self.failed = min(self.cells, self.failed + ops)
        self.errors.append(message)

    def merge(self, other: "Outcome") -> None:
        self.cells += other.cells
        self.failed += other.failed
        self.steps += other.steps
        self.timed_wall_s += other.timed_wall_s
        self.selected.update(other.selected)
        self.final_loss.update(other.final_loss)
        self.fingerprint.extend(other.fingerprint)
        self.errors.extend(other.errors)


@dataclass
class Trace:
    meta: dict
    rows: list
    diverged: bool
    steps: int


def read_trace(path: str, epochs: int, n_train: int, may_diverge: bool) -> Trace:
    """Parse and check one CSV trace written by the package.

    It must list epochs 1..epochs with finite values, or, where divergence
    is allowed and flagged, a finite prefix of them.  Steps are the
    completed epochs times the minibatches per epoch.
    """
    meta, lines = {}, []
    with open(path, encoding="ascii") as fh:
        for line in fh:
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                meta[key.strip()] = value.strip()
            elif line.strip():
                lines.append(line.strip().split(","))
    if not lines or tuple(lines[0]) != TRACE_COLUMNS:
        raise ValueError(f"unexpected trace header in {path}")
    rows = [[float(v) for v in line] for line in lines[1:]]
    diverged = meta.get("diverged") == "true"
    if diverged and not may_diverge:
        raise ValueError(f"diverged after {len(rows)} epochs")
    expected = len(rows) if diverged else epochs
    if [int(r[0]) for r in rows] != list(range(1, expected + 1)):
        raise ValueError(f"epochs {[int(r[0]) for r in rows]} != 1..{expected}")
    if not all(math.isfinite(v) for r in rows for v in r):
        raise ValueError("non-finite value in trace")
    steps = len(rows) * math.ceil(n_train / int(meta["batch_size"]))
    return Trace(meta, rows, diverged, steps)


def read_summary(path: str) -> list[dict]:
    with open(path, encoding="ascii") as fh:
        lines = [line.rstrip("\n").split("\t") for line in fh if line.strip()]
    header = lines[0]
    if any(len(line) != len(header) for line in lines):
        raise ValueError("ragged summary.tsv")
    return [dict(zip(header, line)) for line in lines[1:]]


def check_grid(kind: str, out: str, rc) -> Outcome:
    """Checks on one grid call: exit 0, one CSV per cell, one selected row.

    The grid writes into ``out``, which also names the call.
    """
    n = inputs.grid_cells(kind)
    oc = Outcome(cells=n)
    if rc != 0:
        oc.fail(n, f"{out}: cli.main returned {rc}")
        return oc
    try:
        summary = read_summary(os.path.join(out, "summary.tsv"))
        csvs = {f[:-4] for f in os.listdir(out) if f.endswith(".csv")}
    except (OSError, ValueError, IndexError) as exc:
        oc.fail(n, f"{out}: {exc}")
        return oc
    hashes = {row.get("config_hash") for row in summary}
    if len(summary) != n or hashes != csvs or len(csvs) != n:
        oc.fail(n, f"{out}: {len(summary)} summary rows and {len(csvs)} CSVs, expected {n}")
        return oc
    chosen = [row for row in summary if row.get("selected") == "*"]
    if len(chosen) == 1:
        oc.selected[out] = chosen[0]["config_hash"]
    else:
        oc.fail(1, f"{out}: {len(chosen)} selected rows, expected 1")
    for row in summary:
        cell = row["config_hash"]
        try:
            tr = read_trace(os.path.join(out, cell + ".csv"), inputs.GRID_EPOCHS,
                            STANDIN_TRAIN, may_diverge=True)
            final = tr.rows[-1][2] if tr.rows else math.inf
            if (tr.meta["kind"] != kind or tr.meta["config_hash"] != cell
                    or row["diverged"] != str(tr.diverged).lower()
                    or float(row["final_train_loss"]) != final):
                raise ValueError("summary row does not match its trace")
        except (OSError, ValueError, KeyError) as exc:
            oc.fail(1, f"{kind} {cell}: {exc}")
            continue
        oc.steps += tr.steps
        oc.timed_wall_s += tr.rows[-1][1] if tr.rows else 0.0
        oc.final_loss[cell] = None if tr.diverged else final
        oc.fingerprint.append(tuple(v for k, v in row.items() if k != "time_to_best_s"))
    return oc


def check_single(kind: str, path: str, rc) -> Outcome:
    """Checks on one wide run: exit 0, every epoch, not diverged."""
    oc = Outcome(cells=1)
    if rc != 0:
        oc.fail(1, f"{kind}: cli.main returned {rc}")
        return oc
    try:
        tr = read_trace(path, inputs.WIDE_EPOCHS, WIDE_TRAIN, may_diverge=False)
        oc.selected[kind] = tr.meta["config_hash"]
        oc.final_loss[tr.meta["config_hash"]] = tr.rows[-1][2]
    except (OSError, ValueError, KeyError) as exc:
        oc.fail(1, f"{kind}: {exc}")
        return oc
    oc.steps = tr.steps
    oc.timed_wall_s = tr.rows[-1][1]
    oc.fingerprint = [tuple(r[:1] + r[2:]) for r in tr.rows]
    return oc


def call(cli, argv: list[str]):
    """cli.main(argv) with its output captured: (exit code, output)."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # the package failed; count it, keep measuring
        return None, sink.getvalue() + traceback.format_exc(limit=4)
    return rc, sink.getvalue()


class UciGrid:
    """The criterion-8 grid slice on the australian-shaped stand-in."""

    name = "uci_grid"

    def __init__(self, seed: int):
        self.seed = seed

    def write_inputs(self) -> None:
        with open(inputs.STANDIN_FILE, "w", encoding="ascii") as fh:
            fh.write(inputs.standin_libsvm(self.seed))
        with open(inputs.GRID_FILE, "w", encoding="ascii") as fh:
            fh.write(inputs.grid_text())

    def warm_up(self):
        return [inputs.single_argv(kind, "warmup.csv", epochs=1) for kind in inputs.GRID_KINDS]

    def body(self):
        return [inputs.grid_argv(kind, bs, f"{kind}_{bs}") for kind, bs in inputs.GRID_CALLS]

    def clean(self) -> None:
        for kind, bs in inputs.GRID_CALLS:
            shutil.rmtree(f"{kind}_{bs}", ignore_errors=True)

    def check(self, results) -> Outcome:
        oc = Outcome()
        for (kind, bs), (rc, output) in zip(inputs.GRID_CALLS, results):
            part = check_grid(kind, f"{kind}_{bs}", rc)
            if part.failed and rc != 0:
                part.errors.append(output[-2000:])
            oc.merge(part)
        return oc


class Wide:
    """One wide adagram run (mn = 1024, rank 48) on synthetic:dense."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.kind = inputs.WIDE_KIND[name][0]

    def write_inputs(self) -> None:
        """The command line is the whole input; the package draws the data."""

    def warm_up(self):
        return [inputs.wide_argv(self.name, self.seed, "warmup.csv", epochs=1, n_samples=40)]

    def body(self):
        return [inputs.wide_argv(self.name, self.seed)]

    def clean(self) -> None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(inputs.WIDE_FILE)

    def check(self, results) -> Outcome:
        (rc, output), = results
        oc = check_single(self.kind, inputs.WIDE_FILE, rc)
        if oc.failed and rc != 0:
            oc.errors.append(output[-2000:])
        return oc


def make_workload(name: str, seed: int):
    if name == "uci_grid":
        return UciGrid(seed)
    if name in inputs.WIDE_KIND:
        return Wide(name, seed)
    raise SetupError(f"unknown workload {name!r}; expected one of {inputs.WORKLOADS}")


@dataclass
class Pass:
    call_s: list[float]
    outcome: Outcome

    @property
    def run_s(self) -> float:
        return sum(self.call_s)


def run_pass(wl, cli, index: int = 0) -> Pass:
    """Time every cli.main call of the workload body, then check outputs.

    Call k of pass ``index`` is pinned to CPU (index + k) mod the usable
    CPUs, so the repeats of each call alternate over them.
    """
    wl.clean()
    call_s, results = [], []
    for k, argv in enumerate(wl.body()):
        os.sched_setaffinity(0, {CPUS[(index + k) % len(CPUS)]})
        t0 = time.perf_counter()
        results.append(call(cli, argv))
        call_s.append(time.perf_counter() - t0)
    return Pass(call_s, wl.check(results))


def run_passes(wl, cli, seconds: float) -> list[Pass]:
    """Repeat the body until ``seconds`` have passed, at least once."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(wl, cli, len(passes)))
    return passes


def check_repeats(passes: list[Pass]) -> None:
    """Every pass over the same inputs must give identical outputs."""
    first = passes[0].outcome.fingerprint
    for i, p in enumerate(passes):
        oc = p.outcome
        if oc.fingerprint != first:
            oc.fail(oc.cells, f"pass {i}: outputs differ from the first pass")


def reference_pass(name: str, cli) -> Outcome:
    """One pass over the inputs of REFERENCE_SEED, in its own directory."""
    wl = make_workload(name, REFERENCE_SEED)
    os.makedirs("reference")
    os.chdir("reference")
    try:
        wl.write_inputs()
        return run_pass(wl, cli).outcome
    finally:
        os.chdir("..")


def check_reference(name: str, oc: Outcome) -> None:
    """Each kind's selected config_hash, and the final train loss of every
    cell, must match the values stored in reference.json."""
    try:
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            expected = json.load(fh)[name]
        selected, final_loss = expected["selected"], expected["final_train_loss"]
    except (OSError, KeyError, ValueError) as exc:
        oc.fail(oc.cells, f"no reference values for {name}: {exc}")
        return
    for kind, ref in selected.items():
        if oc.selected.get(kind) != ref:
            oc.fail(1, f"reference {kind}: selected {oc.selected.get(kind)}, expected {ref}")
    for cell, ref in final_loss.items():
        got = oc.final_loss.get(cell, "missing")
        same = got == ref or (
            isinstance(got, float) and ref is not None and abs(got - ref) <= RTOL * abs(ref))
        if not same:
            oc.fail(1, f"reference {cell}: final train loss {got}, expected {ref}")


def median(values) -> float:
    return float(statistics.median(values))


def best_run_s(passes: list[Pass]) -> float:
    """Wall time of the body with each cli.main call at its fastest.

    Other tenants of a shared host slow one CPU or another for seconds to
    minutes at a time.  A call's fastest repeat, over repeats spread across
    the CPUs, estimates its time on a quiet machine and moves far less
    between runs than the median does (see README.md).
    """
    return sum(min(calls) for calls in zip(*(p.call_s for p in passes)))


def end_to_end(passes: list[Pass]) -> dict[str, float]:
    run_s = best_run_s(passes)
    return {
        "run_s": run_s,
        "cells_per_s": min(p.outcome.cells - p.outcome.failed for p in passes) / run_s,
        "steps_per_s": min(p.outcome.steps for p in passes) / run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "median_run_s": median(p.run_s for p in passes),
    }


def traced(wl, cli, seconds: float, spans_path: str):
    """Untraced passes for half the time, traced passes for the rest."""
    plain = run_passes(wl, cli, seconds / 2)
    recorder = SpanRecorder()
    installed = install(recorder)
    try:
        shimmed = run_passes(wl, cli, seconds / 2)
    finally:
        installed.uninstall()
    stats = layer_stats(recorder, len(shimmed))
    stats["trace.overhead_s"] = best_run_s(shimmed) - best_run_s(plain)
    stats["bench.timed_share"] = median(p.outcome.timed_wall_s / p.run_s for p in plain)
    save_spans(recorder, spans_path)
    return plain + shimmed, stats


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() in the parent just before this process started")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--record-reference", action="store_true")
    args = p.parse_args(argv)

    unpinned = [v for v in THREAD_VARS if os.environ.get(v) != "1"]
    if unpinned:
        raise SetupError(f"BLAS threads not pinned to 1 in the environment: {unpinned}")
    from adagram import cli

    src = os.path.join(ROOT, "src")
    if os.path.commonpath([os.path.realpath(cli.__file__), os.path.realpath(src)]) != os.path.realpath(src):
        raise SetupError(f"adagram imported from {cli.__file__}, not from {src}")

    wl = make_workload(args.workload, args.seed)
    work = os.path.join(OUT_DIR, "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    os.chdir(work)
    try:
        wl.write_inputs()
        for argv_ in wl.warm_up():
            rc, output = call(cli, argv_)
            if rc != 0:
                raise SetupError(f"warm-up run exited {rc}: {output[-2000:]}")
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.record_reference:
            oc = reference_pass(args.workload, cli)
            print(json.dumps({"selected": oc.selected, "final_train_loss": oc.final_loss,
                              "errors": oc.errors}))
            return 0 if not oc.failed else 1
        if args.trace:
            os.makedirs(os.path.join(OUT_DIR, "spans"), exist_ok=True)
            spans = os.path.join(OUT_DIR, "spans", f"{args.workload}-seed{args.seed}.npz")
            passes, metrics = traced(wl, cli, args.seconds, spans)
        else:
            passes = run_passes(wl, cli, args.seconds)
            metrics = end_to_end(passes)
        check_repeats(passes)
        ref = reference_pass(args.workload, cli)
        check_reference(args.workload, ref)
        outcomes = [p.outcome for p in passes] + [ref]
        attempted = sum(o.cells for o in outcomes)
        failed = sum(o.failed for o in outcomes)
        if not args.trace:
            metrics["ok_share"] = 1.0 - failed / attempted
            metrics["setup_s"] = setup_s
        print(json.dumps({
            "setup_s": setup_s,
            "attempted": attempted,
            "failed": failed,
            "errors": [e for o in outcomes for e in o.errors][:20],
            "pass_call_s": [q.call_s for q in passes],
            "cells_per_pass": passes[0].outcome.cells,
            "steps_per_pass": passes[0].outcome.steps,
            "metrics": metrics,
            "machine": machine_record(ROOT),
        }))
        return 0
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
