"""Check that two source trees write the same benchmark traces.

  python3 scripts/same_traces.py PARENT_TREE CHANGE_TREE [--seed N [N ...]]

For each seed and tree a fresh Python process imports adagram from
<tree>/src, writes the perfbench stand-in dataset and grid file for the
seed into an output directory, and runs through cli.main, in that
directory, the ten uci_grid grid calls and both wide runs at full epochs,
then three single runs on the stand-in that the benchmark never makes: one
that diverges (exit 3), an adagram_exact run over its budget (exit 2
before its first step) and one without --out (its trace on stdout).  Each
call's exit code and printed output, warnings without their source line
included, are kept there as one more file.
Then every file of the two directories is compared, with what depends on
the wall clock or the commit set aside: the wall_clock_s and
time_to_best_s columns and the `# git:` line.  The script prints, per
seed, the count of files compared and each file that differs or is
missing on one side, and exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import inputs  # noqa: E402
from perfbench.machine import THREAD_VARS  # noqa: E402

SEED = 0
CALLS_DIR = "calls"
SET_ASIDE_COLUMNS = ("wall_clock_s", "time_to_best_s")
SET_ASIDE_LINES = ("# git:",)

# The child process: argv is this repo's root, the tree's src, the output
# directory, the directory for the calls' files, the seed and the cli.main
# argvs as JSON.
_CHILD = r"""
import contextlib, io, json, os, sys, warnings
root, src, out, calls_dir, seed, argvs = sys.argv[1:]
# A warning is kept without the file and line that issued it.
warnings.formatwarning = lambda message, category, *_: f"{category.__name__}: {message}\n"
sys.path[:0] = [src, root]
from perfbench import inputs
import adagram.cli
if not os.path.abspath(adagram.cli.__file__).startswith(os.path.abspath(src) + os.sep):
    sys.exit(f"adagram imported from {adagram.cli.__file__}, not from {src}")
os.chdir(out)
with open(inputs.STANDIN_FILE, "w", encoding="ascii") as fh:
    fh.write(inputs.standin_libsvm(int(seed)))
with open(inputs.GRID_FILE, "w", encoding="ascii") as fh:
    fh.write(inputs.grid_text())
os.makedirs(calls_dir)
for i, argv in enumerate(json.loads(argvs)):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = adagram.cli.main(argv)
    with open(os.path.join(calls_dir, f"{i:02d}.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"argv: {argv}\nexit: {rc}\n--- stdout\n{stdout.getvalue()}"
                 f"--- stderr\n{stderr.getvalue()}")
"""


def workload_argvs(seed: int = SEED) -> list[list[str]]:
    """The cli.main argv of each call: uci_grid's grid calls, the wide runs,
    then the single runs that diverge, overrun the exact budget and print."""
    grid = [inputs.grid_argv(kind, bs, f"{kind}_{bs}") for kind, bs in inputs.GRID_CALLS]
    wide = [inputs.wide_argv(w, seed, f"{w}.csv") for w in ("wide_ps", "wide_fr")]
    single = [inputs.single_argv("adagram_ps", "diverged.csv", 2) + ["--eps", "1e-310"],
              inputs.single_argv("adagram_exact", "over_budget.csv", 1000)
              + ["--batch-size", "1"],
              ["--dataset", inputs.STANDIN_FILE, "--optimizer", "adagram_fr", "--mu", "0.9",
               "--epochs", "3", "--seed", str(seed)]]
    return grid + wide + single


def write_outputs(tree: str, argvs: list[list[str]], out: str, seed: int = SEED) -> None:
    """Run cli.main on each argv in a fresh process that imports adagram
    from ``tree``/src, in the new directory ``out``, after writing there the
    stand-in and grid file for ``seed``; BLAS threads are pinned to 1."""
    os.makedirs(out)
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    subprocess.run([sys.executable, "-c", _CHILD, ROOT,
                    os.path.join(os.path.abspath(tree), "src"), os.path.abspath(out),
                    CALLS_DIR, str(seed), json.dumps(argvs)],
                   env=env, check=True)


def _normalized(text: str) -> list[str]:
    """The lines of a file with the set-aside lines dropped and the set-aside
    columns of any comma- or tab-separated table emptied.  A table starts at
    a header line that names one of them and runs while lines have as many
    fields as its header."""
    lines, sep, width, drop = [], None, 0, ()
    for line in text.splitlines():
        if line.startswith(SET_ASIDE_LINES):
            continue
        for s in ",\t":
            fields = line.split(s)
            if any(c in fields for c in SET_ASIDE_COLUMNS):
                sep, width = s, len(fields)
                drop = [i for i, c in enumerate(fields) if c in SET_ASIDE_COLUMNS]
        fields = line.split(sep) if sep else []
        if sep and len(fields) == width:
            line = sep.join("" if i in drop else f for i, f in enumerate(fields))
        else:
            sep = None
        lines.append(line)
    return lines


def _files(top: str) -> set[str]:
    return {os.path.relpath(os.path.join(d, f), top)
            for d, _, names in os.walk(top) for f in names}


def compare(a: str, b: str) -> tuple[int, list[str]]:
    """The count of files under ``a`` and ``b`` together, and the relative
    paths of those that differ (set-aside parts aside) or exist on one side."""
    fa, fb = _files(a), _files(b)
    differ = sorted(fa ^ fb)
    for rel in sorted(fa & fb):
        with open(os.path.join(a, rel), encoding="utf-8") as ha, \
                open(os.path.join(b, rel), encoding="utf-8") as hb:
            if _normalized(ha.read()) != _normalized(hb.read()):
                differ.append(rel)
    return len(fa | fb), sorted(differ)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", help="source tree whose outputs are the reference")
    p.add_argument("change", help="source tree to check against it")
    p.add_argument("--seed", type=int, nargs="+", default=[SEED],
                   help="seeds of the stand-in and of the runs, one pass each")
    args = p.parse_args(argv)
    failed = False
    for seed in args.seed:
        with tempfile.TemporaryDirectory() as work:
            outs = [os.path.join(work, name) for name in ("parent", "change")]
            for tree, out in zip((args.parent, args.change), outs):
                write_outputs(tree, workload_argvs(seed), out, seed)
            count, differ = compare(*outs)
        print(f"seed {seed}: {count} files compared, {len(differ)} differ")
        for rel in differ:
            print(f"  {rel}")
        failed = failed or bool(differ)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
