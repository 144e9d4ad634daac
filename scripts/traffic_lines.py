"""List the lines of the adagram package that the benchmark workloads never run.

  python3 scripts/traffic_lines.py

Runs the cli.main calls of the three perfbench workloads in one process:
the ten uci_grid grid calls on the seed-0 stand-in, then the wide_ps and
wide_fr runs at seed 0 with two epochs (every epoch runs the same lines).
A sys.settrace line tracer limited to the package's files records each line
that runs, from the package's first import on.  For each module the script
prints the lines of its functions that no call ran, as ranges; module and
class bodies are not counted.  A line listed here is one the workloads do
not exercise: a branch for errors, for a setting they leave alone, or code
no caller needs.
"""

from __future__ import annotations

import collections
import contextlib
import glob
import importlib
import inspect
import io
import os
import sys
import tempfile
import textwrap
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import inputs  # noqa: E402

PACKAGE = os.path.join(ROOT, "src", "adagram")
SEED = 0
WIDE_EPOCHS = 2


def workload_argvs() -> list[list[str]]:
    """The cli.main argv of each call: uci_grid's grid calls, then the wide runs."""
    grid = [inputs.grid_argv(kind, bs, f"{kind}_{bs}") for kind, bs in inputs.GRID_CALLS]
    wide = [inputs.wide_argv(w, SEED, f"{w}.csv", epochs=WIDE_EPOCHS)
            for w in ("wide_ps", "wide_fr")]
    return grid + wide


def write_inputs(workdir: str) -> None:
    """The stand-in dataset and grid file that the grid calls name."""
    with open(os.path.join(workdir, inputs.STANDIN_FILE), "w", encoding="ascii") as fh:
        fh.write(inputs.standin_libsvm(SEED))
    with open(os.path.join(workdir, inputs.GRID_FILE), "w", encoding="ascii") as fh:
        fh.write(inputs.grid_text())


def function_lines(code: types.CodeType) -> dict[int, int]:
    """The line of each instruction of every function within ``code``,
    mapped to the first line of the outermost function that holds it."""
    lines, todo = {}, [(code, None)]
    while todo:
        co, owner = todo.pop()
        if co.co_flags & inspect.CO_OPTIMIZED:  # a function, not a module or class body
            owner = owner or co.co_firstlineno
            lines.update((line, owner) for _, _, line in co.co_lines() if line is not None)
        todo.extend((c, owner) for c in co.co_consts if isinstance(c, types.CodeType))
    return lines


def trace_calls(argvs: list[list[str]], workdir: str) -> dict[str, set[int]]:
    """Import the package and run cli.main on each argv in ``workdir``
    under a line tracer.

    Returns the lines run in each of the package's files; those run at
    import count only where this import is the first.  A call that does
    not exit 0 raises RuntimeError, as its lines would mislead.
    """
    hits: dict[str, set[int]] = collections.defaultdict(set)
    prefix = PACKAGE + os.sep

    def on_line(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        hits[frame.f_code.co_filename].add(frame.f_lineno)  # the def line
        return on_line

    cwd, previous = os.getcwd(), sys.gettrace()
    os.chdir(workdir)
    sys.settrace(on_call)
    try:
        cli = importlib.import_module("adagram.cli")
        for argv in argvs:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.main(argv)
            if rc != 0:
                raise RuntimeError(f"cli.main({argv}) exited {rc}: {sink.getvalue()[-2000:]}")
    finally:
        sys.settrace(previous)
        os.chdir(cwd)
    return hits


def report(hits: dict[str, set[int]]) -> str:
    """Per module, the function lines not run.  A range a-b joins lines of
    one function with no function line run between them."""
    out = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            owner = function_lines(compile(fh.read(), path, "exec"))
        lines = sorted(owner)
        missed = [line for line in lines if line not in hits.get(path, ())]
        out.append(f"{os.path.basename(path)}: {len(missed)} of {len(lines)} "
                   "function lines not run")
        spans, pos = [], {line: i for i, line in enumerate(lines)}
        for line in missed:
            last = spans[-1][1] if spans else None
            if last and pos[line] == pos[last] + 1 and owner[line] == owner[last]:
                spans[-1][1] = line
            else:
                spans.append([line, line])
        text = ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)
        if text:
            out.append(textwrap.fill(text, 96, initial_indent="  ", subsequent_indent="  "))
    return "\n".join(out)


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        write_inputs(workdir)
        hits = trace_calls(workload_argvs(), workdir)
    print(report(hits))
    return 0


if __name__ == "__main__":
    sys.exit(main())
