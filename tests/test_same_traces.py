"""Smoke test of scripts/same_traces.py, which compares the outputs that two
source trees write for the same cli.main calls."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("same_traces", ROOT / "scripts" / "same_traces.py")
same_traces = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_traces)

SMALL_RUN = ["--dataset", "synthetic:dense", "--optimizer", "adagram_ps", "--rank", "2",
             "--epochs", "2", "--n-samples", "60", "--n-features", "3"]


def edit_column(path: pathlib.Path, column: str, value: str) -> None:
    """Set one column of every row of a trace CSV."""
    lines = path.read_text().splitlines()
    at = lines.index(next(line for line in lines if line.startswith("epoch,")))
    i = lines[at].split(",").index(column)
    for k in range(at + 1, len(lines)):
        fields = lines[k].split(",")
        fields[i] = value
        lines[k] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def test_repo_against_itself(tmp_path):
    # One call writes its trace, the other prints it; the wall clock and
    # the commit differ between the two processes and are set aside.
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        same_traces.write_outputs(str(ROOT), [SMALL_RUN + ["--out", "run.csv"], SMALL_RUN],
                                  str(out))
    names = {"run.csv", "calls/00.txt", "calls/01.txt", "grid.cfg", "australian.libsvm"}
    assert {str(p.relative_to(a)) for p in a.rglob("*") if p.is_file()} == names
    assert "exit: 0" in (a / "calls" / "01.txt").read_text()
    assert "wall_clock_s" in (a / "calls" / "01.txt").read_text()
    assert same_traces.compare(str(a), str(b)) == (5, [])

    edit_column(b / "run.csv", "wall_clock_s", "9.5")
    text = (b / "run.csv").read_text()
    (b / "run.csv").write_text(text.replace("# git: ", "# git: other-"))
    assert same_traces.compare(str(a), str(b)) == (5, [])

    edit_column(b / "run.csv", "train_loss", "0.25")
    (b / "calls" / "02.txt").write_text("exit: 0\n")
    assert same_traces.compare(str(a), str(b)) == (6, ["calls/02.txt", "run.csv"])


def test_single_run_calls(tmp_path):
    # After the grid and wide runs: a divergence, an exact run refused over
    # its budget before it writes a file, and a trace printed on stdout.
    out = tmp_path / "a"
    same_traces.write_outputs(str(ROOT), same_traces.workload_argvs(3)[-3:], str(out), 3)
    diverged, over, printed = [(out / "calls" / f"0{i}.txt").read_text() for i in range(3)]
    assert "exit: 3" in diverged and "diverged after 0 epochs" in diverged
    # The overflow on its way to divergence prints no numpy warning.
    assert "Warning" not in diverged and ".py:" not in diverged
    assert "exit: 2" in over and "budget" in over
    assert "exit: 0" in printed and "\nepoch,wall_clock_s," in printed
    assert (out / "diverged.csv").exists() and not (out / "over_budget.csv").exists()


def test_each_seed_is_one_pass(monkeypatch, capsys):
    monkeypatch.setattr(same_traces, "workload_argvs", lambda seed: [SMALL_RUN])
    assert same_traces.main([str(ROOT), str(ROOT), "--seed", "0", "3"]) == 0
    assert capsys.readouterr().out == ("seed 0: 3 files compared, 0 differ\n"
                                       "seed 3: 3 files compared, 0 differ\n")
