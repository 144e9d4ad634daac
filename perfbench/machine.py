"""Record of the machine and the tree a result was measured on."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

_IGNORED = ("__pycache__", ".pyc", ".egg-info")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_tree_id(path: str) -> str:
    """The id git gives the tree at ``path`` (``git rev-parse HEAD:src``
    for a clean checkout), computed without git, so a result taken in an
    exported tree still names the source it measured."""
    entries = []
    for name in os.listdir(path):
        if name.endswith(_IGNORED):
            continue
        full = os.path.join(path, name)
        if os.path.isdir(full):
            sub = git_tree_id(full)
            if sub:
                entries.append((name + "/", b"40000 %s\0%s" % (name.encode(), bytes.fromhex(sub))))
        elif os.path.isfile(full):
            with open(full, "rb") as fh:
                data = fh.read()
            blob = hashlib.sha1(b"blob %d\0" % len(data) + data).digest()
            mode = b"100755" if os.access(full, os.X_OK) else b"100644"
            entries.append((name, b"%s %s\0%s" % (mode, name.encode(), blob)))
    if not entries:
        return ""
    body = b"".join(entry for _, entry in sorted(entries))
    return hashlib.sha1(b"tree %d\0" % len(body) + body).hexdigest()


def git_commit(root: str) -> str:
    """HEAD of the git checkout rooted at ``root``, or 'none' outside one."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    lines = top.stdout.splitlines()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(root):
        return "none"
    return lines[1]


def machine_record(root: str) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(root),
        "src_tree": git_tree_id(os.path.join(root, "src")),
    }
