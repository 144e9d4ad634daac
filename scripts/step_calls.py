"""Count the calls and time one lone optimizer step at a given size.

  OPENBLAS_NUM_THREADS=1 python3 scripts/step_calls.py adagram_ps --mn 64 --rank 48
  OPENBLAS_NUM_THREADS=1 python3 scripts/step_calls.py adagram_fr --k 4 --mn 15 \
      --rank 5 --mu 0.9

Builds the optimizer of K cells of one kind (a stack when K > 1, with eps
spread over 1e-2 .. 1), for 1 x mn weights, and takes r + 20 warm-up steps
on seeded random gradients.  Then it counts the Python and builtin calls
of one more ``opt.step`` with ``sys.setprofile`` and times ``--repeat``
blocks of ``--steps`` steps.  It prints the counts, the builtins called
most often, and the best block's time per step in µs; the last line is one
JSON object.  ``sys.setprofile`` sees Python functions and builtin
functions and methods only: numpy's operators and ufunc calls and the
f2py LAPACK and BLAS routines are not counted.  Pin BLAS to one thread in
the environment, as the benchmark does, so that the times compare.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from adagram.optim import OptimizerConfig, OptimizerKind, ParamState, make_optimizer  # noqa: E402

WARM_UP = 20


def build(kind: str, k: int, mn: int, rank: int, mu, seed: int = 0):
    """The optimizer, its weights and a gradient source for 1 x mn weights."""
    eps = np.logspace(-2, 0, k) if k > 1 else [1e-2]
    cfgs = [OptimizerConfig(kind, learning_rate=0.1, eps=float(e), rank=rank, mu=mu)
            for e in eps]
    opt = make_optimizer(cfgs if k > 1 else cfgs[0], (1, mn))
    params = ParamState(np.zeros((k, 1, mn) if k > 1 else (1, mn)))
    rng = np.random.default_rng(seed)
    return opt, params, lambda: rng.standard_normal(params.weights.shape)


def count_calls(step) -> tuple[int, int, collections.Counter]:
    """Python and builtin calls made by ``step()``, and the builtins by name."""
    python, builtins = [0], collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            python[0] += 1
        elif event == "c_call":
            builtins[getattr(arg, "__qualname__", getattr(arg, "__name__", repr(arg)))] += 1

    sys.setprofile(profile)
    try:
        step()
    finally:
        sys.setprofile(None)
    builtins["setprofile"] -= 1  # the call that ends the count
    return python[0] - 1, builtins.total(), +builtins  # less the lambda's own frame


def measure(kind: str, k: int = 1, mn: int = 64, rank: int = 5, mu=None,
            steps: int = 100, repeat: int = 7, seed: int = 0) -> dict:
    """Calls of one step after the warm-up, and the best µs per step."""
    opt, params, grad = build(kind, k, mn, rank, mu, seed)
    for _ in range(rank + WARM_UP):
        params = opt.step(params, grad())
    g = grad()
    python, builtin, names = count_calls(lambda: opt.step(params, g))
    grads = [grad() for _ in range(steps)]
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for g in grads:
            params = opt.step(params, g)
        best = min(best, time.perf_counter() - t0)
    return {"kind": kind, "k": k, "mn": mn, "rank": rank, "mu": mu,
            "python_calls": python, "builtin_calls": builtin,
            "top_builtins": dict(names.most_common(8)), "us_per_step": 1e6 * best / steps}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("kind", choices=[k.value for k in OptimizerKind])
    p.add_argument("--k", type=int, default=1, help="cells in the stack")
    p.add_argument("--mn", type=int, default=64, help="parameter count of a cell")
    p.add_argument("--rank", type=int, default=5)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--steps", type=int, default=100, help="steps per timed block")
    p.add_argument("--repeat", type=int, default=7, help="timed blocks; the best is kept")
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    if min(args.k, args.mn, args.rank, args.steps, args.repeat) < 1:
        p.error("--k, --mn, --rank, --steps and --repeat must be >= 1")
    out = measure(args.kind, args.k, args.mn, args.rank, args.mu, args.steps, args.repeat,
                  args.seed)
    print(f"{out['kind']} K={out['k']} mn={out['mn']} r={out['rank']} mu={out['mu']}: "
          f"{out['python_calls']} Python and {out['builtin_calls']} builtin calls, "
          f"{out['us_per_step']:.1f} us per step")
    print("most called builtins: " + ", ".join(f"{n} {c}" for n, c in out["top_builtins"].items()))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
