"""Microbenchmark of ``btai.inference.logical_state``, in ns per 5-state call.

Run from the root of a btai checkout:

    PYTHONPATH=src python tests/microbench_beliefs.py [--calls N] [--repeats R]

Three cases, each timed over N calls, best of R repeats:

- ``repeat``: one set of five beliefs read again and again, so every lookup
  after the first finds the tie-rule table warm, as the shipped workloads do;
- ``miss``: beliefs that never repeat, so every lookup misses and stores.
  The table is emptied before each repeat, and the default N gives more
  distinct contents than ``inference.TABLE_CAP``, so it is also emptied
  while the case runs;
- ``rule``: the tie rule alone on the ``miss`` beliefs, with no table, the
  cost a miss adds to.

The file name does not match ``test_*.py``, so pytest does not collect it.
It makes no timing assertion.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from btai import inference

STATES = 5


def tie_rule(beliefs):
    """The 1e-9 tie rule of ``logical_state`` with no table."""
    out = {}
    for sid, b in beliefs.items():
        values = np.asarray(b, dtype=float).tolist()
        top = max(values)
        out[sid] = [v >= top - 1e-9 for v in values].index(True)
    return out


def best_ns(fn, calls, repeats) -> float:
    """Best of ``repeats`` passes of ``fn`` over ``calls``, in ns per call."""
    best = float("inf")
    for _ in range(repeats):
        inference.clear_tables()
        t0 = time.perf_counter_ns()
        for beliefs in calls:
            fn(beliefs)
        best = min(best, time.perf_counter_ns() - t0)
    return best / len(calls)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--calls", type=int, default=2000)
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)
    if args.calls < 1 or args.repeats < 1:
        parser.error("--calls and --repeats must be >= 1")

    sids = [f"s{i}" for i in range(STATES)]
    # two-valued beliefs, as in every shipped scenario, each with its own bytes
    p = np.linspace(0.01, 0.99, args.calls * STATES)
    fresh = [dict(zip(sids, pair)) for pair in
             np.stack([p, 1 - p], axis=1).reshape(args.calls, STATES, 2)]
    repeated = [fresh[0]] * args.calls
    print(f"{args.calls} calls of {STATES} states, best of {args.repeats}; "
          f"{args.calls * STATES} distinct beliefs in 'miss', "
          f"TABLE_CAP {inference.TABLE_CAP}")
    for name, fn, calls in (("repeat", inference.logical_state, repeated),
                            ("miss", inference.logical_state, fresh),
                            ("rule", tie_rule, fresh)):
        print(f"{name:>6}: {best_ns(fn, calls, args.repeats):8.0f} ns per call")


if __name__ == "__main__":
    main()
