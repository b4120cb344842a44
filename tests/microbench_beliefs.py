"""Microbenchmark of the per-tick belief steps: ``btai.inference.logical_state``
and ``btai.domain.update_beliefs`` in ns per 5-state call, and
``btai.inference.softmax`` in ns per call on 2- and 3-entry vectors.

Run from the root of a btai checkout:

    PYTHONPATH=src python tests/microbench_beliefs.py [--calls N] [--repeats R]

Each case is timed over N calls, best of R repeats.  The tie rule:

- ``repeat``: one set of five beliefs read again and again, so every lookup
  after the first finds the tie-rule table warm, as the shipped workloads do;
- ``miss``: beliefs that never repeat, so every lookup misses and stores.
  The table is emptied before each repeat, and the default N gives more
  distinct contents than ``inference.TABLE_CAP``, so it is also emptied
  while the case runs;
- ``rule``: the tie rule alone on the ``miss`` beliefs, with no table, the
  cost a miss adds to.

Perception, on the ``miss`` beliefs, each call after an action that acts on
two of the five states and with three of them observed, and the softmax on
vectors that never repeat, each timed twice:

- ``old``: the formulas written out as they were before the softmax took its
  maximum in Python and ran exp and the division in place, and before
  perception added the evidence in place: numpy's max and a new array for
  every step;
- ``new``: the functions of the package.

The two give the same bits (``tests/test_inference.py`` checks this).  The
file name does not match ``test_*.py``, so pytest does not collect it.  It
makes no timing assertion.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from btai import inference
from btai.domain import (
    ActionTemplate,
    StateRegistry,
    StateVar,
    achieve_matrix,
    compile_domain,
    update_beliefs,
)
from btai.inference import evidence

STATES = 5


def tie_rule(beliefs):
    """The 1e-9 tie rule of ``logical_state`` with no table."""
    out = {}
    for sid, b in beliefs.items():
        values = np.asarray(b, dtype=float).tolist()
        top = max(values)
        out[sid] = [v >= top - 1e-9 for v in values].index(True)
    return out


def old_softmax(v):
    """The softmax as it was: numpy's max, then a new array per step."""
    v = np.asarray(v, dtype=float)
    z = np.exp(v - v.max())
    return z / z.sum()


def old_update_beliefs(beliefs, observations, last_action, model):
    """``update_beliefs`` as it was: the evidence added into a new array,
    then :func:`old_softmax`."""
    updated = {}
    for sid, state in model.states.items():
        b = np.asarray(beliefs[sid], dtype=float)
        acted = last_action is not None and sid in last_action.transitions
        index = observations.get(sid)
        if not acted and index is None:
            updated[sid] = b.copy()
            continue
        _, _, log_b = state.transitions[last_action.name] if acted else state.identity
        v = log_b @ b
        if index is not None:
            v = v + evidence(state.identity[2], index)
        updated[sid] = old_softmax(v)
    return updated


def best_ns(fn, calls, repeats) -> float:
    """Best of ``repeats`` passes of ``fn`` over ``calls`` (each an
    argument tuple), in ns per call."""
    best = float("inf")
    for _ in range(repeats):
        inference.clear_tables()
        t0 = time.perf_counter_ns()
        for args in calls:
            fn(*args)
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
    fresh = [(dict(zip(sids, pair)),) for pair in
             np.stack([p, 1 - p], axis=1).reshape(args.calls, STATES, 2)]
    repeated = [fresh[0]] * args.calls
    print(f"{args.calls} calls of {STATES} states, best of {args.repeats}; "
          f"{args.calls * STATES} distinct beliefs in 'miss', "
          f"TABLE_CAP {inference.TABLE_CAP}")
    for name, fn, calls in (("repeat", inference.logical_state, repeated),
                            ("miss", inference.logical_state, fresh),
                            ("rule", tie_rule, fresh)):
        print(f"{name:>6}: {best_ns(fn, calls, args.repeats):8.0f} ns per call")

    registry = StateRegistry([StateVar(sid, 2, ("on", "off")) for sid in sids])
    act = ActionTemplate("act", postconditions=((sids[0], 0), (sids[1], 0)),
                         transitions={sid: achieve_matrix(2, 0) for sid in sids[:2]})
    model = compile_domain(registry, [ActionTemplate("Idle"), act]).model
    observations = {sid: 1 for sid in sids[1:4]}
    perception = [(beliefs, observations, act, model) for (beliefs,) in fresh]
    print(f"update_beliefs, {STATES} states ({len(act.transitions)} acted on, "
          f"{len(observations)} observed):")
    for name, fn in (("old", old_update_beliefs), ("new", update_beliefs)):
        print(f"{name:>6}: {best_ns(fn, perception, args.repeats):8.0f} ns per call")

    for m in (2, 3):
        vectors = [(v,) for v in np.log(np.linspace(0.01, 0.99, args.calls * m)
                                        ).reshape(args.calls, m)]
        print(f"softmax, {m} entries:")
        for name, fn in (("old", old_softmax), ("new", inference.softmax)):
            print(f"{name:>6}: {best_ns(fn, vectors, args.repeats):8.0f} ns per call")


if __name__ == "__main__":
    main()
