"""Random model generators shared by the unit and acceptance suites."""

import numpy as np

from btai.inference import CompiledModel, Factor, run_active_inference


def random_categorical(rng, m):
    return rng.dirichlet(np.ones(m))


def random_stochastic(rng, m):
    return np.column_stack([rng.dirichlet(np.ones(m)) for _ in range(m)])


def random_factor(rng, m, action_names):
    transitions = {}
    for name in action_names:
        if name != "Idle" and rng.random() < 0.8:
            transitions[name] = random_stochastic(rng, m)
    return Factor(
        transitions=transitions,
        prior=random_categorical(rng, m),
        preferences=rng.uniform(-2.0, 2.0, size=m),
    )


def random_model(rng, max_m=4, max_actions=4, max_factors=3):
    """A random factorized model plus observations, for oracle comparison."""
    n_actions = int(rng.integers(1, max_actions + 1))
    actions = ["Idle"] + [f"act{i}" for i in range(n_actions - 1)]
    n_factors = int(rng.integers(1, max_factors + 1))
    factors = {}
    observations = {}
    for i in range(n_factors):
        m = int(rng.integers(2, max_m + 1))
        sid = f"s{i}"
        factors[sid] = random_factor(rng, m, actions)
        if rng.random() < 0.8:
            o = np.zeros(m)
            o[rng.integers(m)] = 1.0
            observations[sid] = o
        else:
            observations[sid] = None
    return factors, actions, observations


def factors_to_oracle(factors):
    """Convert package Factor objects to the plain-list oracle format; the
    likelihood ``a`` is the identity."""
    out = {}
    for sid, fac in factors.items():
        out[sid] = {
            "a": [list(map(float, row)) for row in np.eye(fac.m)],
            "b": {name: [list(map(float, row)) for row in b]
                  for name, b in fac.transitions.items()},
            "d": [float(x) for x in fac.prior],
            "c": [float(x) for x in fac.preferences],
        }
    return out


def obs_to_oracle(observations):
    return {sid: (None if o is None else [float(x) for x in o])
            for sid, o in observations.items()}


def observed_indices(observations):
    """The value index of each one-hot observation vector (None stays None);
    raises ValueError on a vector that is not one-hot."""
    out = {}
    for sid, o in observations.items():
        if o is not None:
            o = np.asarray(o, dtype=float)
            hot = np.flatnonzero(o)
            if o.ndim != 1 or hot.size != 1 or o[hot[0]] != 1.0:
                raise ValueError(f"observation of {sid} is not one-hot: {o!r}")
            o = int(hot[0])
        out[sid] = o
    return out


def run_on_factors(factors, actions, observations):
    """One round on self-contained factors and one-hot observations, compiled
    with ``CompiledModel.from_factors``."""
    model, beliefs, preferences = CompiledModel.from_factors(factors)
    return run_active_inference(model, actions, observed_indices(observations),
                                beliefs, preferences)
