"""The compiled model's memo must be invisible: memoized rounds equal a
fresh evaluation bit for bit, and no memo state outlives an episode."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import yaml
from hypothesis import given, settings, strategies as st

import btai
from modelgen import random_model
from btai.episode import run_episode, write_trace
from btai.inference import (
    CompiledModel,
    expected_free_energy,
    policy_posterior,
    run_active_inference,
    safe_log,
    select_action,
    softmax,
    update_posterior_states,
    variational_free_energy,
)
from btai.scenario import scenario_from_dict, shipped_scenario_path


def uncached_round(likelihoods, transitions, beliefs, preferences, actions,
                   observations):
    """One selection round straight from the math functions, term by term,
    with nothing shared between policies, factors or rounds."""
    f = np.zeros(len(actions))
    g = np.zeros(len(actions))
    satisfied = True
    for sid, a in likelihoods.items():
        d, c, o = beliefs[sid], preferences[sid], observations.get(sid)
        obs = [o, None]
        for p, action in enumerate(actions):
            bs = [transitions[sid].get(action, np.eye(len(d)))]
            s = update_posterior_states(bs, a, d, obs)
            f[p] += variational_free_energy(s, bs, a, d, obs)
            g[p] += expected_free_energy(s, a, c)
        belief = d if o is None else softmax(safe_log(d) + safe_log(a).T @ o)
        if c[int(np.argmax(belief))] < c.max() - 1e-12:
            satisfied = False
    pi = policy_posterior(f, g)
    chosen = "Idle" if satisfied else select_action(pi, [(u,) for u in actions])
    return f, g, pi, chosen


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), identity=st.booleans(),
       rounds=st.integers(1, 8))
def test_memoized_rounds_equal_uncached_evaluation(seed, identity, rounds):
    rng = np.random.default_rng(seed)
    factors, actions, observations = random_model(
        rng, identity_likelihood=identity)
    likelihoods = {sid: f.likelihood for sid, f in factors.items()}
    transitions = {sid: f.transitions for sid, f in factors.items()}
    model, beliefs, base_c = CompiledModel.from_factors(factors)
    # small pools, so that later rounds revisit earlier keys; uniform
    # beliefs make states of equal size share memo entries
    belief_pool = [beliefs,
                   {sid: rng.dirichlet(np.ones(f.m)) for sid, f in factors.items()},
                   {sid: np.full(f.m, 1.0 / f.m) for sid, f in factors.items()}]
    pushed_c = {}
    for sid, f in factors.items():
        c = np.zeros(f.m)
        c[rng.integers(f.m)] = 2.0
        pushed_c[sid] = c
    for _ in range(rounds):
        d = belief_pool[int(rng.integers(len(belief_pool)))]
        c = {sid: (pushed_c if rng.random() < 0.5 else base_c)[sid]
             for sid in factors}
        k = int(rng.integers(1, len(actions) + 1))
        candidates = [str(u) for u in rng.permutation(actions)[:k]]
        out = run_active_inference(model, candidates, observations, d, c)
        f, g, pi, chosen = uncached_round(likelihoods, transitions, d, c,
                                          candidates, observations)
        assert np.array_equal(out.free_energy, f)
        assert np.array_equal(out.expected_free_energy, g)
        assert np.array_equal(out.policy_probs, pi)
        assert out.chosen_action == chosen


def _scenario_docs():
    base = yaml.safe_load(shipped_scenario_path("scenario_1.yaml").read_text())
    other = yaml.safe_load(shipped_scenario_path("scenario_1.yaml").read_text())
    other["name"] = "scenario_1_slow_moves"
    for action in other["actions"]:
        if action["name"] == "moveTo(shelf)":
            action["transitions"] = {"isReachable": [[0.8, 0.7], [0.2, 0.3]]}
    return {"base": base, "other": other}


def _trace_alone(doc_path: Path, out: Path) -> bytes:
    """Trace of one episode run in a fresh interpreter."""
    src = str(Path(btai.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    subprocess.run([sys.executable, "-m", "btai.cli", "run", str(doc_path),
                    "--quiet", "--trace-out", str(out)], env=env, check=False,
                   timeout=120)
    return out.read_bytes()


def test_back_to_back_episodes_do_not_share_memo(tmp_path):
    docs = _scenario_docs()
    alone = {}
    for name, doc in docs.items():
        path = tmp_path / f"{name}.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=False))
        alone[name] = _trace_alone(path, tmp_path / f"{name}-alone.jsonl")
    # same action names, different transitions: the traces must differ
    assert alone["base"] != alone["other"]
    for order in (("base", "other"), ("other", "base")):
        for name in order:
            trace = tmp_path / f"{name}-together.jsonl"
            sc = scenario_from_dict(docs[name], source=name)
            write_trace(run_episode(sc), trace)
            assert trace.read_bytes() == alone[name], name
