"""The process-wide memo must be invisible: memoized rounds equal a
fresh evaluation bit for bit, and sharing the memo between models, episodes
and scenarios changes no byte.  Perception reads the same model and must
equal its formula bit for bit."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

import btai
from btai import inference
from modelgen import random_model, random_stochastic
from btai.domain import (
    ActionTemplate,
    StateRegistry,
    StateVar,
    update_beliefs,
)
from btai.episode import run_episode, write_trace
from btai.inference import (
    CompiledModel,
    Factor,
    expected_free_energy,
    policy_posterior,
    run_active_inference,
    safe_log,
    select_action,
    softmax,
    update_posterior_states,
    variational_free_energy,
)
from btai.scenario import parse_scenario, scenario_from_dict, shipped_scenario_path
from btai.selector import compile_model


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
    chosen = "Idle" if satisfied else select_action(pi, actions)
    return f, g, pi, chosen


def _split(factors):
    return ({sid: f.likelihood for sid, f in factors.items()},
            {sid: f.transitions for sid, f in factors.items()})


def _assert_round_equals_uncached(out, likelihoods, transitions, beliefs,
                                  preferences, actions, observations):
    f, g, pi, chosen = uncached_round(likelihoods, transitions, beliefs,
                                      preferences, actions, observations)
    assert np.array_equal(out.free_energy, f)
    assert np.array_equal(out.expected_free_energy, g)
    assert np.array_equal(out.policy_probs, pi)
    assert out.chosen_action == chosen


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), identity=st.booleans(),
       rounds=st.integers(1, 8))
def test_memoized_rounds_equal_uncached_evaluation(seed, identity, rounds):
    rng = np.random.default_rng(seed)
    factors, actions, observations = random_model(
        rng, identity_likelihood=identity)
    likelihoods, transitions = _split(factors)
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
        _assert_round_equals_uncached(out, likelihoods, transitions, d, c,
                                      candidates, observations)


def test_models_with_equal_action_names_keep_their_own_terms():
    rng = np.random.default_rng(3)
    d = {"s": rng.dirichlet(np.ones(3))}
    c = {"s": np.array([0.0, 1.0, 0.0])}
    o = {"s": np.eye(3)[2]}
    likelihoods = {"s": np.eye(3)}
    outcomes = []
    for _ in range(3):
        # same state, same action names, a different B for each model
        transitions = {"s": {"act": random_stochastic(rng, 3)}}
        model = CompiledModel(likelihoods, transitions)
        out = run_active_inference(model, ["Idle", "act"], o, d, c)
        _assert_round_equals_uncached(out, likelihoods, transitions, d, c,
                                      ["Idle", "act"], o)
        outcomes.append(out.expected_free_energy[1])
    assert len(set(outcomes)) == 3


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rounds=st.integers(2, 10))
def test_rows_follow_candidate_order_and_pushes(seed, rounds):
    rng = np.random.default_rng(seed)
    # two-valued states with identity likelihoods and uniform beliefs share
    # terms wherever their observations agree, while their transitions
    # differ under the same action names
    factors, actions, observations = random_model(rng, max_m=2, max_factors=4)
    likelihoods, transitions = _split(factors)
    model, _, c = CompiledModel.from_factors(factors)
    d = {sid: np.full(2, 0.5) for sid in factors}
    candidates = list(actions)
    for _ in range(rounds):
        k = int(rng.integers(1, len(actions) + 1))
        candidates = [str(u) for u in rng.permutation(actions)[:k]]
        if rng.random() < 0.5:
            # a push: one state's C gets the pushed value at one index
            sid = list(factors)[int(rng.integers(len(factors)))]
            pushed = np.array(c[sid], dtype=float)
            pushed[int(rng.integers(2))] = 2.0
            c = {**c, sid: pushed}
        out = run_active_inference(model, candidates, observations, d, c)
        _assert_round_equals_uncached(out, likelihoods, transitions, d, c,
                                      candidates, observations)


def _rows() -> list[tuple]:
    """The row keys of the memo: the only keys with five slots."""
    return [key for key in inference._MEMO if len(key) == 5]


def test_states_sharing_an_entry_keep_rows_per_transition(monkeypatch):
    monkeypatch.setattr(inference, "_MEMO", {})
    rng = np.random.default_rng(5)
    # same A, belief, observation and C, so the states share every term of
    # the identity; the same action name moves each state differently
    likelihoods = {"s": np.eye(2), "t": np.eye(2)}
    transitions = {"s": {"act": random_stochastic(rng, 2)},
                   "t": {"act": random_stochastic(rng, 2)}}
    d = {"s": np.array([0.3, 0.7]), "t": np.array([0.3, 0.7])}
    o = {"s": np.array([1.0, 0.0]), "t": np.array([1.0, 0.0])}
    c = {"s": np.array([0.0, 1.0]), "t": np.array([0.0, 1.0])}
    model = CompiledModel(likelihoods, transitions)
    for candidates in (["Idle", "act"], ["act", "Idle"], ["act"]):
        out = run_active_inference(model, candidates, o, d, c)
        _assert_round_equals_uncached(out, likelihoods, transitions, d, c,
                                      candidates, o)
    assert len(_rows()) == 6


def test_fresh_model_with_equal_content_reuses_rows(monkeypatch):
    monkeypatch.setattr(inference, "_MEMO", {})
    rng = np.random.default_rng(8)
    for _ in range(10):
        factors, actions, observations = random_model(rng, identity_likelihood=False)
        model, beliefs, c = CompiledModel.from_factors(factors)
        first = run_active_inference(model, actions, observations, beliefs, c)
        size = len(inference._MEMO)
        # each episode compiles its own model; copies of every array make
        # sure that only content links the two
        copies = {sid: Factor(f.likelihood.copy(),
                              {name: b.copy() for name, b in f.transitions.items()},
                              f.prior.copy(), f.preferences.copy())
                  for sid, f in factors.items()}
        fresh, beliefs, c = CompiledModel.from_factors(copies)
        again = run_active_inference(fresh, actions, observations, beliefs, c)
        assert len(inference._MEMO) == size
        assert np.array_equal(again.policy_probs, first.policy_probs)
        assert again.chosen_action == first.chosen_action


def test_table_keeps_private_copies_of_caller_arrays(monkeypatch):
    monkeypatch.setattr(inference, "_MEMO", {})
    checked = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        factors, actions, observations = random_model(
            rng, identity_likelihood=False)
        if len(actions) < 2:
            continue
        likelihoods, transitions = _split(factors)
        model, beliefs, c = CompiledModel.from_factors(factors)
        d = {sid: b.copy() for sid, b in beliefs.items()}
        o = {sid: None if x is None else x.copy() for sid, x in observations.items()}
        # the first round evaluates only Idle's terms ...
        run_active_inference(model, ["Idle"], o, d, c)
        # ... then the caller reuses its arrays in place
        for sid, b in d.items():
            b[:] = rng.dirichlet(np.ones(b.size))
            if o[sid] is not None:
                o[sid][:] = np.roll(o[sid], 1)
        # a later round on the original values evaluates the other terms
        out = run_active_inference(model, actions, observations, beliefs, c)
        _assert_round_equals_uncached(out, likelihoods, transitions, beliefs, c,
                                      actions, observations)
        checked += 1
    assert checked >= 5


def test_rounds_with_equal_transitions_share_rows(monkeypatch):
    monkeypatch.setattr(inference, "_MEMO", {})
    rng = np.random.default_rng(13)
    b = random_stochastic(rng, 3)
    likelihoods = {"s": np.eye(3), "t": random_stochastic(rng, 2)}
    # "twin" moves every state as "act" does; neither "Idle" nor "wait" acts
    transitions = {"s": {"act": b, "twin": b.copy()}, "t": {}}
    d = {"s": rng.dirichlet(np.ones(3)), "t": np.array([0.4, 0.6])}
    o = {"s": np.eye(3)[1], "t": None}
    c = {"s": np.array([0.0, 0.0, 2.0]), "t": np.array([1.0, 0.0])}
    model = CompiledModel(likelihoods, transitions)
    first = run_active_inference(model, ["Idle", "act"], o, d, c)
    size = len(inference._MEMO)
    again = run_active_inference(model, ["wait", "twin"], o, d, c)
    _assert_round_equals_uncached(again, likelihoods, transitions, d, c,
                                  ["wait", "twin"], o)
    assert len(inference._MEMO) == size
    assert np.array_equal(again.policy_probs, first.policy_probs)


@pytest.mark.parametrize("cap", [3, 40])
def test_tables_stay_within_their_cap(monkeypatch, cap):
    # with cap 3 the memo is also emptied inside a row's evaluation
    monkeypatch.setattr(inference, "TABLE_CAP", cap)
    monkeypatch.setattr(inference, "_MEMO", {})
    monkeypatch.setattr(inference, "_MATRICES", {})
    remembered = []
    remember = inference._remember

    def counting_remember(key, value):
        remembered.append(key)
        return remember(key, value)

    monkeypatch.setattr(inference, "_remember", counting_remember)
    rng = np.random.default_rng(11)
    # the first model outlives many clears of both tables
    first = random_model(rng)
    first_model = CompiledModel.from_factors(first[0])
    for i in range(80):
        factors, actions, observations = first if i % 10 == 0 else random_model(rng)
        likelihoods, transitions = _split(factors)
        model, beliefs, c = (first_model if i % 10 == 0
                             else CompiledModel.from_factors(factors))
        # revisit a few beliefs, so that later rounds hit earlier keys
        pool = [beliefs, {sid: rng.dirichlet(np.ones(f.m)) for sid, f in factors.items()}]
        for _ in range(3):
            d = pool[int(rng.integers(len(pool)))]
            k = int(rng.integers(1, len(actions) + 1))
            candidates = [str(u) for u in rng.permutation(actions)[:k]]
            out = run_active_inference(model, candidates, observations, d, c)
            _assert_round_equals_uncached(out, likelihoods, transitions, d, c,
                                          candidates, observations)
            assert len(inference._MEMO) <= cap
            assert len(inference._MATRICES) <= cap
    assert len(remembered) > 5 * cap


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


def test_back_to_back_episodes_share_memo_byte_for_byte(tmp_path):
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


def test_factor_round_after_episode_reads_the_episode_terms(monkeypatch):
    monkeypatch.setattr(inference, "_MEMO", {})
    monkeypatch.setattr(inference, "_MATRICES", {})
    sc = parse_scenario(shipped_scenario_path("scenario_1.yaml"))
    result = run_episode(sc)
    registry = sc.registry()
    likelihoods = {s.id: registry.likelihood(s.id) for s in registry}
    transitions = {s.id: {a.name: a.transitions[s.id] for a in sc.actions
                          if s.id in a.transitions} for s in registry}
    sweeps = []
    sweep = inference.update_posterior_states

    def counting_sweep(*args):
        sweeps.append(1)
        return sweep(*args)

    monkeypatch.setattr(inference, "update_posterior_states", counting_sweep)
    rounds = 0
    for record in result.records:
        beliefs = {sid: np.array(b) for sid, b in record["beliefs"].items()}
        observations = {s.id: (None if record["observations"][s.id] is None
                               else np.eye(s.m)[record["observations"][s.id]])
                        for s in registry}
        for verdict in record["selector"]:
            for call in verdict["calls"]:
                c = {sid: np.array(v) for sid, v in call["preferences"].items()}
                factors = {sid: Factor(likelihoods[sid], transitions[sid],
                                       beliefs[sid], c[sid]) for sid in likelihoods}
                out = run_active_inference(factors, call["candidates"], observations)
                _assert_round_equals_uncached(out, likelihoods, transitions, beliefs,
                                              c, call["candidates"], observations)
                assert out.free_energy.tolist() == call["F"]
                assert out.expected_free_energy.tolist() == call["G"]
                rounds += 1
    assert rounds > 0
    # a model built from Factor objects shares the episode's entries
    assert not sweeps


def term_by_term_belief(b, observation, transition):
    """One perception step straight from its formula; ``transition`` is None
    when the last action declared none for the state."""
    if transition is None and observation is None:
        return b  # identity dynamics and no evidence: the belief is kept
    m = len(b)
    v = safe_log(np.eye(m) if transition is None else transition) @ b
    if observation is not None:
        v = v + safe_log(np.eye(m)).T @ observation
    return softmax(v)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_update_beliefs_equals_term_by_term_formula(seed):
    rng = np.random.default_rng(seed)
    states = [StateVar(f"s{i}", m, tuple(f"v{j}" for j in range(m)))
              for i, m in enumerate(rng.integers(2, 5, size=rng.integers(1, 5)))]
    registry = StateRegistry(states)
    actions = [ActionTemplate("Idle")]
    for k in range(3):
        # random dynamics on some states; an explicit identity on others,
        # which shares the model's identity entry yet still acts
        transitions = {s.id: (np.eye(s.m) if rng.random() < 0.3
                              else random_stochastic(rng, s.m))
                       for s in states if rng.random() < 0.6}
        actions.append(ActionTemplate(f"act{k}", transitions=transitions))
    model = compile_model(registry, actions)
    for _ in range(4):
        beliefs, observations, expected = {}, {}, {}
        last = actions[int(rng.integers(len(actions)))] if rng.random() < 0.8 else None
        for s in states:
            b = rng.dirichlet(np.ones(s.m))
            if rng.random() < 0.3:
                b = np.eye(s.m)[rng.integers(s.m)]
            kind = rng.integers(3)  # an index, None, or not reported at all
            index = int(rng.integers(s.m)) if kind == 0 else None
            o = None if index is None else np.eye(s.m)[index]
            if kind < 2:
                observations[s.id] = index
            beliefs[s.id] = b
            transition = None if last is None else last.transitions.get(s.id)
            expected[s.id] = term_by_term_belief(b, o, transition)
        out = update_beliefs(beliefs, observations, last, model)
        assert list(out) == [s.id for s in states]
        for sid, want in expected.items():
            assert np.array_equal(out[sid], want), sid
            assert out[sid] is not beliefs[sid]


@pytest.mark.parametrize("name", ["scenario_1.yaml", "bt_classic_27.yaml"])
def test_run_episode_compiles_one_model(monkeypatch, name):
    built = []
    init = CompiledModel.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CompiledModel, "__init__", counting_init)
    result = run_episode(parse_scenario(shipped_scenario_path(name)))
    assert result.outcome == "Goal" and result.ticks > 1
    assert len(built) == 1
