"""The process-wide memo must be invisible: memoized rounds equal a
fresh evaluation bit for bit, and sharing the memo between models, episodes
and scenarios changes no byte.  Perception reads the same model and must
equal its formula bit for bit."""

import collections
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

import btai
from btai import domain as domain_mod
from btai import inference
from btai import selector as selector_mod
from modelgen import observed_indices, random_model, random_stochastic, run_on_factors
from btai.domain import (
    ActionTemplate,
    PriorSet,
    StateRegistry,
    StateVar,
    achieve_matrix,
    compile_domain,
    update_beliefs,
)
from btai.episode import run_episode, write_trace
from btai.inference import (
    CompiledModel,
    Factor,
    ModelError,
    expected_free_energy,
    logical_state,
    policy_posterior,
    preferences_satisfied,
    run_active_inference,
    safe_log,
    select_action,
    softmax,
    update_posterior_states,
    variational_free_energy,
)
from btai.scenario import parse_scenario, scenario_from_dict, shipped_scenario_path
from btai.selector import adaptive_select


def uncached_round(transitions, beliefs, preferences, actions, observations):
    """One selection round straight from the math functions, term by term,
    with nothing shared between policies, factors or rounds.  The states
    are those of ``transitions``, in its order; ``observations`` holds
    one-hot vectors."""
    f = np.zeros(len(actions))
    g = np.zeros(len(actions))
    satisfied = True
    indices = observed_indices(observations)
    for sid in transitions:
        d, c = beliefs[sid], preferences[sid]
        obs = [indices.get(sid), None]
        for p, action in enumerate(actions):
            bs = [transitions[sid].get(action, np.eye(len(d)))]
            s = update_posterior_states(bs, d, obs)
            f[p] += variational_free_energy(s, bs, d, obs)
            g[p] += expected_free_energy(s, c)
        # the value the state is read as: its observed index, or else the
        # logical tie rule: the first entry within 1e-9 of the top
        value = obs[0]
        if value is None:
            value = [x >= max(d) - 1e-9 for x in d].index(True)
        if c[value] < c.max() - 1e-12:
            satisfied = False
    pi = policy_posterior(f, g)
    chosen = "Idle" if satisfied else select_action(pi, actions)
    return f, g, pi, chosen


def _transitions(factors):
    return {sid: f.transitions for sid, f in factors.items()}


def _assert_round_equals_uncached(out, transitions, beliefs, preferences,
                                  actions, observations):
    f, g, pi, chosen = uncached_round(transitions, beliefs, preferences,
                                      actions, observations)
    assert np.array_equal(out.free_energy, f)
    assert np.array_equal(out.expected_free_energy, g)
    assert np.array_equal(out.policy_probs, pi)
    assert out.chosen_action == chosen


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rounds=st.integers(1, 8))
def test_memoized_rounds_equal_uncached_evaluation(seed, rounds):
    rng = np.random.default_rng(seed)
    factors, actions, observations = random_model(rng)
    transitions = _transitions(factors)
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
        out = run_active_inference(model, candidates, observed_indices(observations),
                                   d, c)
        _assert_round_equals_uncached(out, transitions, d, c,
                                      candidates, observations)


def test_models_with_equal_action_names_keep_their_own_terms():
    rng = np.random.default_rng(3)
    d = {"s": rng.dirichlet(np.ones(3))}
    c = {"s": np.array([0.0, 1.0, 0.0])}
    o = {"s": np.eye(3)[2]}
    outcomes = []
    for _ in range(3):
        # same state, same action names, a different B for each model
        transitions = {"s": {"act": random_stochastic(rng, 3)}}
        model = CompiledModel({"s": 3}, transitions)
        out = run_active_inference(model, ["Idle", "act"], observed_indices(o), d, c)
        _assert_round_equals_uncached(out, transitions, d, c,
                                      ["Idle", "act"], o)
        outcomes.append(out.expected_free_energy[1])
    assert len(set(outcomes)) == 3


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rounds=st.integers(2, 10))
def test_rows_follow_candidate_order_and_pushes(seed, rounds):
    rng = np.random.default_rng(seed)
    # two-valued states with uniform beliefs share terms wherever their
    # observations agree, while their transitions differ under the same
    # action names
    factors, actions, observations = random_model(rng, max_m=2, max_factors=4)
    transitions = _transitions(factors)
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
        out = run_active_inference(model, candidates, observed_indices(observations),
                                   d, c)
        _assert_round_equals_uncached(out, transitions, d, c,
                                      candidates, observations)


def _row_contents(model, candidates, observations, beliefs, preferences) -> list:
    """Each state's row content in model order, evaluated from the math
    functions: the float64 bytes of F per candidate, G per candidate and
    1.0 where the state already satisfies its preferences, else 0.0."""
    contents = []
    for sid, state in model.states.items():
        prior = np.asarray(beliefs[sid], dtype=float)
        c = np.asarray(preferences[sid], dtype=float)
        obs = [observations.get(sid), None]
        f, g = [], []
        for action in candidates:
            b = state.transition(action)[1]
            s = update_posterior_states([b], prior, obs)
            f.append(variational_free_energy(s, [b], prior, obs))
            g.append(expected_free_energy(s, c))
        value = obs[0] if obs[0] is not None else logical_state({sid: prior})[sid]
        contents.append(np.array(f + g + [preferences_satisfied(value, c)]).tobytes())
    return contents


def test_memo_holds_only_terms_and_rows():
    inference.clear_tables()
    rng = np.random.default_rng(17)
    for _ in range(10):
        factors, actions, observations = random_model(rng)
        model, d, c = CompiledModel.from_factors(factors)
        indices = observed_indices(observations)
        for _ in range(4):
            k = int(rng.integers(1, len(actions) + 1))
            candidates = tuple(str(u) for u in rng.permutation(actions)[:k])
            # a push: one state's C gets the pushed value at one index
            sid = list(factors)[int(rng.integers(len(factors)))]
            pushed = np.array(c[sid], dtype=float)
            pushed[int(rng.integers(pushed.size))] = 2.0
            c = {**c, sid: pushed}
            run_active_inference(model, candidates, indices, d, c)
            # each row holds the bytes of its F, G and satisfied flag
            keys = [(d[sid].tobytes(), indices.get(sid), ids, c[sid].tobytes())
                    for sid, ids in zip(model.states, model.transition_ids(candidates))]
            assert ([inference._MEMO[key][0] for key in keys]
                    == _row_contents(model, candidates, indices, d, c))
    # a term has 3 slots and a row 4; G is evaluated into its row
    assert {len(key) for key in inference._MEMO} == {3, 4}


def _rows() -> list[tuple]:
    """The row keys of the memo: the only keys with four slots."""
    return [key for key in inference._MEMO if len(key) == 4]


def test_states_sharing_an_entry_keep_rows_per_transition():
    inference.clear_tables()
    rng = np.random.default_rng(5)
    # same size, belief, observation and C, so the states share every term
    # of the identity; the same action name moves each state differently
    transitions = {"s": {"act": random_stochastic(rng, 2)},
                   "t": {"act": random_stochastic(rng, 2)}}
    d = {"s": np.array([0.3, 0.7]), "t": np.array([0.3, 0.7])}
    o = {"s": np.array([1.0, 0.0]), "t": np.array([1.0, 0.0])}
    c = {"s": np.array([0.0, 1.0]), "t": np.array([0.0, 1.0])}
    model = CompiledModel({"s": 2, "t": 2}, transitions)
    for candidates in (["Idle", "act"], ["act", "Idle"], ["act"]):
        out = run_active_inference(model, candidates, observed_indices(o), d, c)
        _assert_round_equals_uncached(out, transitions, d, c,
                                      candidates, o)
    assert len(_rows()) == 6


def test_fresh_model_with_equal_content_reuses_rows():
    inference.clear_tables()
    rng = np.random.default_rng(8)
    for _ in range(10):
        factors, actions, observations = random_model(rng)
        model, beliefs, c = CompiledModel.from_factors(factors)
        first = run_active_inference(model, actions, observed_indices(observations),
                                     beliefs, c)
        size = len(inference._MEMO)
        # each episode compiles its own model; copies of every array make
        # sure that only content links the two
        copies = {sid: Factor({name: b.copy() for name, b in f.transitions.items()},
                              f.prior.copy(), f.preferences.copy())
                  for sid, f in factors.items()}
        fresh, beliefs, c = CompiledModel.from_factors(copies)
        again = run_active_inference(fresh, actions, observed_indices(observations),
                                     beliefs, c)
        assert len(inference._MEMO) == size
        assert np.array_equal(again.policy_probs, first.policy_probs)
        assert again.chosen_action == first.chosen_action


def test_table_keeps_private_copies_of_caller_arrays():
    inference.clear_tables()
    checked = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        factors, actions, observations = random_model(rng)
        if len(actions) < 2:
            continue
        transitions = _transitions(factors)
        model, beliefs, c = CompiledModel.from_factors(factors)
        d = {sid: b.copy() for sid, b in beliefs.items()}
        o = {sid: None if x is None else x.copy() for sid, x in observations.items()}
        # the first round evaluates only Idle's terms ...
        run_active_inference(model, ["Idle"], observed_indices(o), d, c)
        # ... then the caller reuses its arrays in place
        for sid, b in d.items():
            b[:] = rng.dirichlet(np.ones(b.size))
            if o[sid] is not None:
                o[sid][:] = np.roll(o[sid], 1)
        # a later round on the original values evaluates the other terms
        out = run_active_inference(model, actions, observed_indices(observations),
                                   beliefs, c)
        _assert_round_equals_uncached(out, transitions, beliefs, c,
                                      actions, observations)
        checked += 1
    assert checked >= 5


def test_rounds_with_equal_transitions_share_rows():
    inference.clear_tables()
    rng = np.random.default_rng(13)
    b = random_stochastic(rng, 3)
    # "twin" moves every state as "act" does; neither "Idle" nor "wait" acts
    transitions = {"s": {"act": b, "twin": b.copy()}, "t": {}}
    d = {"s": rng.dirichlet(np.ones(3)), "t": np.array([0.4, 0.6])}
    o = {"s": np.eye(3)[1], "t": None}
    c = {"s": np.array([0.0, 0.0, 2.0]), "t": np.array([1.0, 0.0])}
    model = CompiledModel({"s": 3, "t": 2}, transitions)
    first = run_active_inference(model, ["Idle", "act"], observed_indices(o), d, c)
    size = len(inference._MEMO)
    again = run_active_inference(model, ["wait", "twin"], observed_indices(o), d, c)
    _assert_round_equals_uncached(again, transitions, d, c,
                                  ["wait", "twin"], o)
    assert len(inference._MEMO) == size
    assert np.array_equal(again.policy_probs, first.policy_probs)


def _round_bytes(out) -> tuple:
    return (out.free_energy.tobytes(), out.expected_free_energy.tobytes(),
            out.policy_probs.tobytes(), out.chosen_action)


def _below_clamp(beliefs: dict) -> dict:
    """``beliefs`` with 1e-20 for each exact zero: other bytes, so other row
    keys, but the same logs under the 1e-16 clamp, so the same row
    contents."""
    return {sid: np.where(b == 0.0, 1e-20, b) for sid, b in beliefs.items()}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rounds=st.integers(1, 8))
def test_warm_rounds_equal_cold_rounds(seed, rounds):
    # a warm round is a hit in the table of rounds; a cold one starts from
    # emptied tables and evaluates every term, G value, row and round anew
    rng = np.random.default_rng(seed)
    factors, actions, observations = random_model(rng, max_factors=4)
    model, beliefs, base_c = CompiledModel.from_factors(factors)
    # rounds that differ in one state only: a pool of beliefs and pushes
    # that each change a single state
    belief_pool, c_pool = [beliefs], [base_c]
    for sid, f in factors.items():
        belief_pool.append({**beliefs, sid: rng.dirichlet(np.ones(f.m))})
        # a one-hot belief, whose zeros have twins below the clamp
        belief_pool.append({**beliefs, sid: np.eye(f.m)[rng.integers(f.m)]})
        c = np.zeros(f.m)
        c[rng.integers(f.m)] = 2.0
        c_pool.append({**base_c, sid: c})
    indices = observed_indices(observations)
    for _ in range(rounds):
        d = belief_pool[int(rng.integers(len(belief_pool)))]
        c = c_pool[int(rng.integers(len(c_pool)))]
        k = int(rng.integers(1, len(actions) + 1))
        candidates = [str(u) for u in rng.permutation(actions)[:k]]
        run_active_inference(model, candidates, indices, d, c)
        size = len(inference._ROUNDS)
        warm = run_active_inference(model, candidates, indices, d, c)
        # rows that differ from d's only below the clamp have d's contents,
        # so their round hits d's entry
        twin = run_active_inference(model, candidates, indices, _below_clamp(d), c)
        assert len(inference._ROUNDS) == size
        assert _round_bytes(twin) == _round_bytes(warm)
        inference.clear_tables()
        cold = run_active_inference(model, candidates, indices, d, c)
        assert _round_bytes(warm) == _round_bytes(cold)
        inference.clear_tables()
        cold = run_active_inference(model, candidates, indices, _below_clamp(d), c)
        assert _round_bytes(warm) == _round_bytes(cold)
        _assert_round_equals_uncached(warm, _transitions(factors), d, c,
                                      candidates, observations)


@pytest.mark.parametrize("first", [0, 1])
def test_rounds_of_equal_scores_keep_their_own_idle(first):
    # a belief that stays uniform scores C = [2, 0] and C = [0, 2] with the
    # same F and G for every candidate, yet only the first is satisfied by
    # the value the state is read as (index 0, the tie rule's pick): the
    # flag is part of a row's content, so the two rounds keep their own
    # entries and a warm round equals a cold one
    model = CompiledModel({"s": 2}, {"s": {"act": np.full((2, 2), 0.5)}})
    d = {"s": np.full(2, 0.5)}
    pair = [{"s": np.array([2.0, 0.0])}, {"s": np.array([0.0, 2.0])}]

    def play(c):
        return _round_bytes(run_active_inference(model, ["act", "Idle"], {}, d, c))

    cold = []
    for c in pair:
        inference.clear_tables()
        cold.append(play(c))
    assert cold[0][:3] == cold[1][:3]
    assert [chosen for *_, chosen in cold] == ["Idle", "act"]
    inference.clear_tables()
    play(pair[first])
    assert play(pair[1 - first]) == cold[1 - first]


def test_round_vectors_are_read_only():
    inference.clear_tables()
    for _ in range(2):   # a miss, then a hit
        out = _index_round(1)
        for vector in (out.policy_probs, out.free_energy, out.expected_free_energy):
            with pytest.raises(ValueError):
                vector[0] = 0.5


def test_rounds_over_equal_transitions_share_one_entry():
    inference.clear_tables()
    rng = np.random.default_rng(21)
    b = random_stochastic(rng, 3)
    transitions = {"s": {"act": b, "twin": b.copy()}, "t": {}}
    d = {"s": np.array([0.2, 0.5, 0.3]), "t": np.array([0.4, 0.6])}
    o = {"s": 1, "t": None}
    model = CompiledModel({"s": 3, "t": 2}, transitions)
    names = {}
    for candidates in (["Idle", "act"], ["act", "Idle"], ["wait", "twin"],
                       ["twin", "wait"]):
        # s prefers the value that "act" and "twin" reach
        c = {"s": np.array([0.0, 0.0, 2.0]), "t": np.array([1.0, 0.0])}
        out = run_active_inference(model, candidates, o, d, c)
        names[tuple(candidates)] = out.chosen_action
    # one entry per candidate order, shared by the two names of each move
    assert len(inference._ROUNDS) == 2
    assert names == {("Idle", "act"): "act", ("act", "Idle"): "act",
                     ("wait", "twin"): "twin", ("twin", "wait"): "twin"}


def test_beliefs_equal_above_the_clamp_share_a_round():
    inference.clear_tables()
    model = CompiledModel({"s": 2}, {"s": {"act": np.array([[0.9, 0.2], [0.1, 0.8]])}})
    c = {"s": np.array([0.0, 2.0])}
    outs = [run_active_inference(model, ["Idle", "act"], {}, {"s": np.array(d)}, c)
            for d in ([1.0, 0.0], [1.0, 1e-20])]
    # two row keys, one content, one round
    rows = _rows()
    assert len(rows) == 2
    assert len({inference._MEMO[key][0] for key in rows}) == 1
    assert len(inference._ROUNDS) == 1
    assert _round_bytes(outs[0]) == _round_bytes(outs[1])
    assert outs[0].chosen_action == "act"
    # each round reads the beliefs of its own row
    for out, key in zip(outs, rows):
        assert out.per_policy_beliefs["s"] is inference._MEMO[key][1]


PRIOR_SCENARIOS = ("scenario_1.yaml", "scenario_1_conflict.yaml",
                   "scenario_1_prior_nav.yaml", "scenario_failure.yaml",
                   "scenario_safety.yaml")


@pytest.mark.parametrize("cap", [3, 60, 4096])
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1))
def test_rounds_never_see_the_same_key_twice_between_clears(cap, seed):
    # noisy, stochastic episodes of the prior-node scenarios: beliefs that
    # differ only below the log clamp give rows under different keys with
    # equal contents.  A round is a function of its rows' contents, so while
    # the table of rounds is not emptied no round key, and no round content
    # evaluated from the math functions, reaches _round twice.  With cap 3
    # the memo is also emptied in the middle of rounds.
    keys, contents = set(), set()   # seen since _ROUNDS was emptied
    inputs = []   # the arguments of the round in progress
    checked = []
    remember, evaluate = inference.remember, inference._round
    plan = selector_mod.run_active_inference

    def watching_remember(table, key, value):
        if table is inference._ROUNDS and len(table) >= inference.TABLE_CAP:
            keys.clear()
            contents.clear()
        return remember(table, key, value)

    def watching_plan(model, actions, observations, beliefs, preferences):
        inputs[:] = [model, tuple(actions), observations, beliefs, preferences]
        return plan(model, actions, observations, beliefs, preferences)

    def watching_round(round_key):
        content = (len(inputs[1]), *_row_contents(*inputs))
        assert round_key not in keys and content not in contents
        keys.add(round_key)
        contents.add(content)
        checked.append(round_key)
        return evaluate(round_key)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inference, "TABLE_CAP", cap)
        mp.setattr(inference, "remember", watching_remember)
        mp.setattr(inference, "_round", watching_round)
        mp.setattr(selector_mod, "run_active_inference", watching_plan)
        inference.clear_tables()
        rng = np.random.default_rng(seed)
        for name in PRIOR_SCENARIOS * 3:
            scenario = dataclasses.replace(
                parse_scenario(shipped_scenario_path(name)), noise_p=0.1)
            run_episode(scenario, seed=int(rng.integers(2 ** 31)), deterministic=False)
    inference.clear_tables()
    assert checked


@pytest.mark.parametrize("cap", [3, 40])
def test_tables_stay_within_their_cap(monkeypatch, cap):
    # with cap 3 the memo is also emptied inside a row's evaluation
    monkeypatch.setattr(inference, "TABLE_CAP", cap)
    inference.clear_tables()
    remembered, rounds = [], []
    remember = inference.remember

    def counting_remember(table, key, value):
        if table is inference._MEMO:
            remembered.append(key)
        elif table is inference._ROUNDS:
            rounds.append(key)
        return remember(table, key, value)

    monkeypatch.setattr(inference, "remember", counting_remember)
    rng = np.random.default_rng(11)
    # the first model outlives many clears of every table
    first = random_model(rng)
    first_model = CompiledModel.from_factors(first[0])
    for i in range(80):
        factors, actions, observations = first if i % 10 == 0 else random_model(rng)
        transitions = _transitions(factors)
        model, beliefs, c = (first_model if i % 10 == 0
                             else CompiledModel.from_factors(factors))
        # revisit a few beliefs, so that later rounds hit earlier keys
        pool = [beliefs, {sid: rng.dirichlet(np.ones(f.m)) for sid, f in factors.items()}]
        # and one-hot beliefs, whose twins below the clamp share contents
        pool.append({sid: np.eye(f.m)[0] for sid, f in factors.items()})
        for _ in range(4):
            d = pool[int(rng.integers(len(pool)))]
            if rng.random() < 0.5:
                d = _below_clamp(d)
            k = int(rng.integers(1, len(actions) + 1))
            candidates = [str(u) for u in rng.permutation(actions)[:k]]
            out = run_active_inference(model, candidates, observed_indices(observations),
                                       d, c)
            _assert_round_equals_uncached(out, transitions, d, c,
                                          candidates, observations)
            assert len(inference._MEMO) <= cap
            assert len(inference._MATRICES) <= cap
            assert len(inference._ROUNDS) <= cap
    assert len(remembered) > 5 * cap
    assert len(rounds) > 5 * cap
    kinds = collections.Counter(len(key) for key in remembered)
    assert set(kinds) == {3, 4} and kinds[4] > 5 * cap

    # the assembly table: every call below brings a registry of its own, so
    # each misses it
    stored = []

    def counted(table, key, value, remember=domain_mod.remember):
        stored.append(key)
        return remember(table, key, value)

    monkeypatch.setattr(domain_mod, "remember", counted)
    for i in range(6 * cap):
        m = 2 + i % 3
        registry = StateRegistry([StateVar("s", m, tuple("abcd"[:m]))])
        go = ActionTemplate("go", postconditions=(("s", m - 1),),
                            transitions={"s": achieve_matrix(m, m - 1)})
        domain = compile_domain(registry, [ActionTemplate(inference.IDLE), go])
        priors = PriorSet()
        priors.set_nominal("n", [("s", m - 1)])
        for value in (0, m - 1):   # go is viable, then its postcondition holds
            verdict = adaptive_select(priors, {"s": np.eye(m)[value]}, {"s": value},
                                      {"s": value}, domain)
            assert verdict.calls[0].candidates == (("Idle", "go") if value == 0
                                                   else ("Idle",))
            preferences = verdict.calls[0].preferences
            assert {sid: c.tolist() for sid, c in preferences.items()} == {
                "s": [0.0] * (m - 1) + [1.0]}
        assert len(domain_mod._ASSEMBLIES) <= cap
    assert len(stored) == 6 * cap


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
    inference.clear_tables()
    sc = parse_scenario(shipped_scenario_path("scenario_1.yaml"))
    result = run_episode(sc)
    registry = sc.domain.registry
    transitions = {s.id: {a.name: a.transitions[s.id] for a in sc.actions
                          if s.id in a.transitions} for s in registry}
    sweeps = []
    sweep = inference.update_posterior_states

    def counting_sweep(*args, **kwargs):
        sweeps.append(1)
        return sweep(*args, **kwargs)

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
                factors = {sid: Factor(transitions[sid], beliefs[sid], c[sid])
                           for sid in transitions}
                out = run_on_factors(factors, call["candidates"], observations)
                _assert_round_equals_uncached(out, transitions, beliefs,
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
    model = compile_domain(registry, actions).model
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
            assert out[sid].tobytes() == np.asarray(want).tobytes(), sid
            assert out[sid] is not beliefs[sid]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_perception_evidence_is_the_likelihood_product(seed):
    # the likelihood is the identity: update_beliefs reads the evidence of
    # index k as row k of log-I, which must equal log-I.T @ one-hot(k) bit
    # for bit
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 5))
    b = random_stochastic(rng, m)
    act = ActionTemplate("act", transitions={"s": b})
    model = CompiledModel({"s": m}, {"s": {"act": b}})
    belief = rng.dirichlet(np.ones(m))
    if rng.random() < 0.3:
        belief = np.eye(m)[int(rng.integers(m))]
    for k in range(m):
        for last in (None, act):
            want = softmax(safe_log(np.eye(m) if last is None else b) @ belief
                           + safe_log(np.eye(m)).T @ np.eye(m)[k])
            out = update_beliefs({"s": belief}, {"s": k}, last, model)
            assert out["s"].tobytes() == want.tobytes(), (k, last)


@pytest.mark.parametrize("index", [True, np.int64(1)])
def test_an_integer_like_index_is_perceived_as_its_int_value(index):
    registry = StateRegistry([StateVar("s", 2, ("a", "b"))])
    model = compile_domain(registry, [ActionTemplate("Idle")]).model
    d = np.array([0.4, 0.6])
    out = update_beliefs({"s": d}, {"s": index}, None, model)
    assert out["s"].tobytes() == term_by_term_belief(d, np.eye(2)[1], None).tobytes()


@pytest.mark.parametrize("index", [1.0, "1"])
def test_a_non_integer_index_raises(index):
    registry = StateRegistry([StateVar("s", 2, ("a", "b"))])
    model = compile_domain(registry, [ActionTemplate("Idle")]).model
    with pytest.raises(TypeError):
        update_beliefs({"s": np.array([0.4, 0.6])}, {"s": index}, None, model)


def _index_round(index):
    """A round on one two-valued state that observes value ``index``."""
    model = CompiledModel({"s": 2},
                          {"s": {"act": np.array([[0.95, 0.9], [0.05, 0.1]])}})
    return run_active_inference(model, ["Idle", "act"], {"s": index},
                                {"s": np.array([0.4, 0.6])}, {"s": np.array([1.0, 0.0])})


def _assert_same_round(out, want):
    assert out.free_energy.tobytes() == want.free_energy.tobytes()
    assert out.expected_free_energy.tobytes() == want.expected_free_energy.tobytes()
    assert out.policy_probs.tobytes() == want.policy_probs.tobytes()
    assert out.chosen_action == want.chosen_action
    for got, expected in zip(out.per_policy_beliefs["s"], want.per_policy_beliefs["s"]):
        assert [b.tobytes() for b in got] == [b.tobytes() for b in expected]


@pytest.mark.parametrize("index", [True, np.int64(1)])
def test_an_integer_like_observation_is_planned_as_its_int_value(index):
    want = _index_round(1)
    inference.clear_tables()
    _assert_same_round(_index_round(index), want)   # cold
    _assert_same_round(_index_round(index), want)   # warm
    # the memo keys the observation slot by the int itself
    assert [type(key[1]) for key in _rows()] == [int]


@pytest.mark.parametrize("index", [1.0, "1"])
def test_a_non_integer_observation_raises_cold_and_warm(index):
    inference.clear_tables()
    with pytest.raises(TypeError):
        _index_round(index)
    _index_round(1)
    # 1.0 == 1 and both hash alike, yet 1.0 must not read the row of 1
    with pytest.raises(TypeError):
        _index_round(index)


@pytest.mark.parametrize("index", [-1, 2])
def test_an_out_of_range_index_raises_cold_and_warm(index):
    # numpy would read -1 as the last value and raise IndexError for 2
    inference.clear_tables()
    registry = StateRegistry([StateVar("s", 2, ("a", "b"))])
    model = compile_domain(registry, [ActionTemplate("Idle")]).model
    d = {"s": np.array([0.4, 0.6])}
    for _ in range(2):
        with pytest.raises(ModelError, match="out of range"):
            _index_round(index)
        with pytest.raises(ModelError, match="out of range"):
            update_beliefs(d, {"s": index}, None, model)
        # a round with a valid index warms the memo for the second pass
        _index_round(1)
        assert _rows()
    assert all(key[1] == 1 for key in _rows())


@pytest.mark.parametrize("name", ["scenario_1.yaml", "bt_classic_27.yaml"])
def test_run_episode_compiles_one_model(monkeypatch, name):
    built = []
    init = CompiledModel.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CompiledModel, "__init__", counting_init)
    # a parse finds the model of equal states and actions in the table, so
    # empty it: the parse then compiles the one model the episode reads
    inference.clear_tables()
    result = run_episode(parse_scenario(shipped_scenario_path(name)))
    assert result.outcome == "Goal" and result.ticks > 1
    assert len(built) == 1
