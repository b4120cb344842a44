import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
from modelgen import (
    factors_to_oracle,
    obs_to_oracle,
    random_categorical,
    random_model,
    random_stochastic,
    run_on_factors,
)
from btai import inference
from btai.inference import (
    EPS,
    Factor,
    ModelError,
    NoPoliciesError,
    bayesian_model_average,
    check_categorical,
    check_stochastic_matrix,
    expected_free_energy,
    logical_state,
    policy_posterior,
    safe_log,
    select_action,
    softmax,
    update_posterior_states,
    variational_free_energy,
)

B_G = np.array([[0.95, 0.9], [0.05, 0.1]])
I2 = np.eye(2)


class TestSafeLog:
    def test_one(self):
        assert safe_log(1.0) == 0.0

    def test_zero_clamps(self):
        assert safe_log(0.0) == pytest.approx(math.log(1e-16))

    def test_half(self):
        assert safe_log(0.5) == pytest.approx(-0.693147, abs=1e-6)

    def test_exact_above_eps(self):
        assert safe_log(EPS) == math.log(EPS)


class TestSoftmax:
    def test_symmetry(self):
        assert softmax([0.0, 0.0]) == pytest.approx([0.5, 0.5])

    def test_no_overflow(self):
        assert softmax([1000.0, 1000.0, 1000.0]) == pytest.approx([1 / 3] * 3)

    def test_inverts_log(self):
        assert softmax(np.log([0.9, 0.1])) == pytest.approx([0.9, 0.1])

    def test_shift_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            v = rng.normal(size=4)
            c = rng.normal() * 100
            assert softmax(v + c) == pytest.approx(softmax(v), abs=1e-12)


class TestValidation:
    def test_categorical_rejects_bad_sum(self):
        with pytest.raises(ModelError):
            check_categorical([0.5, 0.6])

    def test_categorical_rejects_negative(self):
        with pytest.raises(ModelError):
            check_categorical([-0.1, 1.1])

    def test_stochastic_checks_columns(self):
        with pytest.raises(ModelError):
            check_stochastic_matrix([[0.5, 0.2], [0.4, 0.8]])

    def test_stochastic_rejects_nonsquare(self):
        with pytest.raises(ModelError):
            check_stochastic_matrix([[1.0, 0.0]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_categorical_rejects_non_finite(self, bad):
        with pytest.raises(ModelError, match="finite"):
            check_categorical([bad, 0.5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_stochastic_rejects_non_finite(self, bad):
        with pytest.raises(ModelError, match="column 0"):
            check_stochastic_matrix([[bad, 0.1], [0.5, 0.9]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_prior_rejected(self, bad):
        with pytest.raises(ModelError, match="prior"):
            Factor(transitions={}, prior=np.array([bad, 0.5]),
                   preferences=np.zeros(2))
        with pytest.raises(ModelError, match="prior"):
            update_posterior_states([I2], [0.5, bad], [None])

    @pytest.mark.parametrize("b, match", [
        ([[0.85, 0.9], [0.05, 0.1]], "must sum to 1"),
        ([[math.nan, 0.9], [0.05, 0.1]], "finite"),
        ([[1.05, 0.9], [-0.05, 0.1]], "must lie in"),
        ([[0.95, 0.9], [0.05, 0.1], [0.0, 0.0]], "must be square"),
    ])
    def test_non_stochastic_transition_rejected_cold_and_warm(self, b, match):
        # the check runs when B is interned; a content that fails is not
        # stored, so a warm table rejects it as a cold one does
        inference.clear_tables()
        messages = []
        for _ in range(3):
            with pytest.raises(ModelError, match=match) as exc:
                Factor(transitions={"a": np.array(b)}, prior=np.array([0.5, 0.5]),
                       preferences=np.zeros(2))
            messages.append(str(exc.value))
            # interns B_G, a valid matrix of the same shape
            example1_factor()
        assert messages == [messages[0]] * 3
        b = np.array(b)
        assert (b.shape, b.tobytes()) not in inference._MATRICES


class TestUpdatePosteriorStates:
    def test_observed_miss_with_move_dynamics(self):
        s = update_posterior_states([B_G], [0.5, 0.5], [1])
        assert s[0][1] == pytest.approx(1.0, abs=1e-9)
        assert s[0][0] < 1e-12
        assert s[1] == pytest.approx([0.9, 0.1], abs=1e-6)

    def test_identity_preserves_delta(self):
        s = update_posterior_states([I2], [1.0, 0.0], [0])
        assert s[0] == pytest.approx([1.0, 0.0], abs=1e-9)
        assert s[1] == pytest.approx([1.0, 0.0], abs=1e-9)

    def test_no_evidence_stays_uniform(self):
        s = update_posterior_states([I2], [0.5, 0.5], [None])
        assert s[0] == pytest.approx([0.5, 0.5])

    def test_out_of_range_index(self):
        s = update_posterior_states([B_G], [0.5, 0.5], [None, None])
        for obs in ([2], [-1], [None, 2], [0, -1]):
            with pytest.raises(ModelError, match="out of range"):
                update_posterior_states([B_G], [0.5, 0.5], obs)
            with pytest.raises(ModelError, match="out of range"):
                variational_free_energy(s, [B_G], [0.5, 0.5], obs)

    def test_wrong_transition_count(self):
        with pytest.raises(ModelError):
            update_posterior_states([], [0.5, 0.5], [1])


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(2, 4),
       observed=st.tuples(st.booleans(), st.booleans()), short=st.booleans())
def test_sweep_matches_oracle_with_both_observation_slots(seed, m, observed, short):
    rng = np.random.default_rng(seed)
    b, d = random_stochastic(rng, m), random_categorical(rng, m)
    obs = [int(rng.integers(m)) if seen else None for seen in observed]
    if short and obs[1] is None:
        obs = obs[:1]  # a missing last observation counts as None
    s = update_posterior_states([b], d, obs)
    f = variational_free_energy(s, [b], d, obs)
    bs_o, a_o, d_o = [b.tolist()], np.eye(m).tolist(), d.tolist()
    obs_o = [None if o is None else np.eye(m)[o].tolist() for o in obs]
    s_o = oracle.posterior_states(bs_o, a_o, d_o, obs_o)
    assert len(s) == len(s_o) == 2
    for got, want in zip(s, s_o):
        assert got == pytest.approx(want, abs=1e-9)
    assert f == pytest.approx(oracle.free_energy(s_o, bs_o, a_o, d_o, obs_o), abs=1e-9)


class TestFreeEnergy:
    def test_perfect_fit_near_zero(self):
        delta = [1.0, 0.0]
        f = variational_free_energy([np.array(delta)], [], delta, [0])
        assert abs(f) < 1e-6

    def test_uniform_self_is_zero(self):
        f = variational_free_energy([np.full(2, 0.5)], [], [0.5, 0.5], [None])
        assert f == pytest.approx(0.0, abs=1e-12)

    def test_matches_oracle_on_example_inputs(self):
        obs = [[0.0, 1.0]]
        s = update_posterior_states([B_G], [0.5, 0.5], [1])
        f = variational_free_energy(s, [B_G], [0.5, 0.5], [1])
        s_o = oracle.posterior_states([B_G.tolist()], I2.tolist(), [0.5, 0.5], obs)
        f_o = oracle.free_energy(s_o, [B_G.tolist()], I2.tolist(), [0.5, 0.5], obs)
        assert f == pytest.approx(f_o, abs=1e-9)


class TestExpectedFreeEnergy:
    def test_goal_progress_value(self):
        g = expected_free_energy([np.array([0.0, 1.0]), np.array([0.9, 0.1])],
                                 [1.0, 0.0])
        assert g == pytest.approx(-1.2251, abs=1e-3)

    def test_idle_policy_value(self):
        g = expected_free_energy([np.array([0.0, 1.0]), np.array([1e-16, 1.0])],
                                 [1.0, 0.0])
        assert g == pytest.approx(0.0, abs=1e-6)

    def test_matched_preferences_zero(self):
        s2 = np.array([0.3, 0.7])
        g = expected_free_energy([s2, s2], safe_log(s2))
        assert g == pytest.approx(0.0, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ModelError):
            expected_free_energy([np.full(2, 0.5)] * 2, [1.0, 0.0, 0.0])


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(2, 4),
       horizon=st.integers(1, 3),
       zeros=st.lists(st.sampled_from([0.0, -0.0]), min_size=4, max_size=4))
def test_expected_free_energy_equals_the_general_formula_bitwise(seed, m, horizon, zeros):
    # the general G with the likelihood A = I: o = A s, then cost plus
    # ambiguity, in the grouping the planner used before A was dropped
    rng = np.random.default_rng(seed)
    beliefs = []
    for _ in range(horizon):
        kind = rng.integers(3)
        if kind == 0:
            s = np.eye(m)[int(rng.integers(m))]              # exact zeros and a one
        elif kind == 1:
            s = rng.dirichlet(np.ones(m))
            s[int(rng.integers(m))] = 0.0
            s = s / s.sum()                                  # one exact zero
        else:
            s = rng.dirichlet(np.ones(m))
        beliefs.append(s)
    c = rng.uniform(-2.0, 2.0, size=m)
    for i in rng.choice(m, size=int(rng.integers(0, m + 1)), replace=False):
        c[i] = zeros[i]                                      # signed zeros
    a = np.eye(m)
    ambiguity = np.einsum("ij,ij->j", a, safe_log(a))
    want = 0.0
    for s in beliefs[1:]:
        o = a @ s
        want += float(o @ (safe_log(o) - c)) + float(s @ ambiguity)
    got = expected_free_energy(beliefs, c)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestPolicyPosterior:
    def test_symmetric(self):
        assert policy_posterior([0, 0], [0, 0]) == pytest.approx([0.5, 0.5])

    def test_example_gap(self):
        assert policy_posterior([0, 0], [-1.2251, 0]) == pytest.approx(
            [0.773, 0.227], abs=1e-3)

    def test_single(self):
        assert policy_posterior([3.0], [-1.0]) == pytest.approx([1.0])

    def test_empty(self):
        with pytest.raises(NoPoliciesError):
            policy_posterior([], [])


class TestBayesianModelAverage:
    def test_degenerate(self):
        out = bayesian_model_average([1.0, 0.0], [[0.9, 0.1], [0.2, 0.8]])
        assert out == pytest.approx([0.9, 0.1])

    def test_symmetric(self):
        out = bayesian_model_average([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]])
        assert out == pytest.approx([0.5, 0.5])

    def test_weighted(self):
        out = bayesian_model_average([0.773, 0.227],
                                     [[0.9, 0.1], [1e-16, 1.0 - 1e-16]])
        assert out == pytest.approx([0.6957, 0.3043], abs=1e-3)


class TestSelectAction:
    def test_argmax(self):
        assert select_action([0.3, 0.7], ["Idle", "moveTo"]) == "moveTo"

    def test_tie_goes_to_first_listed(self):
        assert select_action([0.25, 0.375, 0.375], ["a1", "a2", "a3"]) == "a2"
        assert select_action([0.375, 0.375, 0.25], ["a3", "a2", "a1"]) == "a3"

    def test_single(self):
        assert select_action([1.0], ["Idle"]) == "Idle"

    def test_one_probability_per_candidate(self):
        with pytest.raises(NoPoliciesError):
            select_action([0.5, 0.5], ["Idle"])


def tie_rule(belief) -> int:
    """The 1e-9 tie rule with no table: the reference for logical_state."""
    values = np.asarray(belief, dtype=float).tolist()
    top = max(values)
    return [v >= top - 1e-9 for v in values].index(True)


@st.composite
def near_tied_beliefs(draw):
    """A 1-D belief of 1-5 entries, some planted at, within or just past
    1e-9 below its maximum, and some zeros given a negative sign."""
    values = draw(st.lists(st.floats(0, 1), min_size=1, max_size=5))
    top = max(values)
    for i in draw(st.lists(st.integers(0, len(values) - 1), max_size=3)):
        values[i] = top - draw(st.sampled_from([0.0, 5e-10, 1e-9, 1.0000001e-9, 2e-9]))
    return [-0.0 if v == 0 and draw(st.booleans()) else v for v in values]


class TestTieRuleTable:
    """``logical_state`` reads each belief's index from ``inference._LOGICAL``,
    keyed by the belief's shape and float64 bytes, and runs the tie rule only
    on a miss."""

    def test_a_tie_and_a_near_tie_read_index_0(self):
        inference.clear_tables()
        beliefs = {"tie": np.array([0.5, 0.5]),
                   "near": np.array([0.5 - 4e-10, 0.5 + 4e-10]),
                   "clear": np.array([0.3, 0.7])}
        for _ in range(2):   # cold, then warm
            assert logical_state(beliefs) == {"tie": 0, "near": 0, "clear": 1}

    def test_signed_zeros_key_their_own_entries(self):
        inference.clear_tables()
        beliefs = [[0.0, 1.0], [-0.0, 1.0], [1.0, 0.0], [1.0, -0.0],
                   [0.0, -0.0], [-0.0, 0.0]]
        for _ in range(2):
            for b in beliefs:
                assert logical_state({"s": np.array(b)}) == {"s": tie_rule(b)}
        assert len(inference._LOGICAL) == len(beliefs)

    def test_a_list_is_read_as_its_array(self):
        inference.clear_tables()
        assert logical_state({"s": [0.2, 0.8]}) == {"s": 1}
        assert logical_state({"s": np.array([0.2, 0.8])}) == {"s": 1}
        assert len(inference._LOGICAL) == 1

    def test_a_matrix_still_raises_type_error(self):
        inference.clear_tables()
        logical_state({"s": np.array([0.5, 0.5])})
        # the same bytes as the stored vector: the shape keeps them apart
        for _ in range(2):
            with pytest.raises(TypeError):
                logical_state({"s": np.array([[0.5, 0.5]])})
        assert len(inference._LOGICAL) == 1

    def test_a_belief_the_rule_rejects_stores_nothing_and_raises_again(self):
        inference.clear_tables()
        for _ in range(2):
            with pytest.raises(ValueError):
                logical_state({"s": np.array([])})
            assert not inference._LOGICAL

    @pytest.mark.parametrize("belief", [[0.5, math.nan], [math.nan, 0.5],
                                        [math.inf, 0.0], [0.5, -math.inf]])
    def test_a_non_finite_belief_raises_model_error_and_stores_nothing(self, belief):
        # the rule alone reads [0.5, nan] as 0 and fails on [nan, 0.5] with
        # "True is not in list": a NaN must not be read by its position
        inference.clear_tables()
        for _ in range(2):
            with pytest.raises(ModelError, match="'s'"):
                logical_state({"ok": np.array([0.2, 0.8]), "s": np.array(belief)})
            assert len(inference._LOGICAL) == 1   # the finite belief only

    @settings(max_examples=200, deadline=None)
    @given(st.lists(near_tied_beliefs(), min_size=1, max_size=6))
    def test_cold_warm_and_tiny_cap_reads_equal_the_rule(self, beliefs):
        named = {f"s{i}": np.array(b) for i, b in enumerate(beliefs)}
        expected = {sid: tie_rule(b) for sid, b in named.items()}
        inference.clear_tables()
        assert logical_state(named) == expected   # cold
        assert logical_state(named) == expected   # warm
        cap = inference.TABLE_CAP
        inference.TABLE_CAP = 3   # emptied in the middle of a call
        try:
            inference.clear_tables()
            for _ in range(2):
                assert logical_state(named) == expected
                assert len(inference._LOGICAL) <= 3
        finally:
            inference.TABLE_CAP = cap


def example1_factor(preferences=(1.0, 0.0), prior=(0.5, 0.5)):
    return Factor(transitions={"moveTo": B_G},
                  prior=np.array(prior), preferences=np.array(preferences))


class TestRunActiveInference:
    def test_factor_of_lists(self):
        # Factor validates lists as it does arrays; compiling reads m from them
        factor = Factor(transitions={"moveTo": B_G.tolist()}, prior=[0.5, 0.5],
                        preferences=[1.0, 0.0])
        out = run_on_factors({"g": factor}, ["Idle", "moveTo"], {"g": [0.0, 1.0]})
        want = run_on_factors({"g": example1_factor()}, ["Idle", "moveTo"],
                              {"g": [0.0, 1.0]})
        assert out.policy_probs.tobytes() == want.policy_probs.tobytes()

    def test_example_goal_not_reached_chooses_move(self):
        out = run_on_factors({"g": example1_factor()},
                             ["Idle", "moveTo"], {"g": [0.0, 1.0]})
        assert out.chosen_action == "moveTo"

    def test_goal_already_reached_chooses_idle(self):
        out = run_on_factors({"g": example1_factor()},
                             ["Idle", "moveTo"], {"g": [1.0, 0.0]})
        assert out.chosen_action == "Idle"

    def test_indifferent_preferences_choose_idle(self):
        out = run_on_factors({"g": example1_factor(preferences=(0.0, 0.0))},
                             ["Idle", "moveTo"], {"g": [0.0, 1.0]})
        assert out.chosen_action == "Idle"

    def test_no_actions(self):
        with pytest.raises(NoPoliciesError):
            run_on_factors({"g": example1_factor()}, [], {"g": None})

    def test_averaged_beliefs_consistent(self):
        out = run_on_factors({"g": example1_factor()},
                             ["Idle", "moveTo"], {"g": [0.0, 1.0]})
        for t, avg in enumerate(out.averaged_beliefs["g"]):
            recomputed = bayesian_model_average(
                out.policy_probs,
                [out.per_policy_beliefs["g"][p][t]
                 for p in range(len(out.policy_probs))])
            assert avg == pytest.approx(recomputed, abs=1e-9)

    def test_averaged_beliefs_computed_on_first_use(self, monkeypatch):
        import btai.inference as inference
        calls = []
        original = inference.bayesian_model_average
        monkeypatch.setattr(inference, "bayesian_model_average",
                            lambda *a: calls.append(1) or original(*a))
        out = run_on_factors({"g": example1_factor()},
                             ["Idle", "moveTo"], {"g": [0.0, 1.0]})
        assert calls == []
        assert len(out.averaged_beliefs["g"]) == 2
        assert len(calls) == 2

    def test_outputs_on_simplex(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            factors, actions, observations = random_model(rng)
            out = run_on_factors(factors, actions, observations)
            assert out.policy_probs.sum() == pytest.approx(1.0, abs=1e-9)
            for sid in factors:
                for beliefs in out.per_policy_beliefs[sid]:
                    for b in beliefs:
                        assert b.sum() == pytest.approx(1.0, abs=1e-9)

    def test_bitwise_determinism(self):
        rng = np.random.default_rng(5)
        factors, actions, observations = random_model(rng)
        a = run_on_factors(factors, actions, observations)
        b = run_on_factors(factors, actions, observations)
        assert a.chosen_action == b.chosen_action
        assert np.array_equal(a.policy_probs, b.policy_probs)
        assert np.array_equal(a.free_energy, b.free_energy)
        assert np.array_equal(a.expected_free_energy, b.expected_free_energy)


class TestOracleAgreement:
    def test_small_random_batch(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            factors, actions, observations = random_model(rng)
            out = run_on_factors(factors, actions, observations)
            f_o, g_o, pi_o, avg_o = oracle.evaluate_model(
                factors_to_oracle(factors), actions,
                obs_to_oracle(observations))
            assert out.free_energy == pytest.approx(f_o, abs=1e-9)
            assert out.expected_free_energy == pytest.approx(g_o, abs=1e-9)
            assert out.policy_probs == pytest.approx(pi_o, abs=1e-9)
            for sid in factors:
                for t, avg in enumerate(out.averaged_beliefs[sid]):
                    assert avg == pytest.approx(avg_o[sid][t], abs=1e-9)


class TestPreferenceMonotonicity:
    def test_raising_a_preference_never_hurts_its_policy(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            factors, actions, observations = random_model(rng, max_factors=1)
            (sid, fac), = factors.items()
            out = run_on_factors(factors, actions, observations)
            k = int(rng.integers(fac.m))
            # policy whose predicted outcome at the horizon (A = I: the
            # belief itself) favours k most
            masses = [out.per_policy_beliefs[sid][p][-1] for p in range(len(actions))]
            target = int(np.argmax([m[k] for m in masses]))
            bumped = dict(factors)
            c = np.array(fac.preferences, dtype=float)
            c[k] += float(rng.uniform(0.1, 2.0))
            bumped[sid] = Factor(transitions=fac.transitions,
                                 prior=fac.prior, preferences=c)
            out2 = run_on_factors(bumped, actions, observations)
            assert out2.policy_probs[target] >= out.policy_probs[target] - 1e-12
