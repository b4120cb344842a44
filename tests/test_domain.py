import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from btai.domain import (
    ActionTemplate,
    DomainError,
    Predicate,
    PriorSet,
    StateRegistry,
    StateVar,
    UnknownStateError,
    achieve_matrix,
    compile_domain,
    holds,
    logical_state,
    strict_float,
    strict_str,
    strict_str_list,
    update_beliefs,
)
from btai.inference import safe_log, softmax


def make_registry():
    return StateRegistry([
        StateVar("isAt", 2, ("at", "away")),
        StateVar("isHolding", 2, ("holding", "free")),
    ])


class TestStateVar:
    def test_rejects_m1(self):
        with pytest.raises(DomainError):
            StateVar("x", 1, ("only",))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(DomainError):
            StateVar("x", 2, ("a", "a"))


class TestAchieveMatrix:
    def test_reproduces_canonical_move_matrix(self):
        b = achieve_matrix(2, 0)
        assert b == pytest.approx(np.array([[0.95, 0.9], [0.05, 0.1]]))

    def test_columns_stochastic(self):
        for m in (2, 3, 4):
            for target in range(m):
                b = achieve_matrix(m, target)
                assert b.sum(axis=0) == pytest.approx(np.ones(m))
                for j in range(m):
                    assert np.argmax(b[:, j]) == target or j == target

    def test_target_column_keeps_state(self):
        b = achieve_matrix(3, 1)
        assert b[1, 1] == pytest.approx(0.95)


class TestRegistry:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(DomainError):
            StateRegistry([StateVar("a", 2, ("x", "y"))] * 2)

    def test_unknown_state(self):
        with pytest.raises(UnknownStateError):
            make_registry().get("nope")

    def test_uniform_beliefs(self):
        beliefs = make_registry().uniform_beliefs()
        assert beliefs["isAt"] == pytest.approx([0.5, 0.5])


class TestActionValidation:
    def test_good_action(self):
        reg = make_registry()
        act = ActionTemplate("Pick", preconditions=(Predicate("isAt", 0),),
                             postconditions=(("isHolding", 0),),
                             transitions={"isHolding": achieve_matrix(2, 0)})
        reg.validate_action(act)

    def test_transition_without_postcondition(self):
        reg = make_registry()
        act = ActionTemplate("Odd", transitions={"isHolding": achieve_matrix(2, 0)})
        with pytest.raises(DomainError):
            reg.validate_action(act)

    def test_transition_fighting_postcondition(self):
        reg = make_registry()
        act = ActionTemplate("Odd", postconditions=(("isHolding", 0),),
                             transitions={"isHolding": achieve_matrix(2, 1)})
        with pytest.raises(DomainError):
            reg.validate_action(act)

    def test_bad_duration(self):
        with pytest.raises(DomainError):
            ActionTemplate("Quick", duration_ticks=0)

    def test_success_probability(self):
        act = ActionTemplate("Go", postconditions=(("isAt", 0),),
                             transitions={"isAt": achieve_matrix(2, 0)})
        assert act.success_probability == pytest.approx(0.95)
        assert ActionTemplate("Idle").success_probability == 1.0


class TestUpdateBeliefs:
    def test_bayes_step_from_uniform(self):
        reg = make_registry()
        beliefs = reg.uniform_beliefs()
        obs = {"isAt": 1, "isHolding": None}
        out = update_beliefs(beliefs, obs, None, compile_domain(reg, []).model)
        assert out["isAt"][1] == pytest.approx(1.0, abs=1e-9)
        assert out["isAt"][0] == pytest.approx(1e-16, rel=0.5)

    def test_absent_observation_keeps_belief(self):
        reg = make_registry()
        beliefs = {"isAt": np.array([0.7, 0.3]), "isHolding": np.array([0.5, 0.5])}
        obs = {"isAt": None, "isHolding": None}
        out = update_beliefs(beliefs, obs, None, compile_domain(reg, []).model)
        assert out["isAt"] == pytest.approx([0.7, 0.3], abs=1e-9)

    def test_unknown_state_in_observation(self):
        reg = make_registry()
        obs = {"ghost": 0}
        with pytest.raises(UnknownStateError):
            update_beliefs(reg.uniform_beliefs(), obs, None, compile_domain(reg, []).model)

    def test_contradiction_flips_within_two_updates(self):
        reg = make_registry()
        beliefs = {"isAt": np.array([1.0, 0.0]), "isHolding": np.array([0.5, 0.5])}
        obs = {"isAt": 1, "isHolding": None}
        beliefs = update_beliefs(beliefs, obs, None, compile_domain(reg, []).model)
        beliefs = update_beliefs(beliefs, obs, None, compile_domain(reg, []).model)
        assert logical_state(beliefs)["isAt"] == 1

    def test_noiseless_observation_sets_logical_state(self):
        reg = make_registry()
        beliefs = reg.uniform_beliefs()
        obs = {"isAt": 0, "isHolding": 1}
        out = update_beliefs(beliefs, obs, None, compile_domain(reg, []).model)
        logical = logical_state(out)
        assert logical["isAt"] == 0
        assert logical["isHolding"] == 1

    def test_simplex_preserved(self):
        reg = make_registry()
        rng = np.random.default_rng(3)
        beliefs = reg.uniform_beliefs()
        for _ in range(20):
            obs = {s.id: int(rng.integers(2)) for s in reg}
            beliefs = update_beliefs(beliefs, obs, None, compile_domain(reg, []).model)
            for b in beliefs.values():
                assert b.sum() == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_folding_the_observation_in_again_reads_the_observed_index(data):
    """A belief from ``update_beliefs`` with observation k holds evidence
    ln 1e-16 off index k, so its log at k beats every other entry's by at
    least ln 1e16, less rounding.  Folding k in once more, as the planner's
    satisfied check did before it read the observation, gives back exactly
    k, also where the belief is within 1e-9 of a tie.  So reading the
    observation changes no byte for an observed state."""
    m = data.draw(st.integers(2, 4), label="m")
    target = data.draw(st.integers(0, m - 1), label="target")
    sparse = np.zeros((m, m))
    for j in range(m):
        hi, lo = data.draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2))
        weight = data.draw(st.sampled_from([1.0, 0.9, 0.5]))
        sparse[hi, j] += weight
        sparse[lo, j] += 1.0 - weight
    absorbing = np.zeros((m, m))
    absorbing[target] = 1.0
    actions = {name: ActionTemplate(name, postconditions=(("s", target),),
                                    transitions={"s": b})
               for name, b in [("achieve", achieve_matrix(m, target)),
                               ("identity", np.eye(m)), ("absorbing", absorbing),
                               ("sparse", sparse)]}
    registry = StateRegistry([StateVar("s", m, tuple(f"v{i}" for i in range(m)))])
    model = compile_domain(registry, list(actions.values())).model
    top = data.draw(st.integers(0, m - 1), label="top")
    beliefs = {"s": data.draw(st.sampled_from([
        np.eye(m)[top],
        np.where(np.arange(m) == top, 1.0 - (m - 1) * 1e-16, 1e-16),
        np.full(m, 1.0 / m)]), label="prior")}
    log_identity = safe_log(np.eye(m))
    for _ in range(data.draw(st.integers(1, 6), label="steps")):
        action = actions.get(data.draw(st.sampled_from([None, *actions])))
        k = data.draw(st.integers(0, m - 1))
        beliefs = update_beliefs(beliefs, {"s": k}, action, model)
        assert int(np.argmax(softmax(safe_log(beliefs["s"]) + log_identity[k]))) == k


class TestLogicalState:
    def test_paper_belief(self):
        out = logical_state({"g": np.array([0.08, 0.92])})
        assert out["g"] == 1

    def test_tie_goes_low(self):
        out = logical_state({"g": np.array([0.5, 0.5])})
        assert out["g"] == 0

    def test_argmax(self):
        out = logical_state({"g": np.array([0.2, 0.3, 0.5])})
        assert out["g"] == 2


class TestHolds:
    def test_true_case(self):
        logical = logical_state({"isAt": np.array([1.0, 0.0]),
                                 "isHolding": np.array([0.0, 1.0])})
        assert holds(Predicate("isAt", 0), logical)
        assert not holds(Predicate("isHolding", 0), logical)


class TestPriorSet:
    def test_nominal_then_pushed_assembles_conflict_vector(self):
        priors = PriorSet()
        priors.set_nominal("nodeA", [("isHolding", 0)])
        priors.push(Predicate("isHolding", 1))
        assert priors.assemble("isHolding", 2) == pytest.approx([1.0, 2.0])

    def test_nominal_only(self):
        priors = PriorSet()
        priors.set_nominal("nodeA", [("g", 0)])
        assert priors.assemble("g", 2) == pytest.approx([1.0, 0.0])

    def test_empty(self):
        assert PriorSet().assemble("g", 2) == pytest.approx([0.0, 0.0])

    def test_pushed_replaces_previous_push(self):
        priors = PriorSet()
        priors.push(Predicate("g", 0))
        priors.push(Predicate("g", 1))
        assert priors.assemble("g", 2) == pytest.approx([0.0, 2.0])
        # the one pushed entry is g=1: g=0 is gone, g=1 holds and goes
        assert priors.remove_held({"g": 0}) == []
        assert priors.remove_held({"g": 1}) == [Predicate("g", 1)]
        assert priors.remove_held({"g": 1}) == []

    def test_remove_pushed(self):
        priors = PriorSet()
        priors.push(Predicate("g", 0))
        assert priors.remove_held({"g": 0}) == [Predicate("g", 0)]
        # no pushed entry is left, whatever the logical state
        assert priors.remove_held({"g": 0}) == []
        assert priors.remove_held({"g": 1}) == []
        assert priors.assemble("g", 2) == pytest.approx([0.0, 0.0])

    def test_assemble_idempotent_and_order_independent(self):
        a = PriorSet()
        a.set_nominal("n1", [("g", 0)])
        a.push(Predicate("h", 1))
        b = PriorSet()
        b.push(Predicate("h", 1))
        b.set_nominal("n1", [("g", 0)])
        for sid in ("g", "h"):
            assert a.assemble(sid, 2) == pytest.approx(b.assemble(sid, 2))
            assert a.assemble(sid, 2) == pytest.approx(a.assemble(sid, 2))


class TestAssembleAll:
    @staticmethod
    def registry():
        return StateRegistry([StateVar("g", 2, ("a", "b")),
                              StateVar("h", 3, ("a", "b", "c"))])

    def test_read_only_and_shared_between_calls(self):
        registry = self.registry()
        priors = PriorSet()
        priors.set_nominal("n", [("g", 0)])
        first = priors.assemble_all(registry)
        second = priors.assemble_all(registry)
        assert list(first) == ["g", "h"]
        for sid, c in first.items():
            assert c is second[sid]
            assert not c.flags.writeable
        with pytest.raises(ValueError):
            first["g"][1] = 5.0
        # one mapping per assembly, which no caller can change
        assert first is second
        with pytest.raises(TypeError):
            first["g"] = np.zeros(2)
        with pytest.raises(TypeError):
            del first["h"]
        assert {sid: c.tolist() for sid, c in first.items()} == {
            "g": [1.0, 0.0], "h": [0.0, 0.0, 0.0]}

    def test_every_change_shows_in_the_next_assembly(self):
        registry = self.registry()
        priors = PriorSet()
        priors.set_nominal("n1", [("g", 0)])
        first = priors.assemble_all(registry)
        changes = [
            lambda: priors.push(Predicate("h", 2)),
            lambda: priors.remove_held({"h": 2}),
            lambda: priors.set_nominal("n2", [("h", 1)]),
            lambda: priors.clear_nominal(),
            lambda: priors.set_nominal("n1", [("g", 0)]),
        ]
        previous = first
        for change in changes:
            change()
            out = priors.assemble_all(registry)
            assert {sid: c.tolist() for sid, c in out.items()} != {
                sid: c.tolist() for sid, c in previous.items()}
            for s in registry:
                assert np.array_equal(out[s.id], priors.assemble(s.id, s.m))
            previous = out
        # the same content again: the vectors assembled first
        assert all(previous[sid] is first[sid] for sid in first)


class TestAssemblyTable:
    """An assembly is a process-wide value: stores with equal entries on one
    registry share its read-only mapping."""

    @staticmethod
    def entries(priors, nominal=(("g", 0),), pushed=(("h", 2),)):
        priors.set_nominal("n", nominal)
        for sid, idx in pushed:
            priors.push(Predicate(sid, idx))
        return priors

    def test_equal_entries_share_one_mapping(self):
        registry = TestAssembleAll.registry()
        a, b = self.entries(PriorSet()), self.entries(PriorSet())
        first, second = a.assemble_all(registry), b.assemble_all(registry)
        assert first is second
        assert all(not c.flags.writeable for c in first.values())
        with pytest.raises(TypeError):
            first["g"] = np.zeros(2)
        assert {sid: c.tolist() for sid, c in first.items()} == {
            "g": [1.0, 0.0], "h": [0.0, 0.0, 2.0]}

    def test_every_vector_equals_assemble(self):
        registry = TestAssembleAll.registry()
        cases = [((), ()), ((("g", 1),), ()), ((), (("h", 0),)),
                 ((("g", 0), ("h", 1)), (("h", 1),)), ((("h", 2),), (("g", 1), ("h", 0)))]
        for _ in range(2):   # cold, then from the table
            for nominal, pushed in cases:
                priors = self.entries(PriorSet(), nominal, pushed)
                out = priors.assemble_all(registry)
                assert list(out) == ["g", "h"]
                for s in registry:
                    assert np.array_equal(out[s.id], priors.assemble(s.id, s.m))

    def test_registries_with_other_sizes_share_no_entry(self):
        two = StateRegistry([StateVar("g", 2, ("a", "b")), StateVar("h", 3, ("a", "b", "c"))])
        four = StateRegistry([StateVar("g", 4, ("a", "b", "c", "d")),
                              StateVar("h", 3, ("a", "b", "c"))])
        priors = self.entries(PriorSet())
        small = priors.assemble_all(two)
        large = self.entries(PriorSet()).assemble_all(four)
        assert small is not large
        assert [len(small[sid]) for sid in small] == [2, 3]
        assert [len(large[sid]) for sid in large] == [4, 3]
        assert large["g"].tolist() == [1.0, 0.0, 0.0, 0.0]
        # and again from the table, in the other order
        assert self.entries(PriorSet()).assemble_all(four) is large
        assert self.entries(PriorSet()).assemble_all(two) is small


def test_strict_float():
    assert strict_float(1, "x") == 1.0 and isinstance(strict_float(1, "x"), float)
    assert strict_float(0.25, "x") == 0.25
    for bad in (True, "0.5", None, [0.5]):
        with pytest.raises(TypeError):
            strict_float(bad, "x")
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            strict_float(bad, "x")


def test_strict_str():
    assert strict_str("isAt", "x") == "isAt"
    for bad in (None, 7, True, [1, 2], {"a": 1}):
        with pytest.raises(TypeError):
            strict_str(bad, "x")


def test_strict_str_list():
    assert strict_str_list(["a", "b"], "x") == ["a", "b"]
    assert strict_str_list([], "x") == []
    for bad in ("ab", {"a": 1}, ("a", "b"), ["a", 2], [True], None):
        with pytest.raises(TypeError):
            strict_str_list(bad, "x")
