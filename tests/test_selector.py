import itertools

import numpy as np
import pytest

from btai import inference
from btai.bt import TickStatus, assign_ids
from btai.domain import (
    ActionTemplate,
    Predicate,
    PriorSet,
    StateRegistry,
    StateVar,
    achieve_matrix,
    compile_domain,
    holds,
    logical_state,
    update_beliefs,
)
from btai.inference import IDLE, run_active_inference
from btai.scenario import parse_scenario, shipped_scenario_path
from btai.selector import (
    _viable,
    adaptive_select,
    chain_trace,
    chain_links_ok,
    prepares,
)


def fetch_domain():
    registry = StateRegistry([
        StateVar("isAt", 2, ("at", "away")),
        StateVar("isHolding", 2, ("holding", "free")),
        StateVar("isReachable", 2, ("reachable", "far")),
    ])
    actions = [
        ActionTemplate("Idle", duration_ticks=1),
        ActionTemplate("moveTo(shelf)",
                       postconditions=(("isReachable", 0),),
                       transitions={"isReachable": achieve_matrix(2, 0)}),
        ActionTemplate("moveTo(table)",
                       postconditions=(("isAt", 0),),
                       transitions={"isAt": achieve_matrix(2, 0)}),
        ActionTemplate("Pick",
                       preconditions=(Predicate("isReachable", 0),
                                      Predicate("isHolding", 1)),
                       postconditions=(("isHolding", 0),),
                       transitions={"isHolding": achieve_matrix(2, 0)}),
    ]
    return registry, actions


def setting(registry, indices):
    beliefs = {}
    observations = {}
    for state in registry:
        # sharply peaked but not degenerate, as after a few updates
        b = np.full(state.m, 1e-12)
        b[indices[state.id]] = 1.0 - 1e-12 * (state.m - 1)
        beliefs[state.id] = b
        observations[state.id] = indices[state.id]
    return beliefs, observations, logical_state(beliefs)


def nominal_only(registry):
    """The assembly of a store that holds the tests' nominal entry and no
    pushed entry: a store whose pushed entries are all gone assembles it."""
    priors = PriorSet()
    priors.set_nominal("n", [("isHolding", 0)])
    return priors.assemble_all(registry)


class TestAdaptiveSelect:
    def test_push_chain_reaches_executable_action(self):
        registry, actions = fetch_domain()
        beliefs, obs, logical = setting(registry, {
            "isAt": 0, "isHolding": 1, "isReachable": 1})
        priors = PriorSet()
        priors.set_nominal("n", [("isHolding", 0)])
        verdict = adaptive_select(priors, beliefs, obs, logical,
                                  compile_domain(registry, actions))
        assert verdict.status == TickStatus.RUNNING
        assert verdict.action.name == "moveTo(shelf)"
        assert verdict.chain == ["Pick", "moveTo(shelf)"]
        assert Predicate("isReachable", 0) in verdict.pushed
        assert priors.assemble("isReachable", 2) == pytest.approx([2.0, 0.0])

    def test_satisfied_prior_returns_success(self):
        registry, actions = fetch_domain()
        beliefs, obs, logical = setting(registry, {
            "isAt": 0, "isHolding": 0, "isReachable": 1})
        priors = PriorSet()
        priors.set_nominal("n", [("isHolding", 0)])
        verdict = adaptive_select(priors, beliefs, obs, logical,
                                  compile_domain(registry, actions))
        assert verdict.status == TickStatus.SUCCESS
        assert verdict.action is None
        assert verdict.chain == []

    def test_exhausted_candidates_return_failure(self):
        registry, actions = fetch_domain()
        # no way to become reachable: drop the moveTo(shelf) action
        actions = [a for a in actions if a.name != "moveTo(shelf)"]
        beliefs, obs, logical = setting(registry, {
            "isAt": 0, "isHolding": 1, "isReachable": 1})
        priors = PriorSet()
        priors.set_nominal("n", [("isHolding", 0)])
        verdict = adaptive_select(priors, beliefs, obs, logical,
                                  compile_domain(registry, actions))
        assert verdict.status == TickStatus.FAILURE
        assert verdict.chain  # something was tried before giving up

    def test_pushed_prior_removed_once_satisfied(self):
        registry, actions = fetch_domain()
        beliefs, obs, logical = setting(registry, {
            "isAt": 0, "isHolding": 1, "isReachable": 0})
        priors = PriorSet()
        priors.set_nominal("n", [("isHolding", 0)])
        priors.push(Predicate("isReachable", 0))
        verdict = adaptive_select(priors, beliefs, obs, logical,
                                  compile_domain(registry, actions))
        assert Predicate("isReachable", 0) in verdict.removed_pushed
        assert priors.assemble_all(registry) is nominal_only(registry)
        # with the precondition met, Pick itself is selected
        assert verdict.action.name == "Pick"

    def test_direct_execution_when_preconditions_hold(self):
        registry, actions = fetch_domain()
        beliefs, obs, logical = setting(registry, {
            "isAt": 0, "isHolding": 1, "isReachable": 0})
        priors = PriorSet()
        priors.set_nominal("n", [("isHolding", 0)])
        verdict = adaptive_select(priors, beliefs, obs, logical,
                                  compile_domain(registry, actions))
        assert verdict.status == TickStatus.RUNNING
        assert verdict.chain == ["Pick"]
        assert verdict.pushed == []

    def test_calls_are_recorded(self):
        registry, actions = fetch_domain()
        beliefs, obs, logical = setting(registry, {
            "isAt": 0, "isHolding": 1, "isReachable": 1})
        priors = PriorSet()
        priors.set_nominal("n", [("isHolding", 0)])
        verdict = adaptive_select(priors, beliefs, obs, logical,
                                  compile_domain(registry, actions))
        assert len(verdict.calls) == 2  # Pick blocked, then moveTo(shelf)
        assert "Pick" in verdict.calls[0].candidates
        assert "Pick" not in verdict.calls[1].candidates

    def test_each_call_carries_its_own_inputs(self):
        registry, actions = fetch_domain()
        beliefs, obs, logical = setting(registry, {
            "isAt": 0, "isHolding": 1, "isReachable": 1})
        priors = PriorSet()
        priors.set_nominal("n", [("isHolding", 0)])
        verdict = adaptive_select(priors, beliefs, obs, logical,
                                  compile_domain(registry, actions))
        first, second = verdict.calls
        assert isinstance(first.candidates, tuple)
        # the chosen name leaves the list the next round is scored over
        assert second.candidates == tuple(a for a in first.candidates if a != "Pick")
        assert first.chosen_action == "Pick"
        # the push reached the second round's preferences, not the first's
        assert first.preferences["isReachable"] == pytest.approx([0.0, 0.0])
        assert second.preferences["isReachable"] == pytest.approx([2.0, 0.0])
        for out in verdict.calls:
            assert out.preferences["isHolding"] == pytest.approx([1.0, 0.0])
            assert set(out.preferences) == {s.id for s in registry}
            assert not hasattr(out, "__dict__")


PRIOR_SCENARIOS = ["scenario_1.yaml", "scenario_1_conflict.yaml",
                   "scenario_1_prior_nav.yaml", "scenario_failure.yaml",
                   "scenario_safety.yaml"]


class TestViableTable:
    """Each call lists the viable names in domain order from the logical
    state, and removes a blocked choice from its own list only."""

    @pytest.mark.parametrize("name", PRIOR_SCENARIOS)
    def test_every_logical_state_gets_the_viable_names(self, name):
        sc = parse_scenario(shipped_scenario_path(name))
        prior = next(n for n in assign_ids(sc.build_tree()) if n.kind == "prior")
        ranges = [range(s.m) for s in sc.domain.states]
        inference.clear_tables()
        for warm in (False, True):
            for values in itertools.product(*ranges):
                beliefs, obs, logical = setting(
                    sc.domain.registry, dict(zip([s.id for s in sc.domain.states], values)))
                priors = PriorSet()
                priors.set_nominal(prior, prior.targets)
                verdict = adaptive_select(priors, beliefs, obs, logical, sc.domain)
                expected = _viable(sc.domain.actions, logical)
                assert list(verdict.calls[0].candidates) == expected, (warm, values)

    def test_a_push_chain_leaves_the_shared_names_whole(self):
        registry, actions = fetch_domain()
        domain = compile_domain(registry, actions)
        beliefs, obs, logical = setting(registry, {
            "isAt": 0, "isHolding": 1, "isReachable": 1})
        for _ in range(2):
            priors = PriorSet()
            priors.set_nominal("n", [("isHolding", 0)])
            verdict = adaptive_select(priors, beliefs, obs, logical, domain)
            # Pick was chosen, blocked and removed from this call's names
            assert verdict.chain == ["Pick", "moveTo(shelf)"]
            # moveTo(table) is not viable: its postcondition holds
            assert verdict.calls[0].candidates == ("Idle", "moveTo(shelf)", "Pick")
            assert "Pick" not in verdict.calls[1].candidates

    @pytest.mark.parametrize("order", [[("isReachable", 0), ("isAt", 0)],
                                       [("isAt", 0), ("isReachable", 0)]])
    def test_removed_pushed_keeps_the_push_order(self, order):
        registry, actions = fetch_domain()
        beliefs, obs, logical = setting(registry, {
            "isAt": 0, "isHolding": 1, "isReachable": 0})
        priors = PriorSet()
        priors.set_nominal("n", [("isHolding", 0)])
        for pred in order:
            priors.push(Predicate(*pred))
        priors.push(Predicate(*order[0]))   # a push again keeps its place
        verdict = adaptive_select(priors, beliefs, obs, logical,
                                  compile_domain(registry, actions))
        assert verdict.removed_pushed == [Predicate(*p) for p in order]
        assert priors.assemble_all(registry) is nominal_only(registry)


def test_viable_reads_all_postconditions_in_one_step():
    """``_viable`` reads each template's postconditions at once; it lists
    what the rule pair by pair lists, in order: a candidate unless every
    postcondition holds, and an action without postconditions always.  Two
    indices on one state never hold together."""
    actions = [ActionTemplate(IDLE),
               ActionTemplate("one", postconditions=(("a", 1),)),
               ActionTemplate("two", postconditions=(("a", 0), ("b", 2))),
               ActionTemplate("three", postconditions=(("b", 1), ("c", 0), ("a", 1))),
               ActionTemplate("clash", postconditions=(("b", 0), ("b", 1)))]
    for a, b, c in itertools.product(range(2), range(3), range(2)):
        logical = {"a": a, "b": b, "c": c}
        want = [x.name for x in actions
                if not x.postconditions or any(logical[sid] != idx
                                               for sid, idx in x.postconditions)]
        assert _viable(actions, logical) == want, logical
    with pytest.raises(KeyError):
        _viable(actions, {"a": 0})


def test_a_tied_belief_is_read_four_ways():
    """Pins how the four readings of one state's value disagree after a
    confident belief meets a contradicting noiseless observation.  ROADMAP
    items 8(c) and 11(c) decide how a tied belief is read; the change that
    makes that decision updates this test.

    The belief is within 1e-9 of a tie but not exactly tied, and the tie
    rule, not the exact bits, decides the logical value (see ROADMAP item
    13), so the tie is asserted to that tolerance.  Then: the observation
    reads 1; ``logical_state`` reads 0, and so do ``holds`` and the viable
    check; the planner reads the observation, 1."""
    registry = StateRegistry([StateVar("s", 2, ("a", "b"))])
    to_zero = ActionTemplate("set(s=0)", postconditions=(("s", 0),),
                             transitions={"s": achieve_matrix(2, 0)})
    domain = compile_domain(registry, [ActionTemplate(IDLE), to_zero])
    observations = {"s": 1}
    beliefs = update_beliefs({"s": np.array([1 - 1e-16, 1e-16])}, observations,
                             None, domain.model)
    assert abs(beliefs["s"][0] - beliefs["s"][1]) < 1e-9
    logical = logical_state(beliefs)
    assert observations["s"] == 1
    assert logical == {"s": 0}
    assert holds(Predicate("s", 0), logical)
    assert _viable([to_zero], logical) == []
    candidates = [IDLE, to_zero.name]
    prefers_one = run_active_inference(domain.model, candidates, observations, beliefs,
                                       {"s": np.array([0.0, 1.0])})
    assert prefers_one.chosen_action == IDLE
    prefers_zero = run_active_inference(domain.model, candidates, observations, beliefs,
                                        {"s": np.array([1.0, 0.0])})
    assert prefers_zero.chosen_action != IDLE


def test_an_unobserved_near_tie_is_read_by_the_logical_tie_rule():
    """Without an observation the planner reads a state by the tree's tie
    rule, not by the exact argmax: a belief within 1e-9 of a tie reads as
    index 0, which C prefers, so no action is needed."""
    model = compile_domain(StateRegistry([StateVar("s", 2, ("a", "b"))]), [
        ActionTemplate(IDLE), ActionTemplate("set(s=0)", postconditions=(("s", 0),),
                                             transitions={"s": achieve_matrix(2, 0)})]).model
    beliefs = {"s": np.array([0.5 - 1e-12, 0.5 + 1e-12])}
    assert logical_state(beliefs) == {"s": 0}
    out = run_active_inference(model, [IDLE, "set(s=0)"], {"s": None}, beliefs,
                               {"s": np.array([1.0, 0.0])})
    assert out.chosen_action == IDLE


class TestPrepares:
    def test_move_prepares_pick(self):
        _, actions = fetch_domain()
        by_name = {a.name: a for a in actions}
        assert prepares(by_name["moveTo(shelf)"], by_name["Pick"])

    def test_unrelated_action_does_not_prepare(self):
        _, actions = fetch_domain()
        by_name = {a.name: a for a in actions}
        assert not prepares(by_name["moveTo(table)"], by_name["Pick"])

    def test_chain_links_ok(self):
        _, actions = fetch_domain()
        by_name = {a.name: a for a in actions}
        assert chain_links_ok([("Pick", "moveTo(shelf)")], by_name)
        assert not chain_links_ok([("Pick", "moveTo(table)")], by_name)


class TestChainTrace:
    def test_dedup_and_maximality(self):
        chains = [["Pick", "moveTo"], ["moveTo"], ["Pick", "moveTo"], ["Place"]]
        assert chain_trace(chains) == [("Pick", "moveTo"), ("Place",)]

    def test_single_action_chain_kept(self):
        assert chain_trace([["Place"]]) == [("Place",)]

    def test_empty(self):
        assert chain_trace([]) == []


class TestSplitPreparesSegments:
    def test_keeps_push_built_chain_whole(self):
        from btai.selector import split_prepares_segments
        _, actions = fetch_domain()
        by_name = {a.name: a for a in actions}
        segs = split_prepares_segments(["Pick", "moveTo(shelf)"], by_name)
        assert segs == [["Pick", "moveTo(shelf)"]]

    def test_breaks_unrelated_followup(self):
        from btai.selector import split_prepares_segments
        _, actions = fetch_domain()
        by_name = {a.name: a for a in actions}
        segs = split_prepares_segments(["Pick", "moveTo(table)"], by_name)
        assert segs == [["Pick"], ["moveTo(table)"]]
