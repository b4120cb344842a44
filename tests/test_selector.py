import numpy as np
import pytest

from btai.bt import TickStatus
from btai.domain import (
    ActionTemplate,
    Predicate,
    PriorSet,
    StateRegistry,
    StateVar,
    achieve_matrix,
    logical_state,
)
from btai.selector import (
    adaptive_select,
    chain_trace,
    chain_links_ok,
    compile_model,
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


class TestAdaptiveSelect:
    def test_push_chain_reaches_executable_action(self):
        registry, actions = fetch_domain()
        beliefs, obs, logical = setting(registry, {
            "isAt": 0, "isHolding": 1, "isReachable": 1})
        priors = PriorSet()
        priors.set_nominal("n", [("isHolding", 0)])
        executed = []
        verdict = adaptive_select(priors, beliefs, obs, actions, logical,
                                  registry, compile_model(registry, actions),
                                  execute=executed.append)
        assert verdict.status == TickStatus.RUNNING
        assert verdict.action.name == "moveTo(shelf)"
        assert executed[0].name == "moveTo(shelf)"
        assert verdict.chain == ["Pick", "moveTo(shelf)"]
        assert Predicate("isReachable", 0) in verdict.pushed
        assert priors.assemble("isReachable", 2) == pytest.approx([2.0, 0.0])

    def test_satisfied_prior_returns_success(self):
        registry, actions = fetch_domain()
        beliefs, obs, logical = setting(registry, {
            "isAt": 0, "isHolding": 0, "isReachable": 1})
        priors = PriorSet()
        priors.set_nominal("n", [("isHolding", 0)])
        verdict = adaptive_select(priors, beliefs, obs, actions, logical, registry,
                                  compile_model(registry, actions))
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
        verdict = adaptive_select(priors, beliefs, obs, actions, logical, registry,
                                  compile_model(registry, actions))
        assert verdict.status == TickStatus.FAILURE
        assert verdict.chain  # something was tried before giving up

    def test_pushed_prior_removed_once_satisfied(self):
        registry, actions = fetch_domain()
        beliefs, obs, logical = setting(registry, {
            "isAt": 0, "isHolding": 1, "isReachable": 0})
        priors = PriorSet()
        priors.set_nominal("n", [("isHolding", 0)])
        priors.push(Predicate("isReachable", 0))
        verdict = adaptive_select(priors, beliefs, obs, actions, logical, registry,
                                  compile_model(registry, actions))
        assert Predicate("isReachable", 0) in verdict.removed_pushed
        assert priors.pushed_predicates() == []
        # with the precondition met, Pick itself is selected
        assert verdict.action.name == "Pick"

    def test_direct_execution_when_preconditions_hold(self):
        registry, actions = fetch_domain()
        beliefs, obs, logical = setting(registry, {
            "isAt": 0, "isHolding": 1, "isReachable": 0})
        priors = PriorSet()
        priors.set_nominal("n", [("isHolding", 0)])
        verdict = adaptive_select(priors, beliefs, obs, actions, logical, registry,
                                  compile_model(registry, actions))
        assert verdict.status == TickStatus.RUNNING
        assert verdict.chain == ["Pick"]
        assert verdict.pushed == []

    def test_calls_are_recorded(self):
        registry, actions = fetch_domain()
        beliefs, obs, logical = setting(registry, {
            "isAt": 0, "isHolding": 1, "isReachable": 1})
        priors = PriorSet()
        priors.set_nominal("n", [("isHolding", 0)])
        verdict = adaptive_select(priors, beliefs, obs, actions, logical, registry,
                                  compile_model(registry, actions))
        assert len(verdict.calls) == 2  # Pick blocked, then moveTo(shelf)
        assert "Pick" in verdict.calls[0].candidates
        assert "Pick" not in verdict.calls[1].candidates


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
