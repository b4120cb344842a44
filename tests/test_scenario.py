import copy
import math

import pytest
import yaml

from btai.bt import node_count
from btai.scenario import (
    ScenarioError,
    parse_scenario,
    scenario_from_dict,
    scenario_to_dict,
    serialize_scenario,
    shipped_scenario_path,
)

SHIPPED = [
    "scenario_1.yaml",
    "scenario_1_conflict.yaml",
    "scenario_1_prior_nav.yaml",
    "scenario_failure.yaml",
    "scenario_safety.yaml",
    "bt_classic_27.yaml",
]


def load(name):
    return parse_scenario(shipped_scenario_path(name))


def base_dict():
    return yaml.safe_load(shipped_scenario_path("scenario_1.yaml").read_text())


class TestShippedScenarios:
    @pytest.mark.parametrize("name", SHIPPED)
    def test_parses_and_builds(self, name):
        sc = load(name)
        tree = sc.build_tree()
        assert node_count(tree) >= 1

    def test_scenario_1_shape(self):
        sc = load("scenario_1.yaml")
        assert len(sc.states) == 5
        # six action names counting grounded variants once
        assert len({a.base_name for a in sc.actions}) == 6
        assert node_count(sc.build_tree()) == 6

    def test_classic_tree_is_27_nodes(self):
        sc = load("bt_classic_27.yaml")
        assert node_count(sc.build_tree()) == 27


class TestRoundTrip:
    @pytest.mark.parametrize("name", SHIPPED)
    def test_parse_serialize_parse(self, name):
        sc = load(name)
        text = serialize_scenario(sc)
        sc2 = scenario_from_dict(yaml.safe_load(text), source="<roundtrip>")
        assert scenario_to_dict(sc) == scenario_to_dict(sc2)


class TestValidation:
    def test_missing_file(self):
        with pytest.raises(ScenarioError, match="does not exist"):
            parse_scenario("/nonexistent/path.yaml")

    def test_missing_format_header(self):
        data = base_dict()
        del data["format"]
        with pytest.raises(ScenarioError, match="format"):
            scenario_from_dict(data)

    def test_wrong_format_version(self):
        data = base_dict()
        data["format"] = "btai-scenario/99"
        with pytest.raises(ScenarioError):
            scenario_from_dict(data)

    def test_unknown_action_in_bt(self):
        data = base_dict()
        data["bt"] = {"action": "Teleport"}
        with pytest.raises(ScenarioError, match="Teleport"):
            scenario_from_dict(data)

    def test_unknown_state_in_action(self):
        data = base_dict()
        data["actions"][1]["post"] = [{"state": "ghost", "index": 0}]
        with pytest.raises(ScenarioError, match="ghost"):
            scenario_from_dict(data)

    def test_zero_budget(self):
        data = base_dict()
        data["budget_ticks"] = 0
        with pytest.raises(ScenarioError, match="budget"):
            scenario_from_dict(data)

    def test_missing_fluent(self):
        data = base_dict()
        del data["world"]["fluents"]["isAt"]
        with pytest.raises(ScenarioError, match="isAt"):
            scenario_from_dict(data)

    def test_fluent_out_of_range(self):
        data = base_dict()
        data["world"]["fluents"]["isAt"] = 7
        with pytest.raises(ScenarioError, match="isAt"):
            scenario_from_dict(data)

    def test_decreasing_perturbation_ticks(self):
        data = base_dict()
        data["perturbations"] = [
            {"at_tick": 5, "set": {"isAt": 1}},
            {"at_tick": 3, "set": {"isAt": 0}},
        ]
        with pytest.raises(ScenarioError, match="non-decreasing"):
            scenario_from_dict(data)

    def test_duplicate_action_names(self):
        data = base_dict()
        data["actions"].append(copy.deepcopy(data["actions"][1]))
        with pytest.raises(ScenarioError, match="duplicate"):
            scenario_from_dict(data)

    def test_error_names_source_file(self):
        data = base_dict()
        del data["format"]
        with pytest.raises(ScenarioError, match="my-scenario"):
            scenario_from_dict(data, source="my-scenario.yaml")

    def test_explicit_transition_override(self):
        data = base_dict()
        data["actions"][1]["transitions"] = {
            "isReachable": [[0.8, 0.7], [0.2, 0.3]]}
        sc = scenario_from_dict(data)
        move = sc.actions_by_name()["moveTo(shelf)"]
        assert move.transitions["isReachable"][0][0] == pytest.approx(0.8)

    def test_transition_without_postcondition_rejected(self):
        data = base_dict()
        data["actions"][1]["transitions"] = {"isAt": [[0.9, 0.8], [0.1, 0.2]]}
        with pytest.raises(ScenarioError, match="postcondition"):
            scenario_from_dict(data)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_explicit_transition_rejected(self, bad):
        data = base_dict()
        data["actions"][1]["transitions"] = {
            "isReachable": [[bad, 0.7], [0.2, 0.3]]}
        with pytest.raises(ScenarioError, match="finite"):
            scenario_from_dict(data)

    @pytest.mark.parametrize("index", [5, -1])
    def test_perturbation_index_out_of_range(self, index):
        data = base_dict()
        data["perturbations"] = [{"at_tick": 2, "set": {"isAt": index}}]
        with pytest.raises(ScenarioError, match="out of range"):
            scenario_from_dict(data)

    def test_noise_p_out_of_range(self):
        data = base_dict()
        data["world"]["noise_p"] = 2.0
        with pytest.raises(ScenarioError, match="noise_p"):
            scenario_from_dict(data)
