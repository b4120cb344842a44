import copy
import math

import pytest
import yaml

from btai.bt import node_count
from btai.cli import main
from btai.scenario import (
    ScenarioError,
    parse_scenario,
    scenario_from_dict,
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
        assert [a.name for a in sc.actions] == [
            "Idle", "moveTo(shelf)", "moveTo(table)", "Pick", "Place", "Push",
            "PlaceOnPlate"]
        assert node_count(sc.build_tree()) == 6

    def test_classic_tree_is_27_nodes(self):
        sc = load("bt_classic_27.yaml")
        assert node_count(sc.build_tree()) == 27


class TestValidation:
    def test_missing_file(self):
        with pytest.raises(ScenarioError, match="does not exist"):
            parse_scenario("/nonexistent/path.yaml")

    def test_unreadable_file(self, tmp_path):
        bad = tmp_path / "latin1.yaml"
        bad.write_bytes(b"name: caf\xe9\n")
        for path in (bad, tmp_path):
            with pytest.raises(ScenarioError, match="cannot read"):
                parse_scenario(path)

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


def _condition(data):
    return data["bt"]["reactive_sequence"][1]["fallback"][0]["condition"]


def _set(path, value):
    def edit(data):
        *parents, last = path
        node = data
        for key in parents:
            node = node[key]
        node[last] = value
    return edit


def _prior_target(data):
    return data["bt"]["reactive_sequence"][0]["prior"]["targets"][0]


# each edit makes scenario_1 malformed: loading it must raise ScenarioError
# and make the CLI exit 3, whichever check catches it
MALFORMED = {
    "condition-without-state": lambda d: _condition(d).pop("state"),
    "action-node-without-name": _set(
        ("bt", "reactive_sequence", 1, "fallback", 1), {"action": {}}),
    "states-not-a-list": _set(("states",), 3),
    "world-not-a-mapping": _set(("world",), []),
    "pre-not-a-list": _set(("actions", 3, "pre"), 3),
    "duration-not-a-number": _set(("actions", 1, "duration"), "x"),
    "duration-zero": _set(("actions", 1, "duration"), 0),
    "budget-not-a-number": _set(("budget_ticks",), "many"),
    "success-prob-nan": _set(("actions", 1, "success_prob"), math.nan),
    "ragged-transition": _set(("actions", 1, "transitions"),
                              {"isReachable": [[0.8], [0.2, 0.3]]}),
    "prior-index-not-a-number": _set(
        ("bt", "reactive_sequence", 0, "prior", "targets", 0, "index"), "a"),
    "prior-targets-a-string": _set(
        ("bt", "reactive_sequence", 0, "prior", "targets"), "abc"),
    "fluent-not-a-number": _set(("world", "fluents", "isAt"), "x"),
    "actions-null": _set(("actions",), None),
    "perturbation-set-a-list": _set(("perturbations",),
                                    [{"at_tick": 2, "set": [1]}]),
    "perturbation-observable-a-list": _set(("perturbations",),
                                           [{"at_tick": 2, "observable": [1]}]),
    "observable-a-list": _set(("world", "observable"), [1]),
    "seed-not-a-number": _set(("seed",), "s"),
    "seed-negative": _set(("seed",), -1),
    "condition-index-negative": lambda d: _condition(d).update(index=-1),
    "post-index-not-a-number": _set(("actions", 1, "post", 0, "index"), "a"),
    # an action names each state at most once in pre and once in post
    "post-state-twice": _set(("actions", 3, "post"), [{"state": "isHolding", "index": 0},
                                                      {"state": "isHolding", "index": 1}]),
    "pre-state-twice": _set(("actions", 3, "pre"), [{"state": "isReachable", "index": 0},
                                                    {"state": "isReachable", "index": 0}]),
    # a prior leaf names each state at most once
    "prior-state-twice": _set(("bt", "reactive_sequence", 0, "prior", "targets"),
                              [{"state": "isHolding", "index": 0},
                               {"state": "isHolding", "index": 1}]),
    # tick 0 is world.fluents: a perturbation fires at tick 1 or later
    "perturbation-at-tick-zero": _set(("perturbations",),
                                      [{"at_tick": 0, "set": {"isAt": 0}}]),
    "perturbation-at-tick-negative": _set(("perturbations",),
                                          [{"at_tick": -3, "set": {"isAt": 0}}]),
    # value indices are range-checked where predicates are built
    "condition-index-5": lambda d: _condition(d).update(index=5),
    "prior-index-5": lambda d: _prior_target(d).update(index=5),
    "prior-index-negative": lambda d: _prior_target(d).update(index=-1),
    "pre-index-5": _set(("actions", 3, "pre", 0, "index"), 5),
    "pre-index-negative": _set(("actions", 3, "pre", 0, "index"), -1),
    "post-index-5": _set(("actions", 1, "post", 0, "index"), 5),
    # integers and booleans are taken as they are, never coerced
    "condition-index-a-float": lambda d: _condition(d).update(index=1.7),
    "pre-index-a-bool": _set(("actions", 3, "pre", 0, "index"), True),
    "budget-a-float": _set(("budget_ticks",), 2.7),
    "duration-a-float": _set(("actions", 1, "duration"), 2.5),
    "deterministic-a-string": _set(("deterministic",), "no"),
    "observable-flag-a-string": _set(("world", "observable"), {"isAt": "yes"}),
    "fluent-a-bool": _set(("world", "fluents", "isAt"), True),
    "perturbation-at-tick-a-float": _set(("perturbations",),
                                         [{"at_tick": 2.5, "set": {"isAt": 0}}]),
    "perturbation-index-a-bool": _set(("perturbations",),
                                      [{"at_tick": 2, "set": {"isAt": True}}]),
    "perturbation-observable-a-string": _set(
        ("perturbations",), [{"at_tick": 2, "observable": {"isAt": "off"}}]),
    # numbers are finite ints or floats: neither a bool nor a numeric string
    "noise-p-a-bool": _set(("world", "noise_p"), True),
    "noise-p-a-string": _set(("world", "noise_p"), "0.5"),
    "noise-p-nan": _set(("world", "noise_p"), math.nan),
    "noise-p-infinite": _set(("world", "noise_p"), math.inf),
    "success-prob-a-bool": _set(("actions", 1, "success_prob"), True),
    "success-prob-a-string": _set(("actions", 1, "success_prob"), "0.9"),
    "success-prob-infinite": _set(("actions", 1, "success_prob"), -math.inf),
    # parameters are a list of strings
    "parameters-a-string": _set(("actions", 1, "parameters"), "shelf"),
    "parameters-a-mapping": _set(("actions", 1, "parameters"), {"shelf": 1}),
    "parameters-item-not-a-string": _set(("actions", 1, "parameters"), ["shelf", 2]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_document_exits_3(case, tmp_path, capsys):
    data = base_dict()
    MALFORMED[case](data)
    with pytest.raises(ScenarioError):
        scenario_from_dict(data)
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(data))
    assert main(["run", str(path)]) == 3
    assert "Traceback" not in capsys.readouterr().err


class TestIdleAction:
    @staticmethod
    def without_idle(name):
        data = yaml.safe_load(shipped_scenario_path(name).read_text())
        data["actions"] = [a for a in data["actions"] if a["name"] != "Idle"]
        return data

    def test_prior_leaves_need_idle(self):
        with pytest.raises(ScenarioError, match="Idle"):
            scenario_from_dict(self.without_idle("scenario_1.yaml"))

    def test_idle_must_not_declare_postconditions(self):
        # Idle would drop out of the candidates once its postcondition held
        data = yaml.safe_load(shipped_scenario_path("scenario_failure.yaml").read_text())
        data["actions"][0]["post"] = [{"state": "isAt", "index": 0}]
        with pytest.raises(ScenarioError, match="Idle"):
            scenario_from_dict(data)

    def test_tree_without_prior_leaves_needs_no_idle(self):
        sc = scenario_from_dict(self.without_idle("bt_classic_27.yaml"))
        assert "Idle" not in sc.actions_by_name()


DEPTH = 1000


def _nested_bt(depth: int) -> dict:
    node = {"action": "Idle"}
    for _ in range(depth):
        node = {"sequence": [node]}
    return node


def test_deeply_nested_yaml_exits_3_without_traceback(tmp_path, capsys):
    text = shipped_scenario_path("scenario_1.yaml").read_text()
    head = text[:text.index("bt:")]
    tail = text[text.index("\nworld:"):]
    path = tmp_path / "deep.yaml"
    path.write_text(head + "bt: " + "{sequence: [" * DEPTH + "{action: Idle}"
                    + "]}" * DEPTH + tail)
    assert main(["validate", str(path)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "nests too deeply" in err


def test_deeply_nested_dict_raises_scenario_error():
    data = base_dict()
    data["bt"] = _nested_bt(DEPTH)
    with pytest.raises(ScenarioError, match="nests too deeply"):
        scenario_from_dict(data)
