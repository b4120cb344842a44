"""Acceptance suite: one test per shipped-behavior criterion.

Each test is independently runnable; `pytest -v tests/test_acceptance.py`
prints one pass/fail line per criterion.
"""

import copy
import time

import numpy as np
import pytest
import yaml

import oracle
from modelgen import factors_to_oracle, obs_to_oracle, random_model, run_on_factors
from btai.bt import node_count
from btai.cli import main as cli_main
from btai.domain import Predicate, logical_state
from btai.episode import run_episode
from btai.inference import Factor
from btai.scenario import (
    parse_scenario,
    scenario_from_dict,
    shipped_scenario_path,
)
from btai.selector import chain_links_ok

B_G = np.array([[0.95, 0.9], [0.05, 0.1]])


def shipped(name):
    return parse_scenario(shipped_scenario_path(name))


def test_criterion_01_oracle_equivalence_on_200_random_models():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(200):
        factors, actions, observations = random_model(rng, max_m=4,
                                                      max_actions=4)
        out = run_on_factors(factors, actions, observations)
        f_o, g_o, pi_o, _ = oracle.evaluate_model(
            factors_to_oracle(factors), actions, obs_to_oracle(observations))
        assert out.free_energy == pytest.approx(f_o, abs=1e-9)
        assert out.expected_free_energy == pytest.approx(g_o, abs=1e-9)
        assert out.policy_probs == pytest.approx(pi_o, abs=1e-9)
        for sid in factors:
            for t, avg in enumerate(out.averaged_beliefs[sid]):
                recomputed = sum(
                    out.policy_probs[p] * out.per_policy_beliefs[sid][p][t]
                    for p in range(len(actions)))
                assert avg == pytest.approx(recomputed, abs=1e-9)
    assert time.perf_counter() - started < 5.0


def test_criterion_02_goal_seeking_example_reproduction():
    started = time.perf_counter()
    factor = Factor(transitions={"moveTo": B_G},
                    prior=np.array([0.5, 0.5]),
                    preferences=np.array([1.0, 0.0]))
    out = run_on_factors({"g": factor}, ["Idle", "moveTo"],
                         {"g": [0.0, 1.0]})
    assert out.chosen_action == "moveTo"
    logical = logical_state({"g": np.array([0.08, 0.92])})
    assert logical["g"] == 1
    assert time.perf_counter() - started < 1.0


def test_criterion_03_nominal_plan_equivalence():
    result = run_episode(shipped("scenario_1.yaml"))
    assert result.outcome == "Goal"
    assert result.completed_actions == [
        "moveTo(shelf)", "Pick", "moveTo(table)", "Place"]


def test_criterion_04_precondition_chain_and_pushed_prior_lifecycle():
    result = run_episode(shipped("scenario_1.yaml"))
    assert ("Pick", "moveTo(shelf)") in result.chains
    actions = shipped("scenario_1.yaml").actions_by_name()
    assert chain_links_ok(result.chains, actions)
    # the pushed reachability preference appears ...
    pushed_ticks = [r["tick"] for r in result.records
                    if r["preferences"]["isReachable"] == [2.0, 0.0]]
    assert pushed_ticks
    # ... and is removed on the first tick where isReachable holds
    removal = [r for r in result.records
               if any(["isReachable", 0] in call["removed_pushed"]
                      for call in r["selector"])]
    assert len(removal) == 1
    assert removal[0]["logical"]["isReachable"] == 0
    after = [r for r in result.records if r["tick"] > removal[0]["tick"]]
    assert all(r["preferences"]["isReachable"] == [0.0, 0.0] for r in after)


def test_criterion_05_conflict_resolution():
    result = run_episode(shipped("scenario_1_conflict.yaml"))
    assert result.outcome == "Goal"
    assert result.completed_actions[-4:] == [
        "PlaceOnPlate", "Push", "Pick", "Place"]
    # the conflicting preference vector from the replanning phase
    assert any(r["preferences"]["isHolding"] == [1.0, 2.0]
               for r in result.records)
    # pushed priors are gone by the time the final Place starts
    final_place = max(r["tick"] for r in result.records
                      if "Place" in r["started"])
    record = result.records[final_place]
    assert all(2.0 not in prefs for prefs in record["preferences"].values())


def test_criterion_06_dead_end_returns_failure():
    sc = shipped("scenario_failure.yaml")
    result = run_episode(sc)
    assert result.outcome == "Failure"
    assert result.exit_code == 1
    assert result.ticks < sc.budget_ticks


def test_criterion_07_safety_subtree_preempts_task():
    result = run_episode(shipped("scenario_safety.yaml"))
    assert result.outcome == "Goal"
    # node ids are pre-order: 0 root, 1 safety fallback, 2 battery condition,
    # 3 battery prior; everything >= 4 is the task subtree
    low = [r for r in result.records if r["logical"]["batteryOk"] == 1]
    assert low  # the battery perturbation did fire
    for record in low:
        assert max(record["visited"]) <= 3
    recovered = [r for r in result.records
                 if r["tick"] > low[-1]["tick"]]
    assert any(max(r["visited"]) > 3 for r in recovered)


def test_criterion_08_node_count_comparison(capsys):
    hybrid = shipped("scenario_1.yaml")
    classic = shipped("bt_classic_27.yaml")
    assert node_count(hybrid.build_tree()) == 6
    assert node_count(classic.build_tree()) == 27
    assert cli_main(["count-nodes",
                     str(shipped_scenario_path("scenario_1.yaml")),
                     str(shipped_scenario_path("bt_classic_27.yaml"))]) == 0
    out = capsys.readouterr().out
    assert "6 nodes" in out and "27 nodes" in out
    assert f"ratio: {6 / 27:.4f}" in out


def test_criterion_09_randomized_chain_property_suite():
    base = yaml.safe_load(shipped_scenario_path("scenario_1.yaml").read_text())
    state_ids = [s["id"] for s in base["states"]]
    rng = np.random.default_rng(31337)
    outcomes = {"Goal": 0, "Failure": 0, "Timeout": 0}
    for episode in range(100):
        data = copy.deepcopy(base)
        data["name"] = f"random-{episode}"
        data["budget_ticks"] = 150
        for sid in state_ids:
            data["world"]["fluents"][sid] = int(rng.integers(2))
        events = []
        for tick in sorted(rng.integers(1, 21, size=rng.integers(0, 4))):
            events.append({
                "at_tick": int(tick),
                "set": {str(rng.choice(state_ids)): int(rng.integers(2))},
            })
        data["perturbations"] = events
        scenario = scenario_from_dict(data, source=data["name"])
        result = run_episode(scenario)
        outcomes[result.outcome] += 1
        if result.outcome != "Failure":
            assert result.outcome == "Goal", (
                f"episode {episode} timed out with fluents "
                f"{data['world']['fluents']} events {events}")
        assert chain_links_ok(result.chains, scenario.actions_by_name())
    assert outcomes["Goal"] > 0


def test_criterion_10_byte_identical_traces(tmp_path):
    noisy = yaml.safe_load(
        shipped_scenario_path("scenario_1_conflict.yaml").read_text())
    noisy["world"]["noise_p"] = 0.1
    noisy["deterministic"] = False
    noisy["seed"] = 7
    noisy_path = tmp_path / "noisy.yaml"
    noisy_path.write_text(yaml.safe_dump(noisy, sort_keys=False))
    for source in (str(shipped_scenario_path("scenario_1_conflict.yaml")),
                   str(noisy_path)):
        blobs = []
        for i in range(2):
            trace = tmp_path / f"trace_{i}.jsonl"
            cli_main(["run", source, "--quiet", "--seed", "7",
                      "--trace-out", str(trace)])
            blobs.append(trace.read_bytes())
        assert blobs[0] == blobs[1]
