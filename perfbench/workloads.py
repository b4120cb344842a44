"""Workloads: set-up of the base scenarios and seeded episode generators.

Episodes come in blocks.  Block ``i`` of seed ``s`` is drawn from its own
generator ``default_rng([s, i])``, so every run with the same seed sees the
same episodes in the same order however fast the program is, and a traced
run can replay exactly the blocks an untraced run measured.  The generator's
work happens before an episode's stopwatch starts; the program receives only
the generated scenario documents (or, for ``noisy-trace``, the scenarios
built at set-up plus a seed).
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from btai import episode as episode_mod
from btai import scenario as scenario_mod

#: budget of the randomized episodes, as in acceptance criterion 09
RANDOM_BUDGET = 150
#: noise settings of the noisy-trace workload, as in acceptance criterion 10
NOISE_P = 0.1
PRIOR_SCENARIOS = ("scenario_1", "scenario_1_conflict", "scenario_1_prior_nav",
                   "scenario_failure", "scenario_safety")


@dataclass(frozen=True)
class Episode:
    name: str
    data: Optional[dict] = None         # scenario document, built per episode
    scenario: Optional[object] = None   # scenario built at set-up
    seed: Optional[int] = None          # world seed; None keeps the scenario's
    trace_path: Optional[str] = None


def play(ep: Episode):
    """Run one episode through the public API; returns (scenario, result).

    Calls go through the module attributes so that the traced run's
    wrappers see them."""
    sc = ep.scenario
    if sc is None:
        sc = scenario_mod.scenario_from_dict(ep.data, source=ep.name)
    return sc, episode_mod.run_episode(sc, seed=ep.seed, trace_path=ep.trace_path)


def _load(name: str) -> dict:
    return yaml.safe_load(scenario_mod.shipped_scenario_path(f"{name}.yaml").read_text())


def _build(data: dict, source: str):
    sc = scenario_mod.scenario_from_dict(data, source=source)
    sc.build_tree()
    sc.make_world()
    return sc


class RandomizedTask:
    """Criterion-09 episodes of one shipped task scenario.

    Each episode gets random initial fluents, 0-3 random single-fluent
    perturbations in ticks 1-20 and a budget of 150 ticks.  The initial
    fluents are stratified: a block holds every combination once, in a
    seeded random order, so that the cost mix of a run does not depend on
    how many episodes fit into it.  Only Goal and Failure are allowed."""

    allowed_outcomes = frozenset({"Goal", "Failure"})

    def __init__(self, name: str, scenario_name: str):
        self.name = name
        self.scenario_name = scenario_name
        self.base: dict = {}

    def setup(self):
        data = _load(self.scenario_name)
        _build(data, self.scenario_name)
        self.base = data

    def block(self, seed: int, index: int) -> list[Episode]:
        rng = np.random.default_rng([seed, index])
        states = [(s["id"], len(s["values"])) for s in self.base["states"]]
        combos = list(itertools.product(*(range(m) for _, m in states)))
        episodes = []
        for k, c in enumerate(rng.permutation(len(combos))):
            data = copy.deepcopy(self.base)
            data["name"] = f"{self.name}-{seed}-{index}-{k}"
            data["budget_ticks"] = RANDOM_BUDGET
            for (sid, _), value in zip(states, combos[c]):
                data["world"]["fluents"][sid] = int(value)
            events = []
            for tick in sorted(rng.integers(1, 21, size=rng.integers(0, 4))):
                sid, m = states[int(rng.integers(len(states)))]
                events.append({"at_tick": int(tick), "set": {sid: int(rng.integers(m))}})
            data["perturbations"] = events
            episodes.append(Episode(name=data["name"], data=data))
        return episodes


class NoisyTrace:
    """The five shipped prior-node scenarios with observation noise and
    stochastic action outcomes, one episode of each per block, each writing
    its JSON-lines trace.  Any outcome is allowed: noise can defeat the
    task or exhaust the budget."""

    allowed_outcomes = frozenset({"Goal", "Failure", "Timeout"})

    def __init__(self, trace_dir: Path):
        self.name = "noisy-trace"
        self.trace_dir = trace_dir
        self.scenarios: list = []

    def setup(self):
        scenarios = []
        for name in PRIOR_SCENARIOS:
            data = _load(name)
            data["world"]["noise_p"] = NOISE_P
            data["deterministic"] = False
            scenarios.append(_build(data, name))
        self.scenarios = scenarios

    def block(self, seed: int, index: int) -> list[Episode]:
        rng = np.random.default_rng([seed, index])
        return [Episode(name=f"{name}-{seed}-{index}", scenario=sc,
                        seed=int(rng.integers(2 ** 31)),
                        trace_path=str(self.trace_dir / f"{name}.jsonl"))
                for name, sc in zip(PRIOR_SCENARIOS, self.scenarios)]


def make(name: str, out_dir: Path):
    if name == "sweep":
        return RandomizedTask("sweep", "scenario_1")
    if name == "classic":
        return RandomizedTask("classic", "bt_classic_27")
    if name == "noisy-trace":
        return NoisyTrace(out_dir / "traces")
    raise ValueError(f"unknown workload {name!r}")
