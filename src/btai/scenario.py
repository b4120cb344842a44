"""Scenario files: a versioned YAML document with states, actions, the
behavior tree, the initial world and an optional perturbation schedule.

Parsing validates every cross-reference and reports the file and the
offending reference.  What the states and actions sections parse to is kept
in a process-wide table keyed by their content (see :data:`_DOMAINS`)."""

from __future__ import annotations

import importlib.resources
import marshal
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional

import numpy as np
import yaml

from . import bt
from .domain import (
    ActionTemplate,
    Domain,
    DomainError,
    Predicate,
    StateRegistry,
    StateVar,
    achieve_matrix,
    compile_domain,
    strict_bool,
    strict_float,
    strict_int,
    strict_str,
    strict_str_list,
)
from .inference import IDLE, remember_content, table
from .world import PerturbationEvent, World

FORMAT_VERSION = "btai-scenario/1"


class ScenarioError(ValueError):
    """Parse or validation failure, annotated with the source file."""

    def __init__(self, source: str, message: str):
        super().__init__(f"{source}: {message}")
        self.source = source


# The process-wide table of parsed sections: the marshal bytes, version 2,
# of [states section, actions section] -> their Domain, stored by
# inference.remember_content, whose docstring gives the key rule.  Only
# sections that parsed are stored: content that fails is parsed, and fails,
# anew.
_DOMAINS: dict[bytes, Domain] = table()


@dataclass
class Scenario:
    """A parsed scenario.  Its ``domain`` (states, actions, registry,
    name-to-action map and compiled model) is shared with every scenario
    whose ``states`` and ``actions`` sections have equal content, and with
    every copy made by :func:`dataclasses.replace`.  Its tree is its own,
    built from ``bt_spec`` against the domain's registry and map."""

    name: str
    domain: Domain
    bt_spec: dict
    fluents: dict[str, int]
    observable: dict[str, bool]
    noise_p: float = 0.0
    perturbations: list[PerturbationEvent] = field(default_factory=list)
    budget_ticks: int = 100
    deterministic: bool = True
    seed: int = 0
    source: str = "<memory>"
    #: number of tree nodes, fixed at parse like the nodes' pre-order ids
    bt_nodes: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # through the module attribute, which perfbench's traced run wraps;
        # shared by every episode: ticking changes no tree node
        self._tree = bt.build_tree(self.bt_spec, self.domain.registry,
                                   self.domain.actions_by_name)
        # the one walk of the tree: its pre-order ids, count and prior leaves
        nodes = bt.assign_ids(self._tree)
        self.bt_nodes = len(nodes)
        idle = self.domain.actions_by_name.get(IDLE)
        if (any(node.kind == "prior" for node in nodes)
                and (idle is None or idle.postconditions)):
            # the selector answers "no action needed" with Idle, which must
            # stay a candidate, so it may not declare postconditions
            raise ScenarioError(self.source, f"a tree with prior leaves needs an {IDLE!r} "
                                             "action without postconditions")

    @property
    def states(self) -> tuple[StateVar, ...]:
        return self.domain.states

    @property
    def actions(self) -> tuple[ActionTemplate, ...]:
        return self.domain.actions

    def actions_by_name(self) -> Mapping[str, ActionTemplate]:
        return self.domain.actions_by_name

    def build_tree(self) -> bt.BTNode:
        return self._tree

    def make_world(self, seed: Optional[int] = None,
                   deterministic: Optional[bool] = None) -> World:
        return World(
            self.domain.registry,
            self.fluents,
            self.observable,
            seed=self.seed if seed is None else seed,
            noise_p=self.noise_p,
            deterministic=self.deterministic if deterministic is None else deterministic,
        )


def _parse_predicate(raw, source) -> Predicate:
    try:
        return Predicate(strict_str(raw["state"], "state"),
                         strict_int(raw.get("index", 0), "index"))
    except (KeyError, TypeError) as exc:
        raise ScenarioError(source, f"bad predicate entry {raw!r}") from exc


def _parse_matrix(raw, what: str) -> np.ndarray:
    """An explicit matrix: a list of rows, each a list of numbers taken by
    :func:`strict_float` (neither a bool nor a numeric string)."""
    if not isinstance(raw, list) or not all(isinstance(row, list) for row in raw):
        raise TypeError(f"{what} must be a list of rows, got {raw!r}")
    return np.array([[strict_float(x, what) for x in row] for row in raw])


def _parse_action(raw, registry: StateRegistry, source) -> ActionTemplate:
    try:
        name = strict_str(raw["name"], "action name")
    except (KeyError, TypeError) as exc:
        raise ScenarioError(source, f"action entry needs a string name: {raw!r}") from exc
    pre = tuple(_parse_predicate(p, source) for p in raw.get("pre", []))
    post = []
    for p in raw.get("post", []):
        try:
            post.append((strict_str(p["state"], "state"),
                         strict_int(p.get("index", 0), "index")))
        except (KeyError, TypeError) as exc:
            raise ScenarioError(source, f"action {name}: bad postcondition {p!r}") from exc
    # two preconditions on one state ask for two values at once or repeat
    # each other
    if len({p.state_id for p in pre}) < len(pre):
        raise ScenarioError(source, f"action {name}: a state is named twice in pre")
    transitions = {}
    explicit = raw.get("transitions", {})
    for sid, idx in post:
        if sid not in registry:
            raise ScenarioError(source, f"action {name}: unknown state {sid!r}")
        if sid in transitions:
            # the model keeps one transition per state, while the simulator
            # would apply every postcondition
            raise ScenarioError(source, f"action {name}: state {sid!r} named twice in post")
        if sid in explicit:
            transitions[sid] = _parse_matrix(explicit[sid],
                                             f"action {name}: transition[{sid}]")
        elif 0 <= idx < registry.get(sid).m:
            # an index out of range gets no matrix: validate_action below
            # rejects it with its one message
            transitions[sid] = achieve_matrix(registry.get(sid).m, idx)
    for sid in explicit:
        if sid not in transitions:
            raise ScenarioError(
                source, f"action {name}: transition for {sid!r} has no postcondition")
    for b in transitions.values():
        b.flags.writeable = False   # shared by every scenario of equal content
    # parameters name what a grounded action acts on; the planner reads
    # only the grounded name, but a malformed list is still an error
    strict_str_list(raw.get("parameters", []), f"action {name}: parameters")
    action = ActionTemplate(
        name=name,
        preconditions=pre,
        postconditions=tuple(post),
        transitions=transitions,
        duration_ticks=strict_int(raw.get("duration", 3), f"action {name}: duration"),
        success_prob=(strict_float(raw["success_prob"], f"action {name}: success_prob")
                      if "success_prob" in raw else None),
    )
    try:
        registry.validate_action(action)
    except DomainError as exc:
        # validate_action names the action in every message
        raise ScenarioError(source, str(exc)) from exc
    except KeyError as exc:
        raise ScenarioError(source, f"action {name}: unknown state {exc.args[0]!r}") from exc
    return action


def scenario_from_dict(data: dict, source: str = "<memory>") -> Scenario:
    """Parse and validate a scenario document; any malformed document raises
    :class:`ScenarioError`.

    The states and actions sections are parsed once per content: a document
    whose sections equal, type for type, those of an earlier document that
    parsed reuses its states, action templates, registry, name-to-action map
    and compiled model (see :data:`_DOMAINS`).  Everything else, the tree
    among it, is parsed and checked anew."""
    try:
        return _scenario_from_dict(data, source)
    except ScenarioError:
        raise
    except RecursionError as exc:
        raise ScenarioError(source, "document nests too deeply") from exc
    except (LookupError, TypeError, ValueError, AttributeError, ArithmeticError) as exc:
        # a value of the wrong type or shape, or a reference the domain or
        # the tree rejects, deeper than the checks below name
        raise ScenarioError(source, f"{type(exc).__name__}: {exc}") from exc


def _scenario_from_dict(data: dict, source: str) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError(source, "document must be a mapping")
    if data.get("format") != FORMAT_VERSION:
        raise ScenarioError(
            source, f"missing or unsupported format header (need {FORMAT_VERSION!r})")
    for key in ("name", "states", "actions", "bt", "world"):
        if key not in data:
            raise ScenarioError(source, f"missing section {key!r}")

    try:
        key = marshal.dumps([data["states"], data["actions"]], 2)
    except ValueError:
        key = None   # a subclass, a foreign type, or too deep or recursive
    domain = _DOMAINS.get(key)
    if domain is None:
        domain = remember_content(_DOMAINS, key, _parse_domain(data, source))
    registry = domain.registry

    world = data["world"]
    fluents = {strict_str(k, "world.fluents key"): strict_int(v, f"world.fluents[{k}]")
               for k, v in world.get("fluents", {}).items()}
    for state in registry:
        if state.id not in fluents:
            raise ScenarioError(source, f"world.fluents missing state {state.id!r}")
        if not 0 <= fluents[state.id] < state.m:
            raise ScenarioError(source, f"world.fluents[{state.id}] out of range")
    for sid in fluents:
        if sid not in registry:
            raise ScenarioError(source, f"world.fluents names unknown state {sid!r}")
    observable = {s.id: strict_bool(world.get("observable", {}).get(s.id, True),
                                    f"world.observable[{s.id}]")
                  for s in registry}
    for sid in world.get("observable", {}):
        if sid not in registry:
            raise ScenarioError(source, f"world.observable names unknown state {sid!r}")

    perturbations = []
    last_tick = None
    for raw in data.get("perturbations", []):
        try:
            at_tick = strict_int(raw["at_tick"], "perturbation at_tick")
        except KeyError as exc:
            raise ScenarioError(source, f"perturbation missing at_tick: {raw!r}") from exc
        if at_tick < 1:
            # tick 0 is world.fluents; the first step is tick 1
            raise ScenarioError(source, f"perturbation at_tick must be >= 1 (got {at_tick})")
        if last_tick is not None and at_tick < last_tick:
            raise ScenarioError(source, "perturbation ticks must be non-decreasing")
        last_tick = at_tick
        assignments = []
        for sid, idx in raw.get("set", {}).items():
            if sid not in registry:
                raise ScenarioError(source, f"perturbation names unknown state {sid!r}")
            idx = strict_int(idx, f"perturbation at tick {at_tick}: index for {sid}")
            if not 0 <= idx < registry.get(sid).m:
                raise ScenarioError(
                    source, f"perturbation at tick {at_tick}: index {idx} out of range for {sid}")
            assignments.append((sid, idx))
        obs_changes = []
        for sid, flag in raw.get("observable", {}).items():
            if sid not in registry:
                raise ScenarioError(source, f"perturbation names unknown state {sid!r}")
            obs_changes.append((sid, strict_bool(
                flag, f"perturbation at tick {at_tick}: observable[{sid}]")))
        perturbations.append(PerturbationEvent(at_tick, tuple(assignments),
                                               tuple(obs_changes)))

    noise_p = strict_float(world.get("noise_p", 0.0), "world.noise_p")
    if not 0.0 <= noise_p <= 1.0:
        raise ScenarioError(source, f"world.noise_p must lie in [0, 1] (got {noise_p})")

    budget = strict_int(data.get("budget_ticks", 100), "budget_ticks")
    if budget < 1:
        raise ScenarioError(source, "budget_ticks must be >= 1")
    seed = strict_int(data.get("seed", 0), "seed")
    if seed < 0:
        raise ScenarioError(source, "seed must be >= 0")

    return Scenario(
        name=strict_str(data["name"], "name"),
        domain=domain,
        bt_spec=data["bt"],
        fluents=fluents,
        observable=observable,
        noise_p=noise_p,
        perturbations=perturbations,
        budget_ticks=budget,
        deterministic=strict_bool(data.get("deterministic", True), "deterministic"),
        seed=seed,
        source=source,
    )


def _parse_domain(data: dict, source: str) -> Domain:
    """Parse and validate the ``states`` and ``actions`` sections."""
    states = []
    for raw in data["states"]:
        try:
            labels = tuple(strict_str_list(raw["values"], "values"))
            states.append(StateVar(strict_str(raw["id"], "state id"), len(labels), labels))
        except (KeyError, TypeError, DomainError) as exc:
            raise ScenarioError(source, f"bad state entry {raw!r}: {exc}") from exc
    registry = StateRegistry(states)

    actions = [_parse_action(raw, registry, source) for raw in data["actions"]]
    names = [a.name for a in actions]
    if len(set(names)) != len(names):
        raise ScenarioError(source, "duplicate action names")
    return compile_domain(registry, actions)


def parse_scenario(path) -> Scenario:
    path = Path(path)
    if not path.exists():
        raise ScenarioError(str(path), "file does not exist")
    try:
        data = yaml.safe_load(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(str(path), f"cannot read: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ScenarioError(str(path), f"YAML parse error: {exc}") from exc
    except RecursionError as exc:
        raise ScenarioError(str(path), "document nests too deeply") from exc
    return scenario_from_dict(data, source=str(path))


def shipped_scenario_path(name: str) -> Path:
    """Path of a scenario file bundled with the package."""
    return Path(importlib.resources.files("btai") / "scenarios" / name)
