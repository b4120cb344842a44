"""Closed-loop episode runner.

Every world tick: observe, update beliefs, derive the logical state, tick the
behavior tree (prior leaves run adaptive selection, action leaves drive the
simulator directly), then advance the world.  The run ends with Goal when the
root returns Success, Failure when it returns Failure, Timeout when the tick
budget runs out.  Each tick is captured in a record; the trace is a JSON-lines
file with a fixed field order so identical runs produce identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .bt import Action, BTNode, Prior, TickStatus, assign_ids, node_count
from .domain import (
    ActionTemplate,
    Predicate,
    PriorSet,
    StateRegistry,
    holds,
    logical_state,
    update_beliefs,
)
from .inference import CompiledModel
from .scenario import Scenario
from .selector import (
    SelectorVerdict,
    adaptive_select,
    chain_trace,
    compile_model,
    split_prepares_segments,
)
from .world import World

GOAL = "Goal"
FAILURE = "Failure"
TIMEOUT = "Timeout"


class EpisodeContext:
    """Execution context handed to every node during a root tick."""

    def __init__(self, world: World, registry: StateRegistry,
                 actions: list[ActionTemplate], priors: PriorSet,
                 model: CompiledModel):
        self.world = world
        self.registry = registry
        self.actions = actions
        self.actions_by_name = {a.name: a for a in actions}
        self.priors = priors
        self.model = model
        self.beliefs: dict[str, np.ndarray] = {}
        self.observations: dict[str, Optional[int]] = {}
        self.logical: dict[str, int] = {}
        # per-root-tick bookkeeping
        self.visited: list[int] = []
        self.verdicts: list[tuple[int, SelectorVerdict]] = []
        self.started: list[str] = []
        self.claimed = False

    def begin_tick(self, observations, beliefs, logical):
        self.observations = observations
        self.beliefs = beliefs
        self.logical = logical
        self.visited = []
        self.verdicts = []
        self.started = []
        self.claimed = False

    # -- node callbacks -------------------------------------------------

    def visit(self, node: BTNode):
        self.visited.append(node.node_id)

    def holds(self, pred: Predicate) -> bool:
        return holds(pred, self.logical)

    def run_action(self, node: Action) -> TickStatus:
        result = self.world.last_result
        if result is not None and result.template.name == node.action_name:
            if result.status == "succeeded":
                return TickStatus.SUCCESS
            return TickStatus.FAILURE
        self._drive(self.actions_by_name[node.action_name])
        return TickStatus.RUNNING

    def prior_tick(self, node: Prior) -> TickStatus:
        self.priors.set_nominal(node, node.targets)
        verdict = adaptive_select(
            self.priors, self.beliefs, self.observations, self.actions,
            self.logical, self.registry, self.model, execute=self._drive,
        )
        self.verdicts.append((node.node_id, verdict))
        return verdict.status

    # -- simulator interface --------------------------------------------

    def _drive(self, template: ActionTemplate):
        """Start or keep running the given action, preempting any other."""
        run = self.world.running
        if run is not None and run.template.name == template.name:
            self.claimed = True
            return
        if run is not None:
            self.world.cancel_running()
        self.world.start_action(template)
        self.started.append(template.name)
        self.claimed = True


@dataclass
class EpisodeResult:
    outcome: str                       # Goal | Failure | Timeout
    ticks: int
    records: list[dict]
    started_actions: list[str]         # every action start, in order
    completed_actions: list[str]       # successful completions, in order
    chains: list[tuple[str, ...]]      # distinct maximal selection chains
    bt_nodes: int
    scenario_name: str = ""

    @property
    def exit_code(self) -> int:
        return {GOAL: 0, FAILURE: 1, TIMEOUT: 2}[self.outcome]


def _serialize_verdict(node_id: int, verdict: SelectorVerdict) -> dict:
    calls = []
    for call in verdict.calls:
        out = call.outcome
        calls.append({
            "candidates": list(call.candidates),
            "preferences": {sid: c.tolist() for sid, c in call.preferences.items()},
            "F": out.free_energy.tolist(),
            "G": out.expected_free_energy.tolist(),
            "policy_probs": out.policy_probs.tolist(),
            "chosen": out.chosen_action,
        })
    return {
        "node": node_id,
        "status": verdict.status.value,
        "action": verdict.action.name if verdict.action else None,
        "pushed": [[p.state_id, p.required_index] for p in verdict.pushed],
        "removed_pushed": [[p.state_id, p.required_index]
                           for p in verdict.removed_pushed],
        "chain": list(verdict.chain),
        "calls": calls,
    }


def _make_record(tick: int, ctx: EpisodeContext, status: TickStatus,
                 registry: StateRegistry) -> dict:
    # field order is fixed on purpose: traces must be byte-reproducible
    return {
        "tick": tick,
        "observations": {s.id: ctx.observations[s.id] for s in registry},
        "beliefs": {s.id: ctx.beliefs[s.id].tolist() for s in registry},
        "logical": {s.id: ctx.logical[s.id] for s in registry},
        "preferences": {sid: c.tolist()
                        for sid, c in ctx.priors.assemble_all(registry).items()},
        "selector": [_serialize_verdict(nid, v) for nid, v in ctx.verdicts],
        "started": list(ctx.started),
        "running": ctx.world.running.template.name if ctx.world.running else None,
        "visited": list(ctx.visited),
        "root_status": status.value,
    }


def run_episode(
    scenario: Scenario,
    seed: Optional[int] = None,
    deterministic: Optional[bool] = None,
    budget: Optional[int] = None,
    trace_path=None,
) -> EpisodeResult:
    registry = scenario.registry()
    actions = list(scenario.actions)
    tree = scenario.build_tree()
    world = scenario.make_world(seed=seed, deterministic=deterministic)
    budget = scenario.budget_ticks if budget is None else budget

    priors = PriorSet()
    # one model per episode: perception and planning read it; the terms it
    # evaluates go to the process-wide table in btai.inference
    model = compile_model(registry, actions)
    ctx = EpisodeContext(world, registry, actions, priors, model)
    beliefs = registry.uniform_beliefs()

    records: list[dict] = []
    started: list[str] = []
    completed: list[str] = []
    tick_chains: list[list[str]] = []
    outcome = TIMEOUT

    for tick in range(budget):
        observations = world.observe()
        beliefs = update_beliefs(beliefs, observations, world.last_completed, model)
        logical = logical_state(beliefs)
        if (world.last_result is not None
                and world.last_result.status == "succeeded"):
            completed.append(world.last_result.template.name)
        priors.clear_nominal()
        ctx.begin_tick(observations, beliefs, logical)
        status = tree.tick(ctx)
        if world.running is not None and not ctx.claimed:
            # nothing in this tick asked for the action any more
            world.cancel_running()
        started.extend(ctx.started)
        for _, verdict in ctx.verdicts:
            if verdict.chain:
                tick_chains.extend(split_prepares_segments(
                    verdict.chain, ctx.actions_by_name))
        records.append(_make_record(tick, ctx, status, registry))
        if status == TickStatus.SUCCESS:
            outcome = GOAL
            break
        if status == TickStatus.FAILURE:
            outcome = FAILURE
            break
        world.step(scenario.perturbations)

    result = EpisodeResult(
        outcome=outcome,
        ticks=len(records),
        records=records,
        started_actions=started,
        completed_actions=completed,
        chains=chain_trace(tick_chains),
        bt_nodes=node_count(tree),
        scenario_name=scenario.name,
    )
    if trace_path is not None:
        write_trace(result, trace_path)
    return result


# one encoder for every record: json.dumps with options builds a new
# encoder on each call
_encode_record = json.JSONEncoder(separators=(",", ":")).encode


def write_trace(result: EpisodeResult, path):
    lines = [_encode_record(r) for r in result.records]
    Path(path).write_text("\n".join(lines) + "\n")


def report(result: EpisodeResult) -> str:
    lines = [
        f"scenario: {result.scenario_name}",
        f"outcome: {result.outcome}",
        f"ticks: {result.ticks}",
        f"bt nodes: {result.bt_nodes}",
        f"actions started: {', '.join(result.started_actions) or '(none)'}",
        f"actions completed: {', '.join(result.completed_actions) or '(none)'}",
    ]
    if result.chains:
        lines.append("selection chains:")
        for chain in result.chains:
            lines.append("  " + " <- ".join(chain))
    else:
        lines.append("selection chains: (none)")
    return "\n".join(lines) + "\n"
