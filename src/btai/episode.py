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
import marshal
import os
import stat
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .bt import Action, BTNode, Prior, TickStatus
from .domain import (
    ActionTemplate,
    Predicate,
    PriorSet,
    holds,
    logical_state,
    update_beliefs,
)
from .inference import remember_content, table
from .scenario import Scenario
from .selector import (
    SelectorVerdict,
    adaptive_select,
    chain_trace,
    split_prepares_segments,
)
from .world import World

GOAL = "Goal"
FAILURE = "Failure"
TIMEOUT = "Timeout"


class EpisodeContext:
    """Execution context handed to every node during a root tick."""

    def __init__(self, world: World, scenario: Scenario, priors: PriorSet):
        self.world = world
        self.domain = scenario.domain
        self.priors = priors
        self.resume: dict[BTNode, int] = {}   # Sequence memory (see bt.Sequence)
        self.beliefs: dict[str, np.ndarray] = {}
        self.observations: dict[str, Optional[int]] = {}
        self.logical: dict[str, int] = {}
        # id(assembly) -> (assembly, its list form); see "Shared maps" below
        self.lists: dict[int, tuple[Mapping[str, np.ndarray], dict[str, list[float]]]] = {}
        # per-root-tick bookkeeping
        self.visited: list[int] = []
        self.verdicts: list[tuple[int, SelectorVerdict]] = []
        self.started: list[str] = []
        self.claimed = False

    def listed(self, assembly: Mapping[str, np.ndarray]) -> dict[str, list[float]]:
        """The list form of ``assembly``: one dict per episode, built on
        first use, that every record shares and none may change."""
        entry = self.lists.get(id(assembly))
        if entry is None:
            entry = self.lists[id(assembly)] = (
                assembly, {sid: c.tolist() for sid, c in assembly.items()})
        return entry[1]

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
        self._drive(self.domain.actions_by_name[node.action_name])
        return TickStatus.RUNNING

    def prior_tick(self, node: Prior) -> TickStatus:
        self.priors.set_nominal(node, node.targets)
        verdict = adaptive_select(self.priors, self.beliefs, self.observations,
                                  self.logical, self.domain)
        self.verdicts.append((node.node_id, verdict))
        if verdict.action is not None:
            self._drive(verdict.action)
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


def _serialize_verdict(node_id: int, verdict: SelectorVerdict, ctx: EpisodeContext) -> dict:
    calls = [{
        "candidates": list(out.candidates),
        "preferences": ctx.listed(out.preferences),
        "F": out.free_energy.tolist(),
        "G": out.expected_free_energy.tolist(),
        "policy_probs": out.policy_probs.tolist(),
        "chosen": out.chosen_action,
    } for out in verdict.calls]
    return {
        "node": node_id,
        "status": verdict.status.value,
        "action": verdict.action.name if verdict.action else None,
        "pushed": [list(p) for p in verdict.pushed],
        "removed_pushed": [list(p) for p in verdict.removed_pushed],
        "chain": list(verdict.chain),
        "calls": calls,
    }


def _make_record(tick: int, ctx: EpisodeContext, status: TickStatus) -> dict:
    # field order is fixed on purpose: traces must be byte-reproducible; the
    # tick's state maps list the registry in order and no one changes them
    return {
        "tick": tick,
        "observations": ctx.observations,
        "beliefs": {sid: b.tolist() for sid, b in ctx.beliefs.items()},
        "logical": ctx.logical,
        "preferences": ctx.listed(ctx.priors.assemble_all(ctx.domain.registry)),
        "selector": [_serialize_verdict(nid, v, ctx) for nid, v in ctx.verdicts],
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
    budget = scenario.budget_ticks if budget is None else budget
    if budget < 1:
        raise ValueError(f"budget must be >= 1 (got {budget})")
    if seed is not None and seed < 0:
        raise ValueError(f"seed must be >= 0 (got {seed})")
    domain = scenario.domain
    tree = scenario.build_tree()
    world = scenario.make_world(seed=seed, deterministic=deterministic)

    priors = PriorSet()
    ctx = EpisodeContext(world, scenario, priors)
    beliefs = domain.registry.uniform_beliefs()

    records: list[dict] = []
    started: list[str] = []
    completed: list[str] = []
    tick_chains: list[list[str]] = []
    outcome = TIMEOUT

    for tick in range(budget):
        observations = world.observe()
        last = world.last_result   # the action that finished in the last step
        beliefs = update_beliefs(beliefs, observations,
                                 last.template if last else None, domain.model)
        logical = logical_state(beliefs)
        if last is not None and last.status == "succeeded":
            completed.append(last.template.name)
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
                    verdict.chain, domain.actions_by_name))
        records.append(_make_record(tick, ctx, status))
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
        bt_nodes=scenario.bt_nodes,
        scenario_name=scenario.name,
    )
    if trace_path is not None:
        write_trace(result, trace_path)
    return result


# -- trace encoding ---------------------------------------------------------
#
# A line is assembled in the fixed field order of _make_record and
# _serialize_verdict from the JSON text of its fragments (F, G and policy
# vectors, each state's belief entry, preference maps, ids and names).
# Fragments recur across ticks and episodes far more than records do, so
# _text keeps each one's text in _TEXT, a process-wide table (see
# inference.table), under its marshal bytes (the key rule of
# inference.remember_content, as for scenario._DOMAINS).  A key's text is the
# generic encoder's output for its content, so a line has the bytes of
# json.dumps(record, separators=(",", ":")) for every record with the fields
# and nesting of _make_record that json.dumps accepts; a value with no key is
# encoded without the memo.
#
# Shared maps.  EpisodeContext.lists holds, per episode, one list form per
# assembly with the assembly itself, so a record and its calls share one
# dict and no id is reused while the episode runs.  write_trace keeps a
# second cache, ``seen``, from a map's id() to its text for one call, while
# the records hold every map.  A map that misses ``seen``, and any record
# encoded on its own, goes through _TEXT.
_TEXT: dict[bytes, str] = table()
_encode = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode


def _text(value) -> str:
    try:
        key = marshal.dumps(value, 2)
    except ValueError:   # a subclass, a foreign type, or too deep
        return _encode(value)
    return _TEXT.get(key) or remember_content(_TEXT, key, _encode(value))


def _shared_preferences(preferences: dict, seen: dict) -> str:
    text = seen.get(id(preferences))
    if text is None:
        text = seen[id(preferences)] = _text(preferences)
    return text


def _call(call: dict, seen: dict) -> str:
    return ('{"candidates":%s,"preferences":%s,"F":%s,"G":%s,"policy_probs":%s,'
            '"chosen":%s}' % (
                _text(call["candidates"]), _shared_preferences(call["preferences"], seen),
                _text(call["F"]), _text(call["G"]),
                _text(call["policy_probs"]), _text(call["chosen"])))


def _verdict(verdict: dict, seen: dict) -> str:
    return ('{"node":%s,"status":%s,"action":%s,"pushed":%s,"removed_pushed":%s,'
            '"chain":%s,"calls":[%s]}' % (
                _text(verdict["node"]), _text(verdict["status"]), _text(verdict["action"]),
                _text(verdict["pushed"]), _text(verdict["removed_pushed"]),
                _text(verdict["chain"]), ",".join([_call(c, seen) for c in verdict["calls"]])))


def _encode_record(record: dict, seen: Optional[dict] = None) -> str:
    """One trace line: ``json.dumps(record, separators=(",", ":"))`` for a
    record with the fields of :func:`_make_record`, in its order.  ``seen``
    is the caller's cache of shared preference maps' texts by id(); the
    caller must keep every map it holds alive while it uses the cache."""
    seen = {} if seen is None else seen
    # keyed per state: a tick's joint beliefs repeat far less than each entry
    beliefs = ",".join([_text({sid: v})[1:-1] for sid, v in record["beliefs"].items()])
    return ('{"tick":%s,"observations":%s,"beliefs":{%s},"logical":%s,'
            '"preferences":%s,"selector":[%s],"started":%s,"running":%s,'
            '"visited":%s,"root_status":%s}' % (
                _text(record["tick"]), _text(record["observations"]), beliefs,
                _text(record["logical"]), _shared_preferences(record["preferences"], seen),
                ",".join([_verdict(v, seen) for v in record["selector"]]),
                _text(record["started"]), _text(record["running"]),
                _text(record["visited"]), _text(record["root_status"])))


def write_trace(result: EpisodeResult, path):
    """Write one ASCII JSON line per record, each ending in ``\\n``; no
    records give an empty file.

    An existing file is written over in place and then cut to length, not
    truncated first: on ext4 a truncate followed by a write starts writeback
    when the file is closed, which costs several times the write.  The file
    keeps its inode, mode and links; a pipe, terminal or device is written
    as a stream.  The write is not atomic and calls no fsync.
    """
    seen: dict[int, str] = {}   # lives for this call only (see "Shared maps")
    data = "".join([_encode_record(r, seen) + "\n" for r in result.records]).encode("ascii")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


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
