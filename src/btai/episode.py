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
import os
import stat
from array import array
from dataclasses import dataclass, field
from typing import Optional

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
from .inference import remember, table
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
        self._drive(self.domain.actions_by_name[node.action_name])
        return TickStatus.RUNNING

    def prior_tick(self, node: Prior) -> TickStatus:
        self.priors.set_nominal(node, node.targets)
        verdict = adaptive_select(
            self.priors, self.beliefs, self.observations, self.logical,
            self.domain, execute=self._drive,
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
        "pushed": [list(p) for p in verdict.pushed],
        "removed_pushed": [list(p) for p in verdict.removed_pushed],
        "chain": list(verdict.chain),
        "calls": calls,
    }


def _make_record(tick: int, ctx: EpisodeContext, status: TickStatus) -> dict:
    # field order is fixed on purpose: traces must be byte-reproducible
    registry = ctx.domain.registry
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
    budget = scenario.budget_ticks if budget is None else budget
    if budget < 1:
        raise ValueError(f"budget must be >= 1 (got {budget})")
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
        beliefs = update_beliefs(beliefs, observations, world.last_completed, domain.model)
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
# A record's line is assembled in the fixed field order of _make_record and
# _serialize_verdict from fragments: float vectors (F, G, the policy
# posterior), belief entries, maps of preferences and small fields (value
# indices, names, id lists).  Fragments repeat across ticks and episodes
# far more often than records do, so the JSON text of each fragment is kept
# in _TEXT under its exact content.  A lookup is ``_TEXT.get(key) or
# remember(_TEXT, key, text)``: JSON text is never empty, so the generic
# encoder runs only on a miss.  The text for a key is always that encoder's
# output, so a line has the bytes of json.dumps(record, separators=(",", ":")).
#
# Keys.  A key is a tuple whose first item is the fragment's kind, so equal
# contents of two kinds never share a key; a name (a str or None) is its own
# key.  Floats are keyed by value, which builds and hashes fastest, unless
# they contain a zero: 0.0 == -0.0 and both hash alike, yet they print
# differently, so floats with a zero are keyed by their packed bytes.  Other
# values are keyed as the schema types them: ints (never bools), strings
# and None.  A key holding a NaN may miss, which costs time, never bytes.
#
# Beliefs are keyed per state: a tick's joint beliefs repeat far less often
# than its vectors.  A map of preferences is keyed whole, since there are
# few of them.  Like the planner's tables, the memo is a process-wide table
# (see inference.table), as fragments recur across episodes.
_TEXT: dict = table()
_encode = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode
_FLOATS, _BELIEF, _PREFERENCES, _INDICES, _LIST, _PAIRS = range(6)


def _name(name) -> str:
    return _TEXT.get(name) or remember(_TEXT, name, _encode(name))


def _floats(v: list) -> str:
    key = (_FLOATS, *v) if 0.0 not in v else (_FLOATS, array("d", v).tobytes())
    return _TEXT.get(key) or remember(_TEXT, key, _encode(v))


def _beliefs(beliefs: dict) -> str:
    entries = []
    for sid, v in beliefs.items():
        key = ((_BELIEF, sid, *v) if 0.0 not in v
               else (_BELIEF, sid, array("d", v).tobytes()))
        entries.append(_TEXT.get(key) or remember(_TEXT, key, _encode({sid: v})[1:-1]))
    return "{" + ",".join(entries) + "}"


def _preferences(preferences: dict) -> str:
    vectors = preferences.values()
    flat = [x for v in vectors for x in v]
    # the state ids, then the lengths that split ``flat`` into vectors
    head = (_PREFERENCES, *preferences, *map(len, vectors))
    key = (*head, *flat) if 0.0 not in flat else (*head, array("d", flat).tobytes())
    return _TEXT.get(key) or remember(_TEXT, key, _encode(preferences))


def _indices(values: dict) -> str:
    key = (_INDICES, *values.items())
    return _TEXT.get(key) or remember(_TEXT, key, _encode(values))


def _list(items: list) -> str:
    key = (_LIST, *items)
    return _TEXT.get(key) or remember(_TEXT, key, _encode(items))


def _pairs(pairs: list) -> str:
    key = (_PAIRS, *map(tuple, pairs))
    return _TEXT.get(key) or remember(_TEXT, key, _encode(pairs))


def _call(call: dict) -> str:
    return ('{"candidates":%s,"preferences":%s,"F":%s,"G":%s,"policy_probs":%s,'
            '"chosen":%s}' % (
                _list(call["candidates"]), _preferences(call["preferences"]),
                _floats(call["F"]), _floats(call["G"]),
                _floats(call["policy_probs"]), _name(call["chosen"])))


def _verdict(verdict: dict) -> str:
    return ('{"node":%d,"status":%s,"action":%s,"pushed":%s,"removed_pushed":%s,'
            '"chain":%s,"calls":[%s]}' % (
                verdict["node"], _name(verdict["status"]), _name(verdict["action"]),
                _pairs(verdict["pushed"]), _pairs(verdict["removed_pushed"]),
                _list(verdict["chain"]), ",".join([_call(c) for c in verdict["calls"]])))


def _encode_record(record: dict) -> str:
    """One trace line: ``json.dumps(record, separators=(",", ":"))`` for a
    record built by :func:`_make_record`."""
    return ('{"tick":%d,"observations":%s,"beliefs":%s,"logical":%s,'
            '"preferences":%s,"selector":[%s],"started":%s,"running":%s,'
            '"visited":%s,"root_status":%s}' % (
                record["tick"], _indices(record["observations"]),
                _beliefs(record["beliefs"]), _indices(record["logical"]),
                _preferences(record["preferences"]),
                ",".join([_verdict(v) for v in record["selector"]]),
                _list(record["started"]), _name(record["running"]),
                _list(record["visited"]), _name(record["root_status"])))


def write_trace(result: EpisodeResult, path):
    """Write one ASCII JSON line per record, each ending in ``\\n``; no
    records give an empty file.

    An existing file is written over in place and then cut to length, not
    truncated first: on ext4 a truncate followed by a write starts writeback
    when the file is closed, which costs several times the write.  The file
    keeps its inode, mode and links; a pipe, terminal or device is written
    as a stream.  The write is not atomic and calls no fsync.
    """
    data = "".join([_encode_record(r) + "\n" for r in result.records]).encode("ascii")
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
