"""Behavior-tree executor: Fallback, Sequence (with memory), ReactiveSequence,
Condition and Action leaves, plus the Prior leaf that delegates action choice
to the adaptive selector.

Trees are validated at construction and not changed by ticking: a Sequence's
memory lives in the context.  Ticking never raises for structural reasons.
Stable pre-order node ids make traces and graph exports deterministic.
"""

from __future__ import annotations

import enum
from typing import Optional
from typing import Sequence as SequenceOf  # "Sequence" names the node below

from .domain import Predicate, strict_int


class TickStatus(enum.Enum):
    SUCCESS = "Success"
    RUNNING = "Running"
    FAILURE = "Failure"


class TreeError(ValueError):
    """Malformed tree description; raised at construction time only."""


class BTNode:
    kind = "node"

    def __init__(self, children: SequenceOf[BTNode] = ()):
        self.children = list(children)
        self.node_id: int = -1   # assigned by assign_ids
        self.label: str = self.kind

    def tick(self, ctx) -> TickStatus:
        raise NotImplementedError


class Fallback(BTNode):
    """Ticks children left to right; first Success/Running wins."""

    kind = "fallback"

    def __init__(self, children):
        if not children:
            raise TreeError("fallback needs at least one child")
        super().__init__(children)
        self.label = "?"

    def tick(self, ctx) -> TickStatus:
        ctx.visit(self)
        for child in self.children:
            status = child.tick(ctx)
            if status != TickStatus.FAILURE:
                return status
        return TickStatus.FAILURE


class Sequence(BTNode):
    """Sequence with memory: keeps ticking a running child across ticks and
    restarts from the first child only after Failure (or full Success).  The
    memory, the index of the running child, is kept in ``ctx.resume``."""

    kind = "sequence"

    def __init__(self, children):
        if not children:
            raise TreeError("sequence needs at least one child")
        super().__init__(children)
        self.label = "→"

    def tick(self, ctx) -> TickStatus:
        ctx.visit(self)
        for i in range(ctx.resume.pop(self, 0), len(self.children)):
            status = self.children[i].tick(ctx)
            if status == TickStatus.RUNNING:
                ctx.resume[self] = i
                return status
            if status == TickStatus.FAILURE:
                return status
        return TickStatus.SUCCESS


class ReactiveSequence(BTNode):
    """Sequence restarted from the first child on every tick."""

    kind = "reactive_sequence"

    def __init__(self, children):
        if not children:
            raise TreeError("reactive sequence needs at least one child")
        super().__init__(children)
        self.label = "→R"

    def tick(self, ctx) -> TickStatus:
        ctx.visit(self)
        for child in self.children:
            status = child.tick(ctx)
            if status != TickStatus.SUCCESS:
                return status
        return TickStatus.SUCCESS


class Condition(BTNode):
    """Predicate check against the current logical state; never Running and
    never mutates any context."""

    kind = "condition"

    def __init__(self, predicate: Predicate, label: Optional[str] = None):
        super().__init__()
        self.predicate = predicate
        self.label = label or f"{predicate.state_id}={predicate.required_index}"

    def tick(self, ctx) -> TickStatus:
        ctx.visit(self)
        if ctx.holds(self.predicate):
            return TickStatus.SUCCESS
        return TickStatus.FAILURE


class Action(BTNode):
    """Executes a named action in the world; Running while it lasts."""

    kind = "action"

    def __init__(self, action_name: str):
        super().__init__()
        self.action_name = action_name
        self.label = action_name

    def tick(self, ctx) -> TickStatus:
        ctx.visit(self)
        return ctx.run_action(self)


class Prior(BTNode):
    """Leaf that sets desired state values as preferences and delegates the
    choice of action to active inference."""

    kind = "prior"

    def __init__(self, targets: SequenceOf[tuple[str, int]]):
        if not targets:
            raise TreeError("prior node needs at least one target")
        super().__init__()
        self.targets = tuple(targets)
        self.label = ",".join(f"{sid}={idx}" for sid, idx in self.targets)

    def tick(self, ctx) -> TickStatus:
        ctx.visit(self)
        return ctx.prior_tick(self)


def assign_ids(root: BTNode) -> list[BTNode]:
    """Number nodes in pre-order; returns the node list."""
    # a loop, not a nested recursive function: that one refers to itself, and
    # the cycle would keep it and the node list alive until a full collection
    nodes = []
    stack = [root]
    while stack:
        node = stack.pop()
        node.node_id = len(nodes)
        nodes.append(node)
        stack.extend(reversed(node.children))
    return nodes


def node_count(root: BTNode) -> int:
    return len(assign_ids(root))


_CONTROL_KINDS = {
    "fallback": Fallback,
    "sequence": Sequence,
    "reactive_sequence": ReactiveSequence,
}


def build_tree(spec, registry, actions_by_name, path: str = "bt") -> BTNode:
    """Build and validate a tree from parsed scenario data.

    ``spec`` is the nested mapping from the scenario file.  Unknown states or
    actions raise :class:`TreeError` naming the offending reference and its
    path into the scenario.  The nodes are not numbered yet: the caller's
    :func:`assign_ids` numbers them and returns the node list in one walk.
    """
    return _build_node(spec, registry, actions_by_name, path)


def _build_node(spec, registry, actions_by_name, path) -> BTNode:
    if not isinstance(spec, dict) or len(spec) != 1:
        raise TreeError(f"{path}: expected a single-key node mapping")
    kind, body = next(iter(spec.items()))
    if kind in _CONTROL_KINDS:
        if not isinstance(body, list) or not body:
            raise TreeError(f"{path}/{kind}: control node needs a non-empty child list")
        children = [
            _build_node(child, registry, actions_by_name, f"{path}/{kind}[{i}]")
            for i, child in enumerate(body)
        ]
        return _CONTROL_KINDS[kind](children)
    if kind == "condition":
        pred = Predicate(body["state"],
                         strict_int(body.get("index", 0), f"{path}/condition index"))
        if pred.state_id not in registry:
            raise TreeError(f"{path}/condition: unknown state {pred.state_id!r}")
        registry.validate_predicate(pred)
        return Condition(pred)
    if kind == "action":
        name = body if isinstance(body, str) else body["name"]
        if name not in actions_by_name:
            raise TreeError(f"{path}/action: unknown action {name!r}")
        return Action(name)
    if kind == "prior":
        raw = body.get("targets") if isinstance(body, dict) else None
        if not raw:
            raise TreeError(f"{path}/prior: needs a non-empty target list")
        targets = []
        for i, t in enumerate(raw):
            sid = t["state"]
            idx = strict_int(t.get("index", 0), f"{path}/prior[{i}] index")
            if sid not in registry:
                raise TreeError(f"{path}/prior[{i}]: unknown state {sid!r}")
            registry.validate_predicate(Predicate(sid, idx))
            if any(sid == other for other, _ in targets):
                # the assembled preferences would ask for both values at once
                raise TreeError(f"{path}/prior[{i}]: state {sid!r} named twice")
            targets.append((sid, idx))
        return Prior(targets)
    raise TreeError(f"{path}: unknown node kind {kind!r}")


_SHAPES = {
    "fallback": "box",
    "sequence": "box",
    "reactive_sequence": "box",
    "condition": "ellipse",
    "action": "box",
    "prior": "hexagon",
}


def export_graph(root: BTNode) -> str:
    """Deterministic Graphviz DOT listing of the tree (pre-order ids)."""
    nodes = assign_ids(root)
    lines = ["digraph bt {"]
    for node in nodes:
        # backslashes first: Graphviz reads \N, \l and \n in a label as escapes
        label = node.label.replace("\\", "\\\\").replace('"', r"\"")
        lines.append(f'  n{node.node_id} [shape={_SHAPES[node.kind]} label="{label}"];')
    for node in nodes:
        for child in node.children:
            lines.append(f"  n{node.node_id} -> n{child.node_id};")
    lines.append("}")
    return "\n".join(lines) + "\n"
