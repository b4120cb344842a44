import collections.abc
import re
import typing

import numpy as np
import pytest

from btai.bt import (
    Action,
    BTNode,
    Condition,
    Fallback,
    Prior,
    ReactiveSequence,
    Sequence,
    TickStatus,
    TreeError,
    assign_ids,
    build_tree,
    export_graph,
    node_count,
)
from btai.domain import Predicate, StateRegistry, StateVar


class Leaf(BTNode):
    """Scriptable leaf for executor tests: yields statuses in order."""

    kind = "action"

    def __init__(self, *statuses):
        super().__init__()
        self.statuses = list(statuses)
        self.ticks = 0

    def tick(self, ctx):
        ctx.visit(self)
        self.ticks += 1
        if len(self.statuses) > 1:
            return self.statuses.pop(0)
        return self.statuses[0]


class StubCtx:
    def __init__(self, truths=()):
        self.truths = set(truths)
        self.visited = []
        self.resume = {}

    def visit(self, node):
        self.visited.append(node)

    def holds(self, pred):
        return (pred.state_id, pred.required_index) in self.truths


S, R, F = TickStatus.SUCCESS, TickStatus.RUNNING, TickStatus.FAILURE


class TestFallback:
    def test_first_non_failure_wins(self):
        second = Leaf(S)
        node = Fallback([Leaf(F), second, Leaf(S)])
        assert node.tick(StubCtx()) == S
        assert node.children[2].ticks == 0

    def test_running_blocks_later_children(self):
        node = Fallback([Leaf(R), Leaf(S)])
        assert node.tick(StubCtx()) == R
        assert node.children[1].ticks == 0

    def test_all_fail(self):
        assert Fallback([Leaf(F), Leaf(F)]).tick(StubCtx()) == F

    def test_needs_children(self):
        with pytest.raises(TreeError):
            Fallback([])


class TestSequence:
    # the memory lives in the context, so each test ticks one context
    def test_memory_resumes_at_running_child(self):
        first, second = Leaf(S), Leaf(R, S)
        node, ctx = Sequence([first, second]), StubCtx()
        assert node.tick(ctx) == R
        assert node.tick(ctx) == S
        assert first.ticks == 1  # not re-ticked on resume

    def test_failure_resets_memory(self):
        first, second = Leaf(S), Leaf(R, F)
        node, ctx = Sequence([first, second]), StubCtx()
        node.tick(ctx)
        assert node.tick(ctx) == F
        node.children[1].statuses = [S]
        assert node.tick(ctx) == S
        assert first.ticks == 2  # restarted from the beginning

    def test_full_success_resets(self):
        first = Leaf(S)
        node, ctx = Sequence([first, Leaf(S)]), StubCtx()
        assert node.tick(ctx) == S
        assert node.tick(ctx) == S
        assert first.ticks == 2

    def test_two_contexts_keep_their_own_memory(self):
        # one tree ticked by two episodes in turn: the first stops at its
        # second child, the other at its first, and each resumes where it
        # stopped, not where the other did
        first, second = Leaf(S, R, S), Leaf(R, S, S)
        node, one, other = Sequence([first, second]), StubCtx(), StubCtx()
        assert [node.tick(ctx) for ctx in (one, other, one, other)] == [R, R, S, S]
        assert one.visited == [node, first, second, node, second]
        assert other.visited == [node, first, node, first, second]


class TestReactiveSequence:
    def test_restarts_every_tick(self):
        first, second = Leaf(S), Leaf(R, R)
        node = ReactiveSequence([first, second])
        assert node.tick(StubCtx()) == R
        assert node.tick(StubCtx()) == R
        assert first.ticks == 2

    def test_left_priority_blocks_task_subtree(self):
        safety, task = Leaf(F), Leaf(S)
        node = ReactiveSequence([safety, task])
        assert node.tick(StubCtx()) == F
        assert task.ticks == 0


class TestCondition:
    def test_success_and_failure(self):
        cond = Condition(Predicate("isAt", 0))
        assert cond.tick(StubCtx({("isAt", 0)})) == S
        assert cond.tick(StubCtx()) == F

    def test_never_running(self):
        cond = Condition(Predicate("isAt", 1))
        for truths in ((), {("isAt", 1)}):
            assert cond.tick(StubCtx(truths)) in (S, F)


def test_constructor_annotations_resolve():
    # the Sequence node class must not hide typing's Sequence from them
    children = typing.get_type_hints(BTNode.__init__)["children"]
    targets = typing.get_type_hints(Prior.__init__)["targets"]
    assert typing.get_origin(children) is collections.abc.Sequence
    assert typing.get_origin(targets) is collections.abc.Sequence
    assert typing.get_args(children) == (BTNode,)
    assert typing.get_args(targets) == (tuple[str, int],)


class TestBuildTree:
    def setup_method(self):
        self.registry = StateRegistry([
            StateVar("isAt", 2, ("at", "away")),
            StateVar("isHolding", 2, ("holding", "free")),
        ])
        self.actions = {"moveTo(table)": object(), "Idle": object()}

    def build(self, spec):
        return build_tree(spec, self.registry, self.actions)

    def test_six_node_hybrid_shape(self):
        tree = self.build({"reactive_sequence": [
            {"prior": {"targets": [{"state": "isHolding", "index": 0}]}},
            {"fallback": [
                {"condition": {"state": "isAt", "index": 0}},
                {"action": "moveTo(table)"},
            ]},
            {"prior": {"targets": [{"state": "isAt", "index": 0}]}},
        ]})
        assert node_count(tree) == 6

    def test_preorder_ids(self):
        tree = self.build({"fallback": [
            {"condition": {"state": "isAt", "index": 0}},
            {"action": "Idle"},
        ]})
        nodes = assign_ids(tree)
        assert [n.node_id for n in nodes] == [0, 1, 2]
        assert nodes[0] is tree

    def test_unknown_action_named_in_error(self):
        with pytest.raises(TreeError, match="Jump"):
            self.build({"action": "Jump"})

    def test_unknown_state_named_in_error(self):
        with pytest.raises(TreeError, match="ghost"):
            self.build({"condition": {"state": "ghost"}})

    def test_error_includes_path(self):
        with pytest.raises(TreeError, match=r"bt/fallback\[1\]"):
            self.build({"fallback": [
                {"condition": {"state": "isAt"}},
                {"action": "Jump"},
            ]})

    def test_empty_control_rejected(self):
        with pytest.raises(TreeError):
            self.build({"fallback": []})

    def test_prior_needs_targets(self):
        with pytest.raises(TreeError):
            self.build({"prior": {"targets": []}})

    def test_unknown_kind(self):
        with pytest.raises(TreeError):
            self.build({"parallel": []})


class TestExportGraph:
    def test_five_node_tree(self):
        tree = Fallback([
            Sequence([Condition(Predicate("isAt", 0)), Action("a1")]),
            Action("a2"),
        ])
        dot = export_graph(tree)
        assert dot.count("[shape=") == 5
        assert dot.count("->") == 4

    def test_single_node(self):
        dot = export_graph(Action("solo"))
        assert dot.count("[shape=") == 1
        assert "->" not in dot

    def test_deterministic_bytes(self):
        tree = Fallback([Condition(Predicate("x", 0)), Action("a")])
        assert export_graph(tree) == export_graph(tree)

    def test_prior_is_hexagon(self):
        dot = export_graph(Prior([("isAt", 0)]))
        assert "hexagon" in dot

    @pytest.mark.parametrize("name", ["pick\\", "a\\N", 'say "hi"'])
    def test_label_reads_back_as_the_name(self, name):
        # a DOT string ends at the first quote no backslash escapes; \\ and
        # \" stand for the character they escape
        dot = export_graph(Action(name))
        match = re.search(r'label="((?:[^"\\]|\\.)*)"\];', dot)
        assert match
        assert re.sub(r"\\(.)", r"\1", match.group(1)) == name
