import collections
import copy
import dataclasses
import importlib
import itertools
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

import btai
from btai import bt, episode, inference
from btai import scenario as scenario_mod
from btai.bt import assign_ids
from btai.domain import StateRegistry
from btai.episode import report, run_episode, write_trace
from btai.inference import IDLE
from btai.scenario import parse_scenario, shipped_scenario_path
from btai.selector import _viable

SHIPPED = [
    "scenario_1.yaml",
    "scenario_1_conflict.yaml",
    "scenario_1_prior_nav.yaml",
    "scenario_failure.yaml",
    "scenario_safety.yaml",
    "bt_classic_27.yaml",
]


def run(name, **kw):
    return run_episode(parse_scenario(shipped_scenario_path(name)), **kw)


def run_noisy(name, seed):
    """An episode with observation noise and stochastic action outcomes."""
    scenario = dataclasses.replace(
        parse_scenario(shipped_scenario_path(name)), noise_p=0.1)
    return run_episode(scenario, seed=seed, deterministic=False)


def dumps(record):
    return json.dumps(record, separators=(",", ":"))


class TestNominal:
    def test_goal_with_planned_sequence(self):
        result = run("scenario_1.yaml")
        assert result.outcome == "Goal"
        assert result.completed_actions == [
            "moveTo(shelf)", "Pick", "moveTo(table)", "Place"]
        assert result.exit_code == 0

    def test_one_record_per_tick(self):
        result = run("scenario_1.yaml")
        assert len(result.records) == result.ticks
        assert [r["tick"] for r in result.records] == list(range(result.ticks))

    def test_beliefs_on_simplex(self):
        result = run("scenario_1.yaml")
        for record in result.records:
            for belief in record["beliefs"].values():
                assert sum(belief) == pytest.approx(1.0, abs=1e-9)

    def test_prior_only_tree_reaches_same_goal(self):
        result = run("scenario_1_prior_nav.yaml")
        assert result.outcome == "Goal"
        assert result.completed_actions == [
            "moveTo(shelf)", "Pick", "moveTo(table)", "Place"]
        assert result.bt_nodes == 4


class TestConflict:
    def test_replan_suffix_and_goal(self):
        result = run("scenario_1_conflict.yaml")
        assert result.outcome == "Goal"
        assert result.completed_actions[-4:] == [
            "PlaceOnPlate", "Push", "Pick", "Place"]

    def test_conflict_preference_vector_recorded(self):
        result = run("scenario_1_conflict.yaml")
        assert any(r["preferences"]["isHolding"] == [1.0, 2.0]
                   for r in result.records)

    def test_chain_recorded(self):
        result = run("scenario_1_conflict.yaml")
        assert ("Place", "Push", "PlaceOnPlate") in result.chains


class TestFailure:
    def test_dead_end_returns_failure(self):
        result = run("scenario_failure.yaml")
        assert result.outcome == "Failure"
        assert result.exit_code == 1
        assert result.ticks <= 5  # well within budget


class TestTimeout:
    def test_budget_exhaustion(self):
        result = run("scenario_1.yaml", budget=2)
        assert result.outcome == "Timeout"
        assert result.exit_code == 2
        assert result.ticks == 2

    @pytest.mark.parametrize("budget", [0, -3])
    def test_budget_below_one_is_rejected(self, budget):
        with pytest.raises(ValueError, match="budget"):
            run("scenario_1.yaml", budget=budget)

    def test_instant_goal_single_record(self):
        # start in the goal configuration: one tick, one record
        sc = parse_scenario(shipped_scenario_path("scenario_1.yaml"))
        sc.fluents.update({"isAt": 0, "isHolding": 0, "isPlacedAt": 0})
        result = run_episode(sc, budget=1)
        assert result.outcome == "Goal"
        assert len(result.records) == 1


class TestSharedScenario:
    """A parsed scenario holds the fixed half of every episode: its registry,
    action map, tree and compiled model are built once, when it is parsed,
    and all its episodes share them."""

    BUDGETS = (1, 2, 3, 5, 8, None)   # None: the scenario's own

    @staticmethod
    def traces(scenario_for, path):
        """Trace bytes of every (seed, budget), budgets interleaved; each
        episode runs on ``scenario_for()``."""
        out = []
        for seed in (0, 1):
            for budget in TestSharedScenario.BUDGETS:
                run_episode(scenario_for(), seed=seed, budget=budget, trace_path=path)
                out.append(path.read_bytes())
        return out

    @pytest.mark.parametrize("name", SHIPPED)
    def test_episodes_on_one_scenario_equal_freshly_parsed_ones(self, name, tmp_path):
        path = tmp_path / "trace.jsonl"
        shared = parse_scenario(shipped_scenario_path(name))
        nodes = assign_ids(shared.build_tree())
        before = [dict(vars(node)) for node in nodes]
        back_to_back = self.traces(lambda: shared, path)
        # a tree that kept an episode's state (a Sequence's running child)
        # would start the next episode where the last one stopped
        assert [dict(vars(node)) for node in nodes] == before
        fresh = self.traces(lambda: parse_scenario(shipped_scenario_path(name)), path)
        assert back_to_back == fresh

    BT_NODES = {"scenario_1.yaml": 6, "scenario_1_conflict.yaml": 6,
                "scenario_1_prior_nav.yaml": 4, "scenario_failure.yaml": 6,
                "scenario_safety.yaml": 9, "bt_classic_27.yaml": 27}

    def test_parse_builds_each_part_once_and_an_episode_none(self, monkeypatch):
        calls = collections.Counter()

        def count(owner, attr):
            fn = getattr(owner, attr)

            def counted(*args, **kwargs):
                calls[attr] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(owner, attr, counted)

        count(bt, "build_tree")
        count(scenario_mod, "compile_domain")
        count(StateRegistry, "__init__")
        # node ids and the node count are fixed at parse, in one walk: an
        # episode does not walk or renumber the shared tree
        count(bt, "assign_ids")
        count(bt, "node_count")

        def parse(data, name):
            calls.clear()
            sc = scenario_mod.scenario_from_dict(data, source=name)
            assert calls["assign_ids"] == 1, name
            # StateRegistry.__init__ counts under "__init__"
            return (calls["__init__"], calls["compile_domain"], calls["build_tree"]), sc

        for name in SHIPPED:
            data = yaml.safe_load(shipped_scenario_path(name).read_text())
            inference.clear_tables()
            # cold: the registry, the model and the tree are built once
            built, sc = parse(data, name)
            assert built == (1, 1, 1), name
            # equal states and actions: only the tree is built again
            built, _ = parse(copy.deepcopy(data), name)
            assert built == (0, 0, 1), name
            inference.clear_tables()
            built, _ = parse(copy.deepcopy(data), name)
            assert built == (1, 1, 1), name
            calls.clear()
            sc.make_world()
            assert run_episode(sc).bt_nodes == sc.bt_nodes == self.BT_NODES[name]
            assert not calls, (name, calls)
            assert sc.build_tree() is sc.build_tree()
            assert sc.registry() is sc.registry()
            assert sc.actions_by_name() is sc.actions_by_name()

    def test_replace_shares_the_domain_and_builds_only_the_tree(self, monkeypatch):
        sc = parse_scenario(shipped_scenario_path("scenario_1.yaml"))
        calls = collections.Counter()

        def count(owner, attr):
            fn = getattr(owner, attr)
            monkeypatch.setattr(owner, attr, lambda *args: calls.update([attr]) or fn(*args))

        count(bt, "build_tree")
        count(scenario_mod, "compile_domain")
        noisy = dataclasses.replace(sc, noise_p=0.1)
        assert noisy.domain is sc.domain and noisy.model is sc.model
        assert noisy.registry() is sc.registry()
        assert noisy.build_tree() is not sc.build_tree()
        assert calls == {"build_tree": 1}

    @pytest.mark.parametrize("name", SHIPPED)
    def test_equal_content_shares_the_domain_not_the_lists(self, name):
        data = yaml.safe_load(shipped_scenario_path(name).read_text())
        a = scenario_mod.scenario_from_dict(data)
        b = scenario_mod.scenario_from_dict(copy.deepcopy(data))
        assert a.domain is b.domain
        assert a.registry() is b.registry()
        assert a.model is b.model
        assert a.actions_by_name() is b.actions_by_name()
        # the states and actions are shared tuples; the tree is each
        # scenario's own
        assert a.states is b.states and a.actions is b.actions
        assert isinstance(a.states, tuple) and isinstance(a.actions, tuple)
        assert a.build_tree() is not b.build_tree()
        # the shared parts cannot be changed through either scenario
        with pytest.raises(TypeError):
            a.actions_by_name()["x"] = a.actions[0]
        with pytest.raises(AttributeError):
            a.states = ()
        for action in a.actions:
            for matrix in action.transitions.values():
                assert not matrix.flags.writeable


class TestSafety:
    def test_recharge_preempts_task(self):
        result = run("scenario_safety.yaml")
        assert result.outcome == "Goal"
        assert "Recharge" in result.completed_actions
        # the first Pick was preempted: started twice, completed once
        assert result.started_actions.count("Pick") == 2
        assert result.completed_actions.count("Pick") == 1

    def test_task_subtree_not_visited_while_battery_low(self):
        result = run("scenario_safety.yaml")
        # node ids: 0 root, 1 safety fallback, 2 battery condition,
        # 3 battery prior; task subtree is ids 4 and up
        low_ticks = [r for r in result.records
                     if r["logical"]["batteryOk"] == 1]
        assert low_ticks
        for record in low_ticks:
            assert all(nid <= 3 for nid in record["visited"])


class TestHiddenState:
    """A Goal of ``scenario_1`` should mean the true world has the task done.
    With a task state hidden from the start, the tree can read the task as
    done from its belief alone: these count the Goals whose true fluents
    miss a goal value, over all 32 initial fluents."""

    GOAL_VALUES = {"isHolding": 0, "isAt": 0, "isPlacedAt": 0}

    @pytest.mark.parametrize("hidden", [
        None, "isReachable", "isLocationFree",
        # 16, 16 and 8 of the 32 Goals are false: a hidden state's belief
        # stays uniform, and the tie rule reads it as index 0, the target
        pytest.param("isAt", marks=pytest.mark.xfail(strict=True)),
        pytest.param("isPlacedAt", marks=pytest.mark.xfail(strict=True)),
        pytest.param("isHolding", marks=pytest.mark.xfail(strict=True)),
    ])
    def test_no_goal_while_the_true_task_is_undone(self, hidden, monkeypatch):
        worlds = []
        make_world = scenario_mod.Scenario.make_world

        def capture(self, *args, **kwargs):
            worlds.append(make_world(self, *args, **kwargs))
            return worlds[-1]
        monkeypatch.setattr(scenario_mod.Scenario, "make_world", capture)

        base = yaml.safe_load(shipped_scenario_path("scenario_1.yaml").read_text())
        state_ids = [s["id"] for s in base["states"]]
        false_goals = []
        for values in itertools.product((0, 1), repeat=len(state_ids)):
            data = copy.deepcopy(base)
            data["budget_ticks"] = 150
            data["world"]["fluents"] = dict(zip(state_ids, values))
            if hidden is not None:
                data["world"]["observable"] = {hidden: False}
            result = run_episode(scenario_mod.scenario_from_dict(data))
            truth = worlds[-1].fluents
            if (result.outcome == "Goal"
                    and any(truth[sid] != idx for sid, idx in self.GOAL_VALUES.items())):
                false_goals.append(values)
        assert false_goals == []


class TestTrace:
    def test_write_and_reload(self, tmp_path):
        result = run("scenario_1.yaml")
        path = tmp_path / "trace.jsonl"
        write_trace(result, path)
        lines = path.read_text().splitlines()
        assert len(lines) == result.ticks
        parsed = [json.loads(line) for line in lines]
        assert parsed == result.records

    def test_key_order_is_stable(self, tmp_path):
        result = run("scenario_1.yaml")
        keys = [tuple(r.keys()) for r in result.records]
        assert len(set(keys)) == 1

    def test_byte_identical_reruns(self, tmp_path):
        texts = []
        for i in range(2):
            path = tmp_path / f"t{i}.jsonl"
            run("scenario_1_conflict.yaml", trace_path=path)
            texts.append(path.read_bytes())
        assert texts[0] == texts[1]

    def test_ascii_lines_each_ending_in_newline(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        result = run("scenario_1_conflict.yaml", trace_path=path)
        assert path.read_bytes() == b"".join(
            dumps(r).encode("ascii") + b"\n" for r in result.records)

    def test_no_ticks_give_an_empty_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(dataclasses.replace(run("scenario_1.yaml", budget=1), records=[]), path)
        assert path.read_bytes() == b""


class TestTraceFile:
    """``write_trace`` writes over an existing file in place and cuts it to
    length; what is left must be what writing a new file leaves."""

    @pytest.fixture(scope="class")
    def result(self):
        return run("scenario_1_conflict.yaml")

    @staticmethod
    def expected(result):
        return b"".join(dumps(r).encode("ascii") + b"\n" for r in result.records)

    @pytest.mark.parametrize("extra", [b"x" * 100_000, b"\n"])
    def test_longer_file_keeps_only_the_new_bytes(self, result, tmp_path, extra):
        path = tmp_path / "trace.jsonl"
        path.write_bytes(self.expected(result) + extra)
        write_trace(result, path)
        assert path.read_bytes() == self.expected(result)

    @pytest.mark.parametrize("old", [b"", b"{}\n", b"y" * 1000])
    def test_shorter_file_keeps_only_the_new_bytes(self, result, tmp_path, old):
        path = tmp_path / "trace.jsonl"
        path.write_bytes(old)
        write_trace(result, path)
        assert path.read_bytes() == self.expected(result)

    @pytest.mark.skipif(not hasattr(os, "symlink"), reason="no symlinks")
    def test_symlink_rewrites_its_target_and_stays_a_link(self, result, tmp_path):
        target, link = tmp_path / "target.jsonl", tmp_path / "link.jsonl"
        target.write_bytes(b"z" * 50_000)
        link.symlink_to(target)
        write_trace(result, link)
        assert link.is_symlink()
        assert target.read_bytes() == self.expected(result)

    def test_hard_link_keeps_its_inode(self, result, tmp_path):
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        first.write_bytes(b"z" * 50_000)
        os.link(first, second)
        inode = first.stat().st_ino
        write_trace(result, second)
        assert first.read_bytes() == second.read_bytes() == self.expected(result)
        assert first.stat().st_ino == second.stat().st_ino == inode

    @pytest.mark.skipif(os.name != "posix", reason="POSIX permission bits")
    def test_mode_is_kept(self, result, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_bytes(b"z" * 50_000)
        path.chmod(0o600)
        write_trace(result, path)
        assert path.stat().st_mode & 0o777 == 0o600
        assert path.read_bytes() == self.expected(result)

    def test_no_ticks_over_a_file_leave_it_empty(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_bytes(b"z" * 50_000)
        write_trace(dataclasses.replace(run("scenario_1.yaml", budget=1), records=[]), path)
        assert path.read_bytes() == b""


# floats whose text a memo keyed by == would confuse: signed zeros, the
# smallest subnormal and neighbours one ulp apart
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.0, math.nextafter(1.0, 2.0),
                  0.1, math.nextafter(0.1, 0.0), math.inf, -math.inf]
# names JSON must escape: quotes, backslashes, non-ASCII and non-BMP text
SPECIAL_NAMES = ['"', "\\", "a\\N", 'x"y\\', "\u00e9tat", "\u2028", "\U0001F916"]


def edit(record, floats, names):
    """``record`` with its floats replaced in order by ``floats`` (cycled) and
    each state id or action name in ``names`` by its value there."""
    values = itertools.cycle(floats)

    def walk(x):
        if isinstance(x, dict):
            return {names.get(k, k): walk(v) for k, v in x.items()}
        if isinstance(x, list):
            return [walk(v) for v in x]
        if isinstance(x, float):
            return next(values)
        if isinstance(x, str):
            return names.get(x, x)
        return x

    return walk(record)


def encode_all(records):
    return [episode._encode_record(r) for r in records]


class TestTraceEncoding:
    """A line is assembled from a process-wide memo of fragment texts
    (``btai.episode._TEXT``); whatever the memo holds, it must have the bytes
    of json.dumps."""

    @settings(max_examples=30, deadline=None)
    @given(name=st.sampled_from(SHIPPED), seed=st.integers(0, 2 ** 31 - 1))
    def test_lines_equal_json_dumps_on_cold_and_warm_memo(self, name, seed):
        records = run_noisy(name, seed).records
        expected = [dumps(r) for r in records]
        inference.clear_tables()
        assert encode_all(records) == expected
        assert encode_all(records) == expected

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(SHIPPED), seed=st.integers(0, 2 ** 31 - 1),
           floats=st.lists(st.sampled_from(SPECIAL_FLOATS) | st.floats(),
                           min_size=1, max_size=12),
           new_names=st.lists(st.sampled_from(SPECIAL_NAMES) | st.text(min_size=1),
                              min_size=1, max_size=12))
    def test_edited_lines_equal_json_dumps(self, name, seed, floats, new_names):
        scenario = parse_scenario(shipped_scenario_path(name))
        originals = [s.id for s in scenario.states] + [a.name for a in scenario.actions]
        names = dict(zip(originals, itertools.cycle(new_names)))
        records = run_noisy(name, seed).records
        edited = [edit(r, floats, names) for r in records]
        inference.clear_tables()
        for batch in (records, edited, edited):
            assert encode_all(batch) == [dumps(r) for r in batch]

    @pytest.mark.parametrize("first, then", [
        (0.0, -0.0), (-0.0, 0.0), (5e-324, 0.0), (1.0, math.nextafter(1.0, 2.0))])
    def test_equal_or_adjacent_floats_keep_their_own_text(self, first, then):
        records = run("scenario_1_conflict.yaml").records
        inference.clear_tables()
        for value in (first, then):
            edited = [edit(r, [value], {}) for r in records]
            assert encode_all(edited) == [dumps(r) for r in edited]

    @pytest.mark.parametrize("cap", [1, 3, 64])
    def test_memo_stays_within_its_cap(self, monkeypatch, cap):
        monkeypatch.setattr(inference, "TABLE_CAP", cap)
        inference.clear_tables()
        remembered = []
        remember = episode.remember

        def counting_remember(table, key, text):
            if table is episode._TEXT:
                remembered.append(key)
            return remember(table, key, text)

        monkeypatch.setattr(episode, "remember", counting_remember)
        for name in SHIPPED:
            for seed in range(3):
                for record in run_noisy(name, seed).records:
                    assert episode._encode_record(record) == dumps(record)
                    assert len(episode._TEXT) <= cap
        assert len(remembered) > 5 * cap

    @pytest.mark.parametrize("name", SHIPPED)
    def test_cli_in_a_fresh_process_writes_the_same_bytes(self, name, tmp_path):
        # a fresh interpreter starts with an empty memo; this one has seen
        # every other shipped scenario
        for other in SHIPPED:
            if other != name:
                encode_all(run_noisy(other, 7).records)
        path = shipped_scenario_path(name)
        run_episode(parse_scenario(path), trace_path=tmp_path / "here.jsonl")
        src = str(Path(episode.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        cli = subprocess.run(
            [sys.executable, "-m", "btai.cli", "run", str(path),
             "--trace-out", str(tmp_path / "cli.jsonl"), "--quiet"],
            env=env, capture_output=True, timeout=120)
        assert cli.returncode in (0, 1, 2), cli.stderr
        assert (tmp_path / "cli.jsonl").read_bytes() == (tmp_path / "here.jsonl").read_bytes()


class TestWarmEqualsCold:
    """A (scenario, seed) gives the same trace bytes whatever the process-wide
    tables hold.  ``inference.clear_tables()`` empties every one of them: the
    planner's memo (terms, G values and rows), its table of rounds, its
    matrix intern table and the trace text memo."""

    CASES = [(name, seed) for name in SHIPPED for seed in range(3)]

    @staticmethod
    def trace(name, seed, path):
        write_trace(run_noisy(name, seed), path)
        return path.read_bytes()

    def test_tables_emptied_before_every_tick_give_the_warm_bytes(
            self, monkeypatch, tmp_path):
        path = tmp_path / "trace.jsonl"
        # warm: each case runs again after every other case ran
        for name, seed in self.CASES:
            self.trace(name, seed, path)
        warm = {case: self.trace(*case, path) for case in self.CASES}

        update_beliefs, encode_record = episode.update_beliefs, episode._encode_record

        def cold_update_beliefs(*args):
            inference.clear_tables()  # each tick starts with its perception step
            return update_beliefs(*args)

        def cold_encode_record(record):
            inference.clear_tables()
            return encode_record(record)

        monkeypatch.setattr(episode, "update_beliefs", cold_update_beliefs)
        monkeypatch.setattr(episode, "_encode_record", cold_encode_record)
        for case in self.CASES:
            assert self.trace(*case, path) == warm[case], case


def module_dicts() -> dict[int, tuple[str, int]]:
    """Every dict bound at module level in a btai module, by id: its
    qualified name and its size."""
    found = {}
    for info in pkgutil.iter_modules(btai.__path__):
        module = importlib.import_module(f"btai.{info.name}")
        for attr, value in vars(module).items():
            if isinstance(value, dict) and not attr.startswith("__"):
                found[id(value)] = (f"{module.__name__}.{attr}", len(value))
    return found


def unregistered_growth(trace_path) -> list[str]:
    """The module-level dicts of btai, other than the tables made by
    ``inference.table()``, that grow while every shipped scenario runs, its
    trace is written and its report is made."""
    inference.clear_tables()
    before = module_dicts()
    for name in SHIPPED:
        for seed in range(2):
            result = run_noisy(name, seed)
            write_trace(result, trace_path)
            report(result)
    # the episodes filled the tables, so they did grow
    assert inference._MEMO and inference._ROUNDS and episode._TEXT
    registered = {id(t) for t in inference._TABLES}
    return sorted(where for key, (where, size) in module_dicts().items()
                  if size > before.get(key, (where, 0))[1] and key not in registered)


def test_every_growing_module_dict_is_a_registered_table(tmp_path):
    # a memo made as a plain dict escapes clear_tables(), and with it every
    # warm/cold check that empties the tables through it.  The check runs in
    # a fresh interpreter: in this one such a memo may already hold every
    # entry the episodes make, and would not grow.
    paths = [str(Path(episode.__file__).parents[1]), str(Path(__file__).parent),
             os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    check = ("import test_episode; "
             f"print(*test_episode.unregistered_growth({str(tmp_path / 't.jsonl')!r}))")
    out = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert not out.stdout.split(), f"dicts outside inference.table(): {out.stdout}"


def test_episodes_leave_no_reference_cycles(tmp_path):
    # garbage in a cycle lives until a full collection, which then runs
    # inside some tick.  Checked in a fresh interpreter after one warm-up
    # pass, so every lazy import and process-wide table is already set up.
    check = f"""
import gc
from pathlib import Path
from btai.episode import run_episode
from btai.scenario import parse_scenario, shipped_scenario_path
def episodes():
    for name in {SHIPPED!r}:
        for seed in (0, 1):
            sc = parse_scenario(shipped_scenario_path(name))
            run_episode(sc, seed=seed, deterministic=bool(seed),
                        trace_path=Path({str(tmp_path / "t.jsonl")!r}))
episodes()
gc.collect()
gc.disable()
episodes()
print(gc.collect())
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(Path(episode.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["0"]


class TestSelectorInvariants:
    """Checked from the records of noisy episodes with stochastic outcomes:
    the bound on rounds per selector call, the choice rule of each round and
    the life of pushed priors."""

    CASES = [(name, seed) for name in SHIPPED for seed in range(3)]

    def test_invariants_hold_on_the_shipped_scenarios(self):
        seen = {"rounds": 0, "pushes": 0, "drops": 0}
        for name, seed in self.CASES:
            actions = parse_scenario(shipped_scenario_path(name)).actions
            pushed: dict[str, int] = {}
            for record in run_noisy(name, seed).records:
                logical = record["logical"]
                viable = [a for a in actions if _viable(a, logical)]
                for verdict in record["selector"]:
                    where = (name, seed, record["tick"], verdict["node"])
                    assert len(verdict["calls"]) <= len(viable) + 1, where
                    for call in verdict["calls"]:
                        pi = call["policy_probs"]
                        first_argmax = call["candidates"][pi.index(max(pi))]
                        assert call["chosen"] in (first_argmax, IDLE), where
                    # a pushed prior goes at the first call that sees it hold
                    holding = [[sid, idx] for sid, idx in pushed.items()
                               if logical[sid] == idx]
                    assert verdict["removed_pushed"] == holding, where
                    for sid, _ in holding:
                        del pushed[sid]
                    pushed.update(verdict["pushed"])
                    seen["rounds"] += len(verdict["calls"])
                    seen["pushes"] += len(verdict["pushed"])
                    seen["drops"] += len(holding)
        assert min(seen.values()) > 0, seen


class TestReport:
    def test_mentions_key_facts(self):
        result = run("scenario_1.yaml")
        text = report(result)
        assert "Goal" in text
        assert "bt nodes: 6" in text
        assert "moveTo(shelf)" in text


class TestTraceReplay:
    """Every recorded inference call must be reproducible from the record's
    own inputs by the independent brute-force evaluator."""

    SCENARIOS = [
        "scenario_1.yaml",
        "scenario_1_conflict.yaml",
        "scenario_1_prior_nav.yaml",
        "scenario_failure.yaml",
        "scenario_safety.yaml",
    ]

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_replay_matches_recorded_values(self, name):
        import oracle

        scenario = parse_scenario(shipped_scenario_path(name))
        result = run_episode(scenario)
        transitions = {
            a.name: {sid: [list(map(float, row)) for row in b]
                     for sid, b in a.transitions.items()}
            for a in scenario.actions
        }
        checked = 0
        for record in result.records:
            observations = {
                sid: (None if idx is None
                      else [1.0 if i == idx else 0.0
                            for i in range(len(record["beliefs"][sid]))])
                for sid, idx in record["observations"].items()
            }
            for verdict in record["selector"]:
                for call in verdict["calls"]:
                    factors = {}
                    for sid, belief in record["beliefs"].items():
                        m = len(belief)
                        factors[sid] = {
                            "a": oracle.identity(m),
                            "b": {act: transitions[act][sid]
                                  for act in call["candidates"]
                                  if sid in transitions[act]},
                            "d": belief,
                            "c": call["preferences"][sid],
                        }
                    f_o, g_o, pi_o, _ = oracle.evaluate_model(
                        factors, call["candidates"], observations)
                    assert call["F"] == pytest.approx(f_o, abs=1e-9)
                    assert call["G"] == pytest.approx(g_o, abs=1e-9)
                    assert call["policy_probs"] == pytest.approx(pi_o, abs=1e-9)
                    checked += 1
        assert checked > 0
