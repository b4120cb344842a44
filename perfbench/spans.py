"""Span recorder for the traced run.

The recorder wraps the layer entry points from outside, by replacing the
module and class attributes that the tick loop looks up at call time, so the
program itself carries no probes.  Each wrapped call becomes one span (name,
start, end, parent span, episode id, tick id) kept in compact in-memory
columns; the spans are written out once the run ends.  Self time of a layer
is its span's duration minus the duration of its direct child spans.

A few entry points are counted instead of timed because they are called far
more often than they cost (``holds``, ``softmax``), and the sweep wrapper
also hashes its inputs to measure how often a sweep repeats an earlier one.
"""

from __future__ import annotations

import json
import time
from array import array

import numpy as np

from btai import bt as bt_mod
from btai import episode as episode_mod
from btai import inference as inference_mod
from btai import scenario as scenario_mod
from btai import selector as selector_mod
from btai import world as world_mod

COLUMNS = ("name", "start_ns", "end_ns", "parent", "episode", "tick")

# (owner, attribute, span name): the call sites the tick loop resolves at
# run time.  A missing attribute is skipped and reported, so a later
# refactor of the program does not break the benchmark.
TIMED = (
    (scenario_mod, "scenario_from_dict", "scenario.from_dict"),
    (world_mod.World, "step", "world.step"),
    (episode_mod, "update_beliefs", "domain.update_beliefs"),
    (episode_mod, "logical_state", "domain.logical_state"),
    (episode_mod, "adaptive_select", "selector.adaptive_select"),
    (episode_mod, "_make_record", "episode.make_record"),
    (episode_mod, "write_trace", "episode.write_trace"),
    (episode_mod.EpisodeContext, "_drive", "episode.drive"),
    (selector_mod, "_factorize", "selector.factorize"),
    (selector_mod, "run_active_inference", "inference.round"),
    (inference_mod, "variational_free_energy", "inference.free_energy"),
    (inference_mod, "expected_free_energy", "inference.expected_free_energy"),
    (inference_mod, "bayesian_model_average", "inference.model_average"),
    (inference_mod, "policy_posterior", "inference.policy_posterior"),
    (inference_mod, "preferences_satisfied", "inference.preferences_satisfied"),
)
HOLDS_SITES = ((episode_mod, "holds"), (selector_mod, "holds"))


def _array_bytes(x) -> bytes:
    if x is None:
        return b"-"
    return np.asarray(x, dtype=float).tobytes()


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.columns = {c: array("q") for c in COLUMNS}
        self._stack: list[int] = []
        self.episode = -1
        self.tick = -1
        self.holds_calls = 0
        self.sweep_iterations: list[int] = []   # softmax calls per sweep
        self.sweep_repeats_tick = 0
        self.sweep_repeats_episode = 0
        self._softmax_calls = 0
        self._seen_tick: set[bytes] = set()
        self._seen_episode: set[bytes] = set()
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- span bookkeeping -------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn, on_enter=None):
        """Wrap ``fn`` so that each call records one span named ``name``."""
        nid = self._name_id(name)
        c = self.columns
        names, starts, ends = c["name"], c["start_ns"], c["end_ns"]
        parents, episodes, ticks = c["parent"], c["episode"], c["tick"]
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if on_enter is not None:
                on_enter()
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            episodes.append(self.episode)
            ticks.append(self.tick)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def _new_episode(self):
        self.episode += 1
        self._seen_episode.clear()

    def _new_tick(self):
        self.tick += 1
        self._seen_tick.clear()

    def _note_sweep_inputs(self, args, kwargs):
        # update_posterior_states(transitions, likelihood, prior, observations, ...)
        transitions = args[0] if len(args) > 0 else kwargs["transitions"]
        prior = args[2] if len(args) > 2 else kwargs["prior"]
        observations = args[3] if len(args) > 3 else kwargs["observations"]
        key = b"|".join([b"".join(_array_bytes(b) for b in transitions),
                         _array_bytes(prior),
                         b"".join(_array_bytes(o) for o in observations)])
        if key in self._seen_tick:
            self.sweep_repeats_tick += 1
        if key in self._seen_episode:
            self.sweep_repeats_episode += 1
        self._seen_tick.add(key)
        self._seen_episode.add(key)

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _available(self, owner, attr: str) -> bool:
        if attr in owner.__dict__:
            return True
        self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return False

    def install(self):
        """Wrap every layer entry point; undo with :meth:`uninstall`."""
        for owner, attr, name in TIMED:
            if self._available(owner, attr):
                self._patch(owner, attr, self.span(name, owner.__dict__[attr]))

        # a tick starts when the loop observes the world
        if self._available(world_mod.World, "observe"):
            self._patch(world_mod.World, "observe", self.span(
                "world.observe", world_mod.World.observe, on_enter=self._new_tick))
        if self._available(episode_mod, "run_episode"):
            self._patch(episode_mod, "run_episode", self.span(
                "episode.run", episode_mod.run_episode, on_enter=self._new_episode))

        for owner, attr in HOLDS_SITES:
            if self._available(owner, attr):
                self._patch(owner, attr, self._counted_holds(owner.__dict__[attr]))

        if self._available(bt_mod, "build_tree"):
            self._patch(bt_mod, "build_tree", self._traced_root(bt_mod.build_tree))

        if self._available(inference_mod, "softmax"):
            self._patch(inference_mod, "softmax",
                        self._counted_softmax(inference_mod.softmax))
        if self._available(inference_mod, "update_posterior_states"):
            self._patch(inference_mod, "update_posterior_states",
                        self._traced_sweep(inference_mod.update_posterior_states))

    def uninstall(self):
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    def _counted_holds(self, fn):
        def holds(*args, **kwargs):
            self.holds_calls += 1
            return fn(*args, **kwargs)
        return holds

    def _counted_softmax(self, fn):
        def softmax(*args, **kwargs):
            self._softmax_calls += 1
            return fn(*args, **kwargs)
        return softmax

    def _traced_root(self, build):
        def build_tree(*args, **kwargs):
            root = build(*args, **kwargs)
            root.tick = self.span("bt.tick", root.tick)
            return root
        return build_tree

    def _traced_sweep(self, fn):
        timed = self.span("inference.sweep", fn)
        # the input hashing is recorder work: give it its own span so that
        # it is not counted as self time of the inference round
        note = self.span("bench.sweep_key", self._note_sweep_inputs)

        def sweep(*args, **kwargs):
            note(args, kwargs)
            self._softmax_calls = 0
            out = timed(*args, **kwargs)
            self.sweep_iterations.append(self._softmax_calls)
            return out
        return sweep

    # -- analysis ---------------------------------------------------------

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total and self time in nanoseconds."""
        c = self.columns
        names = np.frombuffer(c["name"], dtype=np.int64)
        parents = np.frombuffer(c["parent"], dtype=np.int64)
        duration = (np.frombuffer(c["end_ns"], dtype=np.int64)
                    - np.frombuffer(c["start_ns"], dtype=np.int64))
        child = np.zeros(len(duration), dtype=np.int64)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], duration[has_parent])
        own = duration - child
        out = {}
        for nid, name in enumerate(self.names):
            mask = names == nid
            out[name] = {"calls": int(mask.sum()),
                         "total_ns": float(duration[mask].sum()),
                         "self_ns": float(own[mask].sum())}
        return out

    def write(self, path):
        """Write the spans as JSON lines: a header, then one array per span."""
        c = self.columns
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names, "columns": list(COLUMNS)}) + "\n")
            for row in zip(*(c[k] for k in COLUMNS)):
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")
