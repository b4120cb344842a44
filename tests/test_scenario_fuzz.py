"""Scenario loading is total: a mutated shipped scenario either raises
ScenarioError or runs to Goal, Failure or Timeout, and the CLI answers every
document with an exit code in 0-3 and no traceback.  A parse gives the same
result with the process-wide tables warm as after they were emptied."""

import contextlib
import copy
import io
import math
import tempfile
from pathlib import Path

import numpy as np
import yaml
from hypothesis import given, settings, strategies as st

from btai import inference
from btai.bt import export_graph
from btai.cli import main
from btai.episode import run_episode
from btai.scenario import ScenarioError, scenario_from_dict, shipped_scenario_path

SHIPPED = [
    "scenario_1.yaml",
    "scenario_1_conflict.yaml",
    "scenario_1_prior_nav.yaml",
    "scenario_failure.yaml",
    "scenario_safety.yaml",
    "bt_classic_27.yaml",
]
DOCS = {name: yaml.safe_load(shipped_scenario_path(name).read_text())
        for name in SHIPPED}
BUDGET = 20
JUNK = [None, True, False, 0, 1, 2, -1, 7, 1.5, 2 ** 40, math.nan, math.inf,
        "", "x", "Idle", "isAt", [], {}, [1], ["a"], {"a": 1},
        {"state": "isAt"}, [[0.5, 0.5], [0.5]]]
KEYS = ["state", "index", "name", "pre", "post", "transitions", "duration",
        "success_prob", "targets", "set", "observable", "at_tick", "values",
        "fluents", "noise_p", "seed", "prior", "action", "condition"]


def _paths(node, prefix=()):
    """Every (container path, key) in the document, parents first."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix, key
        yield from _paths(child, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _value(draw, doc, paths):
    """Junk, or a real piece of the document to put in the wrong place."""
    if draw(st.booleans()):
        return copy.deepcopy(draw(st.sampled_from(JUNK)))
    parent, key = draw(st.sampled_from(paths))
    return copy.deepcopy(_at(doc, parent)[key])


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(DOCS[draw(st.sampled_from(SHIPPED))])
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        parent, key = draw(st.sampled_from(paths))
        container = _at(doc, parent)
        op = draw(st.sampled_from(["replace", "delete", "add"]))
        if op == "replace":
            container[key] = _value(draw, doc, paths)
        elif op == "delete":
            del container[key]
        elif isinstance(container[key], dict):
            container[key][draw(st.sampled_from(KEYS))] = _value(draw, doc, paths)
        elif isinstance(container[key], list):
            container[key].append(_value(draw, doc, paths))
    return doc


def _cli(path: Path) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(["run", str(path), "--quiet", "--budget", str(BUDGET)])
    assert "Traceback" not in err.getvalue()
    return code


@settings(max_examples=100, deadline=None)
@given(doc=mutated_documents())
def test_mutated_scenarios_parse_or_run_to_an_outcome(doc):
    try:
        scenario = scenario_from_dict(doc, source="<mutated>")
    except ScenarioError:
        expected = 3
    else:
        result = run_episode(scenario, budget=BUDGET)
        assert result.outcome in ("Goal", "Failure", "Timeout")
        expected = result.exit_code
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=False))
        assert _cli(path) == expected


class DictSubclass(dict):
    pass


def _variants(value) -> list:
    """``value`` in the types a loader or a caller might hand in, the
    original first.  Numbers and strings also come as buffer objects, which
    marshal writes as bytes: a float64 scalar, whose bytes are those of its
    0-d array and of a bytes object, and a numpy string, which is a str."""
    if isinstance(value, (bool, int, float)) and math.isfinite(value):
        x = float(value)
        whole = [int(x)] if x.is_integer() else []
        return [value, *whole, x, -x, bool(value), np.float64(x), np.array(x),
                bytearray(np.float64(x).tobytes()), np.float64(x).tobytes()]
    if isinstance(value, str):
        return [value, np.str_(value), np.array(value), value.encode(),
                bytearray(value.encode()), np.str_(value).tobytes()]
    if isinstance(value, list):
        recursive = list(value)
        recursive.append(recursive)
        return [value, tuple(value), recursive]
    if isinstance(value, dict):
        return [value, DictSubclass(value), dict(reversed(value.items()))]
    return [value]


def _with(doc, parent, key, values) -> list:
    """Copies of ``doc``, one per value, with that value at ``parent[key]``."""
    out = []
    for value in values:
        copied = copy.deepcopy(doc)
        _at(copied, parent)[key] = value
        out.append(copied)
    return out


@st.composite
def type_variants(draw):
    """Copies of a shipped document that differ in the type of one value of
    its states or actions section."""
    doc = DOCS[draw(st.sampled_from(SHIPPED))]
    how = draw(st.sampled_from(["anywhere", "number", "labels", "zero"]))
    if how == "anywhere":
        paths = [(parent, key) for parent, key in _paths(doc)
                 if (parent or (key,))[0] in ("states", "actions")]
        parent, key = draw(st.sampled_from([((), "states"), ((), "actions")] + paths))
        return _with(doc, parent, key, _variants(_at(doc, parent)[key]))
    if how == "labels":
        i = draw(st.integers(0, len(doc["states"]) - 1))
        return _with(doc, ("states", i), "values", _variants(doc["states"][i]["values"]))
    acting = [i for i, a in enumerate(doc["actions"]) if a.get("post")]
    i = draw(st.sampled_from(acting))
    if how == "number":
        # an index out of range passes the parse of the entry and fails
        # StateRegistry.validate_action
        fields = [(("actions", i), "duration"), (("actions", i), "success_prob"),
                  (("actions", i, "post", 0), "index")]
        fields += [(("actions", j, "pre", 0), "index")
                   for j, a in enumerate(doc["actions"]) if a.get("pre")]
        parent, key = draw(st.sampled_from(fields))
        return _with(doc, parent, key, _variants(draw(st.sampled_from([3, 1, 0, -1, 0.5]))))
    # an explicit transition that moves every value to the target for
    # sure: its zero entries as 0.0 and as -0.0, two valid matrices
    post = doc["actions"][i]["post"][0]
    m = len(next(s["values"] for s in doc["states"] if s["id"] == post["state"]))
    target = post.get("index", 0)
    return [_with(doc, ("actions", i), "transitions", [{post["state"]: [
        [1.0 if row == target else zero] * m for row in range(m)]}])[0]
        for zero in (0.0, -0.0)]


def _outcome(doc):
    """The parse of ``doc``: its error text, or what its scenario holds."""
    try:
        sc = scenario_from_dict(doc, source="<variant>")
    except ScenarioError as exc:
        return str(exc)
    return (
        [(s.id, s.m, s.value_labels) for s in sc.states],
        [repr((a.name, a.preconditions, a.postconditions, a.duration_ticks,
               a.success_prob, a.success_probability))
         + repr([(sid, b.dtype.str, b.shape, b.tobytes()) for sid, b in a.transitions.items()])
         for a in sc.actions],
        [(sid, state.identity[1].tobytes(),
          [(name, entry[1].tobytes()) for name, entry in state.transitions.items()])
         for sid, state in sc.model.states.items()],
        export_graph(sc.build_tree()),
    )


SHIPPED_OUTCOMES = {name: _outcome(DOCS[name]) for name in SHIPPED}


@settings(max_examples=200, deadline=None)
@given(docs=st.one_of(type_variants(), mutated_documents().map(lambda doc: [doc])))
def test_a_parse_is_the_same_warm_and_cold(docs):
    cold = []
    for doc in docs:
        inference.clear_tables()
        cold.append(_outcome(doc))
    # warm: after the shipped documents, and after each other, twice, so
    # that a parse may read what the parse before it stored
    for name in SHIPPED:
        assert _outcome(DOCS[name]) == SHIPPED_OUTCOMES[name], name
    for doc, want in zip(docs, cold):
        assert _outcome(doc) == want
        assert _outcome(doc) == want
