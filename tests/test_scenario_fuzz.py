"""Scenario loading is total: a mutated shipped scenario either raises
ScenarioError or runs to Goal, Failure or Timeout, and the CLI answers every
document with an exit code in 0-3 and no traceback."""

import contextlib
import copy
import io
import math
import tempfile
from pathlib import Path

import yaml
from hypothesis import given, settings, strategies as st

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
