"""The traced benchmark (``perfbench/spans.py``) times each layer by patching
module and class attributes of btai.  A refactor that renames or drops one of
them leaves that layer unmeasured without failing the benchmark, so the names
are pinned here."""

import importlib
from pathlib import Path

import pytest

from btai.episode import run_episode
from btai.scenario import parse_scenario, shipped_scenario_path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans")


def test_the_recorder_finds_every_entry_point_but_the_deleted_factorize(spans):
    rec = spans.SpanRecorder()
    rec.install()
    try:
        assert rec.missing == ["btai.selector._factorize"]
        # the tree is timed through the root that btai.bt.build_tree returns
        run_episode(parse_scenario(shipped_scenario_path("scenario_1.yaml")))
        layers = rec.layer_times()
    finally:
        rec.uninstall()
    for name in ("bt.tick", "selector.adaptive_select", "episode.make_record",
                 "domain.update_beliefs", "scenario.from_dict"):
        assert layers[name]["calls"] > 0, name
