"""Correctness gate: outcome rules, chain links, oracle agreement of recorded
inference rounds, byte-identical replays, and trace fingerprints.

Everything here runs outside the timed loop.  A problem found in an episode
marks that episode failed; the run reports failed episodes against attempted
ones.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from btai.selector import chain_links_ok

from workloads import play

#: rounds whose F, G and policy probabilities are re-derived by the oracle
ORACLE_ROUNDS = 60
ORACLE_TOL = 1e-9
#: episodes of the seeded gate block that are run twice and compared bytewise
REPLAYS = 5
#: the gate's reference block is block 0 of this seed, whatever the run's seed
REFERENCE_SEED = 0

_OUTCOME_OF_ROOT = {"Success": "Goal", "Failure": "Failure", "Running": "Timeout"}


def check_result(scenario, result, allowed_outcomes) -> list[str]:
    """Problems with one finished episode; empty when it is correct."""
    problems = []
    if result.outcome not in allowed_outcomes:
        problems.append(f"outcome {result.outcome} is not allowed here")
    records = result.records
    if [r["tick"] for r in records] != list(range(result.ticks)) or not records:
        problems.append("records do not number ticks 0..ticks-1")
    elif _OUTCOME_OF_ROOT.get(records[-1]["root_status"]) != result.outcome:
        problems.append(f"outcome {result.outcome} disagrees with the last "
                        f"root status {records[-1]['root_status']}")
    elif result.outcome == "Timeout" and result.ticks != scenario.budget_ticks:
        problems.append("timeout before the tick budget ran out")
    if not chain_links_ok(result.chains, scenario.actions_by_name()):
        problems.append("a selection chain breaks the prepares relation")
    return problems


def oracle_problems(oracle, scenario, record, call) -> list[str]:
    """Rebuild one recorded inference round and evaluate it with the oracle."""
    factors, observations = {}, {}
    for state in scenario.states:
        sid, m = state.id, state.m
        factors[sid] = {
            "a": [[1.0 if i == j else 0.0 for j in range(m)] for i in range(m)],
            "b": {a.name: [list(map(float, row)) for row in a.transitions[sid]]
                  for a in scenario.actions if sid in a.transitions},
            "d": record["beliefs"][sid],
            "c": call["preferences"][sid],
        }
        index = record["observations"][sid]
        observations[sid] = (None if index is None
                             else [1.0 if i == index else 0.0 for i in range(m)])
    f, g, pi, _ = oracle.evaluate_model(factors, call["candidates"], observations)
    problems = []
    for label, want, got in (("F", f, call["F"]), ("G", g, call["G"]),
                             ("policy_probs", pi, call["policy_probs"])):
        if len(want) != len(got) or any(abs(a - b) > ORACLE_TOL
                                        for a, b in zip(want, got)):
            problems.append(f"tick {record['tick']}: {label} differs from the oracle")
    return problems


def fingerprint(blobs: list[bytes], results: list) -> dict:
    decisions = [[r.scenario_name, r.outcome, r.ticks, r.started_actions,
                  r.completed_actions, [list(c) for c in r.chains]] for r in results]
    return {
        "episodes": len(results),
        "trace_sha256": hashlib.sha256(b"".join(blobs)).hexdigest(),
        "decision_sha256": hashlib.sha256(
            json.dumps(decisions, separators=(",", ":")).encode()).hexdigest(),
    }


@dataclass
class GateReport:
    attempted: int = 0
    failed: set = field(default_factory=set)
    problems: list = field(default_factory=list)
    fingerprints: dict = field(default_factory=dict)
    oracle_rounds: int = 0
    rounds_seen: int = 0
    replays: int = 0
    trace_bytes: int = 0
    ticks: int = 0

    def fail(self, key, message):
        self.failed.add(key)
        if len(self.problems) < 20:
            self.problems.append(message)


def run_gate(workload, seed: int, oracle, trace_path: Path) -> GateReport:
    """Run the reference block and the seeded run's first block with traces,
    check every episode, replay a few and check a seeded sample of rounds."""
    report = GateReport()
    blobs: dict = {}
    rounds = []
    for label, block_seed in (("reference", REFERENCE_SEED), ("seeded", seed)):
        results, block_blobs = [], []
        for k, ep in enumerate(workload.block(block_seed, 0)):
            key = (label, k)
            report.attempted += 1
            ep = replace(ep, trace_path=str(trace_path))
            try:
                sc, result = play(ep)
            except Exception as exc:  # an exception is a failed episode
                report.fail(key, f"{ep.name}: {type(exc).__name__}: {exc}")
                continue
            for problem in check_result(sc, result, workload.allowed_outcomes):
                report.fail(key, f"{ep.name}: {problem}")
            blob = trace_path.read_bytes()
            blobs[key] = (ep, blob)
            block_blobs.append(blob)
            results.append(result)
            report.trace_bytes += len(blob)
            report.ticks += result.ticks
            rounds.extend((key, sc, record, call) for record in result.records
                          for verdict in record["selector"] for call in verdict["calls"])
        report.fingerprints[label] = fingerprint(block_blobs, results)

    for k in range(REPLAYS):
        key = ("seeded", k)
        if key not in blobs:
            continue
        ep, blob = blobs[key]
        report.replays += 1
        try:
            play(ep)
            same = trace_path.read_bytes() == blob
        except Exception as exc:
            report.fail(key, f"{ep.name}: replay raised {type(exc).__name__}: {exc}")
            continue
        if not same:
            report.fail(key, f"{ep.name}: replay gave a different trace")

    report.rounds_seen = len(rounds)
    rng = np.random.default_rng([seed, 1])
    sample = rng.permutation(len(rounds))[:ORACLE_ROUNDS]
    for i in sorted(sample):
        key, sc, record, call = rounds[i]
        report.oracle_rounds += 1
        for problem in oracle_problems(oracle, sc, record, call):
            report.fail(key, f"{key}: {problem}")
    return report
