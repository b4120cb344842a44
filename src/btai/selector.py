"""Adaptive action selection: run active inference under the current
preferences, check the chosen action's preconditions, push missing ones as
high-priority preferences and re-run until an executable action is found
(Running), no action is needed (Success) or the candidates are exhausted
(Failure).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .bt import TickStatus
from .domain import ActionTemplate, Predicate, PriorSet, StateRegistry, holds
from .inference import IDLE, CompiledModel, InferenceOutcome, run_active_inference


@dataclass
class InferenceCall:
    """Inputs and outputs of one inference round, for the trace."""

    preferences: dict[str, np.ndarray]
    candidates: list[str]
    outcome: InferenceOutcome


@dataclass
class SelectorVerdict:
    status: TickStatus
    action: Optional[ActionTemplate] = None
    pushed: list[Predicate] = field(default_factory=list)
    removed_pushed: list[Predicate] = field(default_factory=list)
    chain: list[str] = field(default_factory=list)   # selection order this tick
    calls: list[InferenceCall] = field(default_factory=list)


def compile_model(registry: StateRegistry,
                  actions: Sequence[ActionTemplate]) -> CompiledModel:
    """The planner's model of a domain whose actions were validated against
    ``registry`` (see :meth:`StateRegistry.validate_action`)."""
    return CompiledModel(
        {s.id: s.m for s in registry},
        {s.id: {a.name: a.transitions[s.id] for a in actions if s.id in a.transitions}
         for s in registry},
    )


def _viable(action: ActionTemplate, logical: Mapping[str, int]) -> bool:
    """An action is a candidate unless all its declared postconditions
    already hold: such an action cannot improve anything, yet the entropy
    term of the expected free energy would still reward its noisy
    transitions."""
    if not action.postconditions:
        return True  # Idle and other pure no-ops stay available
    for sid, idx in action.postconditions:
        if logical[sid] != idx:
            return True
    return False


def adaptive_select(
    priors: PriorSet,
    beliefs: Mapping[str, np.ndarray],
    observations: Mapping[str, Optional[int]],
    actions: Sequence[ActionTemplate],
    logical: Mapping[str, int],
    registry: StateRegistry,
    model: CompiledModel,
    execute: Optional[Callable[[ActionTemplate], None]] = None,
) -> SelectorVerdict:
    """One adaptive-selection round for the currently set preferences.

    ``beliefs`` and ``logical`` must already reflect this tick's
    ``observations`` (value indices, None where unobserved); ``model`` is
    the scenario's compiled model of ``registry`` and ``actions`` (see
    :func:`compile_model`); ``execute`` is invoked with the action to start
    or continue.
    """
    verdict = SelectorVerdict(status=TickStatus.RUNNING)

    # drop pushed preferences that now hold
    for pred in priors.pushed_predicates():
        if holds(pred, logical):
            priors.remove_pushed(pred.state_id)
            verdict.removed_pushed.append(pred)

    by_name = {a.name: a for a in actions}
    # the logical state is fixed for the call, and with it the viable set
    viable = [a.name for a in actions if _viable(a, logical)]
    excluded: set[str] = set()

    while True:
        candidates = [name for name in viable if name not in excluded]
        preferences = priors.assemble_all(registry)
        outcome = run_active_inference(model, candidates, observations, beliefs,
                                       preferences)
        verdict.calls.append(InferenceCall(
            preferences=preferences,
            candidates=candidates,
            outcome=outcome,
        ))
        chosen = by_name[outcome.chosen_action]

        if chosen.name == IDLE:
            if verdict.chain:
                verdict.status = TickStatus.FAILURE  # no executable chain
            else:
                verdict.status = TickStatus.SUCCESS  # no action required
            return verdict

        verdict.chain.append(chosen.name)
        unmet = [p for p in chosen.preconditions if not holds(p, logical)]
        if not unmet:
            verdict.status = TickStatus.RUNNING
            verdict.action = chosen
            if execute is not None:
                execute(chosen)
            return verdict

        for pred in unmet:
            priors.push(pred)
            verdict.pushed.append(pred)
        excluded.add(chosen.name)


def prepares(later: ActionTemplate, earlier: ActionTemplate) -> bool:
    """True when the later-selected action prepares the earlier one: its
    postconditions lie within the earlier action's precondition set."""
    doa = {(p.state_id, p.required_index) for p in earlier.preconditions}
    return set(later.postconditions) <= doa


def split_prepares_segments(chain: Sequence[str],
                            by_name: Mapping[str, ActionTemplate]) -> list[list[str]]:
    """Split a raw within-tick selection order into push-built chains.

    Consecutive selections are only chained when the later action supplies a
    precondition of the earlier one; a selection driven by an unrelated
    (e.g. still-pending) preference starts a new segment."""
    segments: list[list[str]] = []
    current: list[str] = []
    for name in chain:
        if current and not prepares(by_name[name], by_name[current[-1]]):
            segments.append(current)
            current = []
        current.append(name)
    if current:
        segments.append(current)
    return segments


def _is_subchain(small: tuple, big: tuple) -> bool:
    if len(small) >= len(big):
        return False
    return any(big[i:i + len(small)] == small for i in range(len(big) - len(small) + 1))


def chain_trace(tick_chains: Sequence[Sequence[str]]) -> list[tuple[str, ...]]:
    """Distinct maximal selection chains of an episode, in first appearance
    order.  Each chain runs from the originally wanted action down to the one
    that was executable, i.e. chain[i+1] was selected to supply a missing
    precondition of chain[i]; chains that re-occur or appear as contiguous
    pieces of a longer chain are dropped."""
    distinct: list[tuple[str, ...]] = []
    for chain in tick_chains:
        chain = tuple(chain)
        if chain and chain not in distinct:
            distinct.append(chain)
    return [c for c in distinct
            if not any(_is_subchain(c, other) for other in distinct)]


def chain_links_ok(chains: Sequence[Sequence[str]],
                   actions_by_name: Mapping[str, ActionTemplate]) -> bool:
    """Check the prepares relation on every consecutive pair of every chain."""
    for chain in chains:
        for earlier, later in zip(chain, chain[1:]):
            if not prepares(actions_by_name[later], actions_by_name[earlier]):
                return False
    return True
