"""Adaptive action selection: run active inference under the current
preferences, check the chosen action's preconditions, push missing ones as
high-priority preferences and re-run until an executable action is found
(Running), no action is needed (Success) or the candidates are exhausted
(Failure).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .bt import TickStatus
from .domain import ActionTemplate, Domain, Predicate, PriorSet, holds
from .inference import IDLE, InferenceOutcome, run_active_inference


@dataclass(slots=True)
class SelectorVerdict:
    status: TickStatus
    action: Optional[ActionTemplate] = None
    pushed: list[Predicate] = field(default_factory=list)
    removed_pushed: list[Predicate] = field(default_factory=list)
    chain: list[str] = field(default_factory=list)   # selection order this tick
    calls: list[InferenceOutcome] = field(default_factory=list)


def _viable(actions: Sequence[ActionTemplate], logical: Mapping[str, int]) -> list[str]:
    """The names of the candidates among ``actions``, in their order.  An
    action is a candidate unless all its declared postconditions already
    hold: such an action cannot improve anything, yet the entropy term of
    the expected free energy would still reward its noisy transitions.
    Idle and other pure no-ops stay available.  Each template reads its
    postconditions in one step (:attr:`ActionTemplate.post_read`), so the
    list makes no Python call per action."""
    return [a.name for a in actions
            if a.post_read is None or a.post_read(logical) != a.post_held]


def adaptive_select(
    priors: PriorSet,
    beliefs: Mapping[str, np.ndarray],
    observations: Mapping[str, Optional[int]],
    logical: Mapping[str, int],
    domain: Domain,
) -> SelectorVerdict:
    """One adaptive-selection round for the currently set preferences.

    ``beliefs`` and ``logical`` must already reflect this tick's
    ``observations`` (value indices, None where unobserved); the candidates,
    the preferences' states and the planner's model come from ``domain``.
    Each inference round's outcome goes to ``calls``.  A Running verdict
    names the action to start or continue; the caller drives it.
    """
    # pushed preferences that now hold are dropped
    verdict = SelectorVerdict(TickStatus.RUNNING, removed_pushed=priors.remove_held(logical))

    # the logical state is fixed for the call, and with it the viable set;
    # a chosen action whose preconditions are unmet leaves this call's list
    viable = _viable(domain.actions, logical)

    while True:
        outcome = run_active_inference(domain.model, viable, observations, beliefs,
                                       priors.assemble_all(domain.registry))
        verdict.calls.append(outcome)
        chosen = domain.actions_by_name[outcome.chosen_action]

        if chosen.name == IDLE:
            if verdict.chain:
                verdict.status = TickStatus.FAILURE  # no executable chain
            else:
                verdict.status = TickStatus.SUCCESS  # no action required
            return verdict

        verdict.chain.append(chosen.name)
        unmet = [p for p in chosen.preconditions if not holds(p, logical)]
        if not unmet:
            verdict.action = chosen
            return verdict

        for pred in unmet:
            priors.push(pred)
            verdict.pushed.append(pred)
        viable.remove(chosen.name)


def prepares(later: ActionTemplate, earlier: ActionTemplate) -> bool:
    """True when the later-selected action prepares the earlier one: its
    postconditions lie within the earlier action's precondition set."""
    return set(later.postconditions) <= set(earlier.preconditions)


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
