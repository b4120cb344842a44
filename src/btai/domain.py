"""Symbolic world model: states, predicates, action templates, the domain
they form with the planner's compiled model, and the run-time prior
(preference) bookkeeping.

States are small categorical variables; beliefs over them live on the simplex.
Observations, the logical state and predicates name a state's value by its
index: the logical state maps each state to the index of its most likely
value, and a predicate holds when that index is the one it requires.
Preferences come from two sources: nominal entries written by the behavior
tree (value 1) and pushed entries for missing action preconditions (value 2,
higher priority, removed as soon as they hold).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .inference import CompiledModel, ModelError, _intern, evidence, remember, softmax, table
from .inference import logical_state as logical_state   # re-exported for the tick

NOMINAL_PREFERENCE = 1.0
PUSHED_PREFERENCE = 2.0

#: probability of reaching the target value from elsewhere in one action
ACT_PROB = 0.9
#: probability of staying at the target value once reached
STAY_PROB = 0.95


class UnknownStateError(KeyError):
    """A state id was used that is not in the registry."""


class DomainError(ValueError):
    """Ill-formed domain definition."""


@dataclass(frozen=True)
class StateVar:
    id: str
    m: int
    value_labels: tuple[str, ...]

    def __post_init__(self):
        if self.m < 2:
            raise DomainError(f"state {self.id}: need at least 2 values")
        if len(self.value_labels) != self.m or len(set(self.value_labels)) != self.m:
            raise DomainError(f"state {self.id}: need {self.m} unique value labels")


class Predicate(NamedTuple):
    """Run-time check that a state currently has a specific value; equal to
    the ``(state_id, index)`` pair of a postcondition or prior target."""

    state_id: str
    required_index: int


def strict_int(value, what: str) -> int:
    """``value`` when it is an integer (a bool is not), else TypeError."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value


def strict_str(value, what: str) -> str:
    """``value`` when it is a string, else TypeError."""
    if not isinstance(value, str):
        raise TypeError(f"{what} must be a string, got {value!r}")
    return value


def strict_str_list(value, what: str) -> list[str]:
    """``value`` when it is a list of strings, else TypeError."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise TypeError(f"{what} must be a list of strings, got {value!r}")
    return value


def strict_float(value, what: str) -> float:
    """``value`` as a float when it is a finite integer or float (a bool is
    not), else TypeError or ValueError."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError(f"{what} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return value


def strict_bool(value, what: str) -> bool:
    """``value`` when it is a bool, else TypeError."""
    if not isinstance(value, bool):
        raise TypeError(f"{what} must be true or false, got {value!r}")
    return value


def achieve_matrix(m: int, target: int) -> np.ndarray:
    """Transition matrix of an action that drives a state to ``target``.

    From any other value the target is reached with ``ACT_PROB``; once there
    the state is kept with ``STAY_PROB`` (mass leaks uniformly elsewhere).
    For m=2 this reproduces the canonical moveTo matrix [[.95,.9],[.05,.1]].
    """
    b = np.zeros((m, m))
    for j in range(m):
        if j == target:
            b[:, j] = (1.0 - STAY_PROB) / (m - 1)
            b[target, j] = STAY_PROB
        else:
            b[:, j] = 0.0
            b[target, j] = ACT_PROB
            b[j, j] = 1.0 - ACT_PROB
    return b


@dataclass(frozen=True, eq=False)
class ActionTemplate:
    """Named action with preconditions, postconditions and state transitions.

    ``postconditions`` lists (state_id, target index) pairs; ``transitions``
    holds the corresponding transition matrices (states not listed are left
    untouched, i.e. evolve under the identity).
    """

    name: str
    preconditions: tuple[Predicate, ...] = ()
    postconditions: tuple[tuple[str, int], ...] = ()
    transitions: Mapping[str, np.ndarray] = field(default_factory=dict)
    duration_ticks: int = 3
    success_prob: Optional[float] = None   # explicit override, else derived

    def __post_init__(self):
        if self.duration_ticks < 1:
            raise DomainError(f"action {self.name}: duration must be >= 1")
        if self.success_prob is not None and not 0.0 <= self.success_prob <= 1.0:
            raise DomainError(f"action {self.name}: success_prob must be in [0, 1]")

    @property
    def success_probability(self) -> float:
        """Dominant entry of the declared transition columns (1 for no-ops),
        unless an explicit success_prob was given."""
        if self.success_prob is not None:
            return self.success_prob
        probs = [float(np.max(b)) for b in self.transitions.values()]
        return min(probs) if probs else 1.0


class StateRegistry:
    """Ordered, read-only registry of the symbolic states."""

    def __init__(self, states: Iterable[StateVar]):
        self._states: dict[str, StateVar] = {}
        for s in states:
            if s.id in self._states:
                raise DomainError(f"duplicate state id {s.id}")
            self._states[s.id] = s

    def __contains__(self, state_id: str) -> bool:
        return state_id in self._states

    def __iter__(self):
        return iter(self._states.values())

    def __len__(self):
        return len(self._states)

    def get(self, state_id: str) -> StateVar:
        try:
            return self._states[state_id]
        except KeyError:
            raise UnknownStateError(state_id) from None

    def uniform_beliefs(self) -> dict[str, np.ndarray]:
        return {s.id: np.full(s.m, 1.0 / s.m) for s in self}

    def validate_predicate(self, pred: Predicate):
        state = self.get(pred.state_id)
        if not 0 <= pred.required_index < state.m:
            raise DomainError(
                f"predicate on {pred.state_id}: index {pred.required_index} "
                f"out of range for m={state.m}")

    def validate_action(self, action: ActionTemplate):
        """Check ``action`` against the states; every DomainError it raises
        starts with ``action <name>:``.

        Each transition is interned (:func:`btai.inference._intern`), which
        checks that it is square and column-stochastic the first time its
        content is seen in the process; its size and the direction of every
        column toward the postcondition are checked on every call."""
        for pred in action.preconditions:
            try:
                self.validate_predicate(pred)
            except DomainError as exc:
                raise DomainError(f"action {action.name}: {exc}") from exc
        post = dict(action.postconditions)
        for sid, idx in action.postconditions:
            state = self.get(sid)
            if not 0 <= idx < state.m:
                raise DomainError(f"action {action.name}: bad postcondition index on {sid}")
        for sid, b in action.transitions.items():
            state = self.get(sid)
            try:
                mat = _intern(b, f"action {action.name}: transition[{sid}]")[1]
            except ModelError as exc:
                raise DomainError(str(exc)) from exc
            if mat.shape[0] != state.m:
                raise DomainError(f"action {action.name}: transition[{sid}] wrong size")
            if sid not in post:
                raise DomainError(
                    f"action {action.name}: transition on {sid} without a postcondition")
            target = post[sid]
            for j, top in enumerate(np.argmax(mat, axis=0).tolist()):
                if j != target and top != target:
                    raise DomainError(
                        f"action {action.name}: transition[{sid}] column {j} does not "
                        f"move mass toward postcondition index {target}")


class Domain(NamedTuple):
    """A domain's states and actions with what the planner and the tree read
    of them, built by :func:`compile_domain`.  Nothing changes a part after
    it is built: the tuples and the registry are fixed, the map is a mapping
    proxy, and a parsed action's transition matrices are read-only arrays."""

    states: tuple[StateVar, ...]
    actions: tuple[ActionTemplate, ...]
    registry: StateRegistry
    actions_by_name: Mapping[str, ActionTemplate]
    model: CompiledModel


def compile_domain(registry: StateRegistry, actions: Sequence[ActionTemplate]) -> Domain:
    """The domain of ``registry``'s states and ``actions``, which must be
    valid against it (see :meth:`StateRegistry.validate_action`)."""
    return Domain(
        tuple(registry), tuple(actions), registry,
        MappingProxyType({a.name: a for a in actions}),
        CompiledModel(
            {s.id: s.m for s in registry},
            {s.id: {a.name: a.transitions[s.id] for a in actions if s.id in a.transitions}
             for s in registry},
        ),
    )


def update_beliefs(
    beliefs: Mapping[str, np.ndarray],
    observations: Mapping[str, Optional[int]],
    last_action: Optional[ActionTemplate],
    model: CompiledModel,
) -> dict[str, np.ndarray]:
    """One perception step on the scenario's compiled ``model``: propagate each
    belief through the last action's transition (identity where the action
    did not act) and fold in the evidence of each observed value index
    (None, or no entry, for a state without an observation; an index
    outside the state's values raises ModelError)."""
    for sid in observations:
        if sid not in model.states:
            raise UnknownStateError(sid)
    updated: dict[str, np.ndarray] = {}
    for sid, state in model.states.items():
        b = np.asarray(beliefs[sid], dtype=float)
        # declared, not compared with I: an explicit identity B still acts
        acted = last_action is not None and sid in last_action.transitions
        index = observations.get(sid)
        if not acted and index is None:
            # no evidence and an identity transition: the softmax of the
            # clamped log-identity would sharpen the belief, so leave it alone
            updated[sid] = b.copy()
            continue
        _, _, log_b = state.transitions[last_action.name] if acted else state.identity
        v = log_b @ b
        if index is not None:
            v = v + evidence(state.identity[2], index)
        updated[sid] = softmax(v)
    return updated


def holds(pred: Predicate, logical: Mapping[str, int]) -> bool:
    """Whether the logical state gives ``pred``'s state its required value.

    Predicates are validated where they are built: tree conditions and prior
    targets by :func:`btai.bt.build_tree`, pre- and postconditions by
    :meth:`StateRegistry.validate_action`."""
    return logical[pred.state_id] == pred.required_index


# (registry, nominal targets, pushed entries) -> an assembly (see PriorSet)
_ASSEMBLIES: dict = table()


class PriorSet:
    """Run-time preference store.

    Nominal entries are keyed by the behavior-tree node that wrote them and
    are rewritten every tick; pushed entries persist until their predicate
    holds.  When both address the same state the pushed value wins on the
    index it sets.  An assembly, every state's read-only vector for a set of
    nominal and pushed entries, is kept by content in the process-wide
    ``_ASSEMBLIES``.
    """

    def __init__(self):
        self._nominal: dict[object, tuple[tuple[str, int], ...]] = {}
        self._pushed: dict[str, int] = {}

    def set_nominal(self, key, targets: Iterable[tuple[str, int]]):
        self._nominal[key] = tuple(targets)

    def clear_nominal(self):
        self._nominal.clear()

    def push(self, pred: Predicate):
        # at most one pushed entry per state: a newer push replaces the old
        self._pushed[pred.state_id] = pred.required_index

    def remove_held(self, logical: Mapping[str, int]) -> list[Predicate]:
        """Remove the pushed entries that hold in ``logical`` (see
        :func:`holds`) and return them, in the order they were pushed."""
        held = [Predicate(sid, idx) for sid, idx in self._pushed.items()
                if logical[sid] == idx]
        for pred in held:
            del self._pushed[pred.state_id]
        return held

    def assemble(self, state_id: str, m: int) -> np.ndarray:
        """Log-preference vector for one state: nominal 1s, pushed 2s, else 0."""
        c = np.zeros(m)
        for targets in self._nominal.values():
            for sid, idx in targets:
                if sid == state_id:
                    c[idx] = NOMINAL_PREFERENCE
        if state_id in self._pushed:
            c[self._pushed[state_id]] = PUSHED_PREFERENCE
        return c

    def assemble_all(self, registry: StateRegistry) -> Mapping[str, np.ndarray]:
        """Every state's vector, in registry order: one read-only mapping of
        read-only arrays, the same object for every call, in any store, that
        sees the same nominal and pushed entries on ``registry``."""
        key = (registry, tuple(self._nominal.values()), tuple(self._pushed.items()))
        vectors = _ASSEMBLIES.get(key)
        if vectors is None:
            built = {}
            for s in registry:
                c = built[s.id] = self.assemble(s.id, s.m)
                c.flags.writeable = False
            vectors = remember(_ASSEMBLIES, key, MappingProxyType(built))
        return vectors
