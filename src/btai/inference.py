"""Discrete active-inference engine over factorized categorical state models.

Each symbolic state is one independent factor with its own likelihood matrix
``A`` (identity in this package), per-action transition matrices ``B``, prior
belief ``D`` and log-preference vector ``C``.  Policies are one-step action
sequences scored over a two-step horizon: per-policy posterior beliefs are
obtained by iterated forward-backward softmax sweeps, policies are ranked by
variational plus expected free energy, and the next action is read off the
policy posterior.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import add
from typing import Mapping, Optional, Sequence

import numpy as np

EPS = 1e-16
SWEEP_TOL = 1e-6
MAX_SWEEPS = 10
DEFAULT_HORIZON = 2
#: how far a probability may stray from [0, 1], or a distribution's sum from 1
PROB_TOL = 1e-9
IDLE = "Idle"
#: most entries each process-wide table holds: interned matrices, and the
#: evidence entries, terms, G values and rows of the term table together.  A
#: full table is emptied before its next insert.
TABLE_CAP = 4096


class ModelError(ValueError):
    """Inconsistent generative model (shape mismatch, bad distribution)."""


class NoPoliciesError(ModelError):
    """Policy posterior requested over an empty policy set."""


def safe_log(p) -> np.ndarray:
    """Elementwise ln(max(p, 1e-16)); exact wherever p >= 1e-16."""
    return np.log(np.maximum(np.asarray(p, dtype=float), EPS))


def softmax(v) -> np.ndarray:
    """Stable softmax (max-subtracted); invariant to constant shifts."""
    v = np.asarray(v, dtype=float)
    z = np.exp(v - v.max())
    return z / z.sum()


def check_categorical(p, name: str = "distribution") -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ModelError(f"{name} must be a non-empty vector")
    if not np.all(np.isfinite(p)):
        raise ModelError(f"{name} entries must be finite")
    if np.any(p < -PROB_TOL) or np.any(p > 1 + PROB_TOL):
        raise ModelError(f"{name} entries must lie in [0, 1]")
    if abs(p.sum() - 1.0) > PROB_TOL:
        raise ModelError(f"{name} must sum to 1 (got {p.sum():.12f})")
    return p


def check_stochastic_matrix(mat, name: str = "matrix") -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ModelError(f"{name} must be square")
    # all columns at once; check_categorical names the first bad one
    bad = (~np.isfinite(mat).all(axis=0) | (mat < -PROB_TOL).any(axis=0)
           | (mat > 1 + PROB_TOL).any(axis=0)
           | (np.abs(mat.sum(axis=0) - 1.0) > PROB_TOL))
    for j in np.flatnonzero(bad):
        check_categorical(mat[:, j], f"{name} column {j}")
    return mat


@dataclass(frozen=True)
class Factor:
    """Self-contained generative model of a single symbolic state.

    ``transitions`` maps action name to that action's transition matrix for
    this state; actions without an entry leave the state alone (identity).
    Construction validates every part.  A scenario's states reach the
    planner through a :class:`CompiledModel` instead, built from inputs that
    were validated when the scenario was parsed.
    """

    likelihood: np.ndarray                   # A, m x m
    transitions: Mapping[str, np.ndarray]    # action name -> B, m x m
    prior: np.ndarray                        # D, current belief, length m
    preferences: np.ndarray                  # C, log-preferences, length m

    def __post_init__(self):
        a = check_stochastic_matrix(self.likelihood, "likelihood")
        d = check_categorical(self.prior, "prior belief")
        c = np.asarray(self.preferences, dtype=float)
        if not np.all(np.isfinite(c)):
            raise ModelError("preferences must be finite")
        if c.shape != d.shape or a.shape[0] != d.shape[0]:
            raise ModelError("factor dimensions disagree")
        for name, b in self.transitions.items():
            if check_stochastic_matrix(b, f"transition[{name}]").shape != a.shape:
                raise ModelError(f"transition[{name}] has wrong shape")

    @property
    def m(self) -> int:
        return self.prior.shape[0]


def _check_observation(o, m: int):
    if o is None:
        return None
    o = np.asarray(o, dtype=float)
    if o.shape != (m,):
        raise ModelError("observation length does not match state size")
    return o


def update_posterior_states(
    transitions: Sequence[np.ndarray],
    likelihood: np.ndarray,
    prior: np.ndarray,
    observations: Sequence[Optional[np.ndarray]],
) -> list[np.ndarray]:
    """Policy-conditioned posterior beliefs [s_1, s_2] of a one-step policy
    over the two-step horizon :data:`DEFAULT_HORIZON`.

    ``transitions`` holds the policy's one transition matrix B and
    ``observations`` the available one-hot outcomes of the two steps (None,
    or left out, where there is none).  s_1 is the softmax of the log prior,
    the backward message log(B).T @ s_2 and the observation evidence; s_2
    the softmax of the forward message log(B) @ s_1 and its evidence.  Both
    are swept in that order until the maximum absolute change drops below
    1e-6 or 10 iterations elapse.
    """
    if len(transitions) != DEFAULT_HORIZON - 1:
        raise ModelError("need one transition matrix per policy step")
    if len(observations) > DEFAULT_HORIZON:
        raise ModelError("more observations than time steps")
    a = np.asarray(likelihood, dtype=float)
    d = check_categorical(prior, "prior belief")
    m = d.shape[0]
    if a.shape != (m, m):
        raise ModelError("likelihood shape does not match state size")
    o0, o1 = [_check_observation(o, m) for o in observations] + [None] * (
        DEFAULT_HORIZON - len(observations))

    log_a = safe_log(a)
    log_b = safe_log(transitions[0])
    log_d = safe_log(d)

    s0 = s1 = np.full(m, 1.0 / m)
    for _ in range(MAX_SWEEPS):
        v = log_d + log_b.T @ s1
        if o0 is not None:
            v = v + log_a.T @ o0
        new0 = softmax(v)
        v = log_b @ new0
        if o1 is not None:
            v = v + log_a.T @ o1
        new1 = softmax(v)
        delta = max(float(np.max(np.abs(new0 - s0))), float(np.max(np.abs(new1 - s1))))
        s0, s1 = new0, new1
        if delta < SWEEP_TOL:
            break
    return [s0, s1]


def variational_free_energy(
    beliefs: Sequence[np.ndarray],
    transitions: Sequence[np.ndarray],
    likelihood: np.ndarray,
    prior: np.ndarray,
    observations: Sequence[Optional[np.ndarray]],
) -> float:
    """Policy-specific variational free energy accumulated over the horizon.

    Uses the same step conventions as :func:`update_posterior_states`: the
    transition term at tau=1 is the log prior, and the observation term is
    skipped for steps without an outcome.
    """
    horizon = len(beliefs)
    if len(transitions) != horizon - 1:
        raise ModelError("need one transition matrix per policy step")
    log_a = safe_log(likelihood)
    obs = list(observations) + [None] * (horizon - len(observations))
    total = 0.0
    for t in range(horizon):
        s = np.asarray(beliefs[t], dtype=float)
        v = safe_log(s)
        if t == 0:
            v = v - safe_log(prior)
        else:
            v = v - safe_log(transitions[t - 1]) @ beliefs[t - 1]
        if obs[t] is not None:
            v = v - log_a.T @ np.asarray(obs[t], dtype=float)
        total += float(s @ v)
    return total


def expected_free_energy(
    beliefs: Sequence[np.ndarray],
    likelihood: np.ndarray,
    preferences: np.ndarray,
) -> float:
    """Expected free energy over future steps: expected cost plus ambiguity.

    For each tau past the current step, the predicted outcome o = A s is
    scored against the log-preferences (cost) and against the conditional
    outcome entropy encoded in A (ambiguity).
    """
    a = np.asarray(likelihood, dtype=float)
    c = np.asarray(preferences, dtype=float)
    if c.shape[0] != a.shape[0]:
        raise ModelError("preference length does not match state size")
    # ambiguity weights: column sums of A * ln A (zero entries contribute 0)
    ambiguity = np.einsum("ij,ij->j", a, safe_log(a))
    total = 0.0
    for t in range(1, len(beliefs)):
        s = np.asarray(beliefs[t], dtype=float)
        o = a @ s
        total += float(o @ (safe_log(o) - c)) + float(s @ ambiguity)
    return total


def policy_posterior(free_energies, expected_free_energies) -> np.ndarray:
    """Posterior over policies: softmax(-G - F)."""
    f = np.asarray(free_energies, dtype=float)
    g = np.asarray(expected_free_energies, dtype=float)
    if f.shape != g.shape or f.ndim != 1:
        raise ModelError("F and G must be vectors of equal length")
    if f.size == 0:
        raise NoPoliciesError("empty policy set")
    return softmax(-g - f)


def bayesian_model_average(policy_probs, per_policy_beliefs) -> np.ndarray:
    """Policy-probability-weighted average of per-policy beliefs at one step."""
    pi = check_categorical(policy_probs, "policy posterior")
    stacked = np.asarray([np.asarray(b, dtype=float) for b in per_policy_beliefs])
    if stacked.shape[0] != pi.shape[0]:
        raise ModelError("one belief per policy required")
    return pi @ stacked


def select_action(policy_probs, candidates: Sequence[str]) -> str:
    """The candidate whose one-step policy is the most likely; an exact tie
    goes to the candidate listed first."""
    pi = np.asarray(policy_probs, dtype=float)
    if pi.size == 0 or len(candidates) != pi.size:
        raise NoPoliciesError("need one probability per candidate")
    return candidates[int(np.argmax(pi))]


@dataclass
class InferenceOutcome:
    """Everything one action-selection round produced; policy ``p`` is the
    one-step policy of the round's candidate ``p``."""

    policy_probs: np.ndarray
    free_energy: np.ndarray
    expected_free_energy: np.ndarray
    # state id -> [policy][tau] belief vectors (read-only, shared with the
    # process-wide term table)
    per_policy_beliefs: dict[str, Sequence[list[np.ndarray]]]
    chosen_action: str = IDLE

    @cached_property
    def averaged_beliefs(self) -> dict[str, list[np.ndarray]]:
        """State id -> [tau] policy-averaged beliefs, computed on first use."""
        return {
            sid: [bayesian_model_average(self.policy_probs, [b[t] for b in rows])
                  for t in range(len(rows[0]))]
            for sid, rows in self.per_policy_beliefs.items()
        }


def preferences_satisfied(index: int, preferences: np.ndarray) -> bool:
    """True when a state's most likely value ``index`` is already a maximally
    preferred one, i.e. no action can reduce that state's expected cost."""
    return not preferences[index] < preferences.max() - 1e-12


def _read_only(x: np.ndarray) -> np.ndarray:
    x.flags.writeable = False
    return x


# matrix content -> (id, matrix, log-matrix), read-only private copies.  Ids
# come from a counter and are never reused, so an id names one content for
# the life of the process, also after the table was emptied.
_MATRICES: dict[tuple, tuple] = {}
_MATRIX_IDS = itertools.count()


def _intern(mat) -> tuple:
    """The process-wide (id, matrix, log-matrix) entry of ``mat``'s content."""
    mat = np.asarray(mat, dtype=float)
    key = (mat.shape, mat.tobytes())
    entry = _MATRICES.get(key)
    if entry is None:
        if len(_MATRICES) >= TABLE_CAP:
            _MATRICES.clear()
        mat = _read_only(mat.copy())
        entry = _MATRICES[key] = (next(_MATRIX_IDS), mat, _read_only(safe_log(mat)))
    return entry


class _StateModel:
    """Compiled static part of one state factor: the likelihood entry (id,
    A, log-A) and one transition entry (id, B, log-B) per acting action.
    Every action without an entry shares the identity entry (id, I, log-I)."""

    __slots__ = ("key", "likelihood", "log_likelihood", "identity", "transitions",
                 "_dynamics")

    def __init__(self, likelihood: tuple, identity: tuple,
                 transitions: dict[str, tuple]):
        self.key, self.likelihood, self.log_likelihood = likelihood
        self.identity = identity
        self.transitions = transitions
        self._dynamics: Optional[tuple] = None

    def transition(self, action: str) -> tuple:
        return self.transitions.get(action, self.identity)

    @property
    def dynamics(self) -> tuple:
        """(identity id, frozenset of (action name, transition id)): equal
        exactly when two state models move the state alike under every
        action name.  Built on first use, since only rounds read it."""
        if self._dynamics is None:
            self._dynamics = (self.identity[0], frozenset(
                (name, entry[0]) for name, entry in self.transitions.items()))
        return self._dynamics

    def observation(self, index: Optional[int]) -> Optional[np.ndarray]:
        """The one-hot vector of observed value ``index`` (None for no
        observation): a read-only row of the interned identity."""
        return None if index is None else self.identity[1][index]

    def evidence(self, observation: np.ndarray) -> np.ndarray:
        return self.log_likelihood.T @ observation


class _Evidence:
    """Term-table entry for one (likelihood, prior belief, observation): the
    current value, per transition id the evaluated :class:`_Term`, and per
    (state dynamics, candidate tuple, preferences C) one state's row of a
    round.  States with equal likelihoods share an entry, so transitions
    come from the asking state.  ``prior`` and ``observation`` are read-only
    private copies: the entry outlives the round that made it."""

    __slots__ = ("prior", "observation", "current", "terms", "rows")

    def __init__(self, state: _StateModel, prior, observation):
        self.prior = prior
        self.observation = observation
        # most likely value once this tick's observation is folded in
        belief = prior
        if observation is not None:
            belief = softmax(safe_log(prior) + state.evidence(observation))
        self.current = int(np.argmax(belief))
        self.terms: dict[int, _Term] = {}
        self.rows: dict[tuple, tuple] = {}

    def term(self, state: _StateModel, action: str) -> "_Term":
        key, b, _ = state.transition(action)
        term = self.terms.get(key)
        if term is None:
            _TERMS.admit()
            a = state.likelihood
            bs = [b]
            obs = [self.observation, None]
            beliefs = update_posterior_states(bs, a, self.prior, obs)
            for belief in beliefs:
                belief.flags.writeable = False
            f = variational_free_energy(beliefs, bs, a, self.prior, obs)
            term = self.terms[key] = _Term(a, beliefs, f)
        return term

    def row(self, state: _StateModel, actions: tuple[str, ...],
            c: np.ndarray) -> tuple:
        """The state's part of a round over ``actions`` under preferences
        ``c``: (F per candidate, G per candidate, beliefs per candidate,
        whether ``c`` is already satisfied).  Keyed by the state's dynamics
        with the names, not the names alone: two models may give one name
        different dynamics."""
        c_key = c.tobytes()
        key = (state.dynamics, actions, c_key)
        row = self.rows.get(key)
        if row is None:
            terms = [self.term(state, a) for a in actions]
            satisfied = preferences_satisfied(self.current, c)
            _TERMS.admit()
            row = self.rows[key] = (
                tuple(t.free_energy for t in terms),
                tuple(t.expected_free_energy(c, c_key) for t in terms),
                tuple(t.beliefs for t in terms),
                satisfied,
            )
        return row


class _Term:
    """Posterior beliefs and F of one (likelihood, transition, prior belief,
    observation), plus G for each preference vector seen so far."""

    __slots__ = ("likelihood", "beliefs", "free_energy", "expected")

    def __init__(self, likelihood: np.ndarray, beliefs: list[np.ndarray],
                 free_energy: float):
        self.likelihood = likelihood
        self.beliefs = beliefs
        self.free_energy = free_energy
        self.expected: dict[bytes, float] = {}

    def expected_free_energy(self, c: np.ndarray, c_key: bytes) -> float:
        g = self.expected.get(c_key)
        if g is None:
            _TERMS.admit()
            g = self.expected[c_key] = expected_free_energy(self.beliefs, self.likelihood, c)
        return g


class _TermTable:
    """The process-wide memo of evaluated terms: (likelihood id, prior belief
    bytes, observation bytes) -> :class:`_Evidence`.

    ``size`` counts the evidence entries, terms, G values and rows stored
    since the table was last emptied, and the table is emptied before an
    insert that would take ``size`` past :data:`TABLE_CAP`.  A round that
    holds an entry across such a clear may still add terms and rows to it;
    they count too, so ``size`` never understates what the table holds.  The
    table takes no lock: rounds run on one thread."""

    __slots__ = ("entries", "size")

    def __init__(self):
        self.entries: dict[tuple, _Evidence] = {}
        self.size = 0

    def admit(self):
        """Make room for one more stored value."""
        if self.size >= TABLE_CAP:
            self.entries.clear()
            self.size = 0
        self.size += 1

    def evidence(self, state: _StateModel, prior, observation) -> _Evidence:
        prior = np.asarray(prior, dtype=float)
        if observation is not None:
            observation = np.asarray(observation, dtype=float)
        key = (state.key, prior.tobytes(),
               None if observation is None else observation.tobytes())
        entry = self.entries.get(key)
        if entry is None:
            self.admit()
            if observation is not None:
                observation = _read_only(observation.copy())
            entry = self.entries[key] = _Evidence(
                state, _read_only(prior.copy()), observation)
        return entry


_TERMS = _TermTable()


class CompiledModel:
    """Static part of a factorized generative model, prepared once per
    episode.

    Per state it holds the likelihood A, the identity I and, per acting
    action, the transition B, each with its log (see :class:`_StateModel`);
    perception (:func:`btai.domain.update_beliefs`) reads the same entries.
    The entries come from a process-wide intern table keyed by matrix
    content, so equal matrices share one entry, and one id, across states,
    models and episodes.  The inputs are trusted: they were validated where
    they were parsed (scenario files) or constructed (:class:`Factor`).

    Rounds on any model read and fill one process-wide term table.  A state
    enters its terms only through A: posterior beliefs and F depend on (A,
    B, prior belief, observation), and G on those plus the preferences C.
    A state's row of a round (its F, G and beliefs for every candidate, and
    whether C is satisfied) is kept per (A, prior belief, observation, the
    state's B per action name, the candidate names, C).  Every key is
    content: a matrix id, a name, or the bytes of a vector.  So two
    scenarios share a term exactly when its inputs are equal, whatever their
    action names, and share a row when their dynamics are equal too.  Each
    distinct key is evaluated once, by the same math functions an uncached
    round calls, and then read back.  Each table holds at most
    :data:`TABLE_CAP` entries.
    """

    def __init__(self, likelihoods: Mapping[str, np.ndarray],
                 transitions: Mapping[str, Mapping[str, np.ndarray]]):
        self.states: dict[str, _StateModel] = {}
        for sid, a in likelihoods.items():
            a = _intern(a)
            self.states[sid] = _StateModel(
                a, _intern(np.eye(a[1].shape[0])),
                {name: _intern(b) for name, b in transitions.get(sid, {}).items()})

    @classmethod
    def from_factors(cls, factors: Mapping[str, Factor]):
        """Compile self-contained factors; returns (model, beliefs, preferences)."""
        model = cls({sid: f.likelihood for sid, f in factors.items()},
                    {sid: f.transitions for sid, f in factors.items()})
        return (model, {sid: f.prior for sid, f in factors.items()},
                {sid: f.preferences for sid, f in factors.items()})


def run_active_inference(
    model: CompiledModel | Mapping[str, Factor],
    actions: Sequence[str],
    observations: Mapping[str, Optional[np.ndarray]],
    beliefs: Optional[Mapping[str, np.ndarray]] = None,
    preferences: Optional[Mapping[str, np.ndarray]] = None,
) -> InferenceOutcome:
    """One full action-selection round over all state factors.

    ``model`` is either a compiled model, with this round's prior ``beliefs``
    (D) and ``preferences`` (C) per state, or a mapping of self-contained
    :class:`Factor` objects, which is compiled on the spot.

    Builds one one-step policy per candidate action, takes each factor's row
    of per-policy beliefs, F and G from the process-wide term table (summing
    F and G across factors), forms the policy posterior and picks the action.
    When every preference is already satisfied :data:`IDLE` is returned
    outright: the exact expected-free-energy score would otherwise favour
    stochastic self-transitions over doing nothing.
    """
    if not actions:
        raise NoPoliciesError("no candidate actions")
    if not isinstance(model, CompiledModel):
        model, beliefs, preferences = CompiledModel.from_factors(model)
    candidates = tuple(actions)
    f_total = g_total = (0.0,) * len(candidates)
    per_policy: dict[str, Sequence[list[np.ndarray]]] = {}
    satisfied = True

    # state by state in model order, then candidate by candidate: the order
    # of an uncached round's additions, so the sums are bit-identical.  The
    # sums stay lazy until the last state is in.
    for sid, state in model.states.items():
        evidence = _TERMS.evidence(state, beliefs[sid], observations.get(sid))
        f_row, g_row, per_policy[sid], state_satisfied = evidence.row(
            state, candidates, np.asarray(preferences[sid], dtype=float))
        f_total = map(add, f_total, f_row)
        g_total = map(add, g_total, g_row)
        satisfied = satisfied and state_satisfied

    f, g = np.array(list(f_total)), np.array(list(g_total))
    pi = policy_posterior(f, g)
    chosen = IDLE if satisfied else select_action(pi, candidates)
    return InferenceOutcome(
        policy_probs=pi,
        free_energy=f,
        expected_free_energy=g,
        per_policy_beliefs=per_policy,
        chosen_action=chosen,
    )
