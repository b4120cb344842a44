"""Discrete active-inference engine over factorized categorical state models.

Each symbolic state is one independent factor with per-action transition
matrices ``B``, a prior belief ``D`` and a log-preference vector ``C``.
Perception is symbolic: each state is observed one-to-one, so the likelihood
``A`` is the identity and is not an input.  An observed value is a value
index, and its evidence is a row of log-I (see :func:`evidence`).  Policies
are one-step action sequences scored over a two-step horizon: per-policy
posterior beliefs are obtained by iterated forward-backward softmax sweeps,
policies are ranked by variational free energy plus expected cost, and the
next action is read off the policy posterior.
"""

from __future__ import annotations

import itertools
import marshal
import math
import operator
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

EPS = 1e-16
SWEEP_TOL = 1e-6
MAX_SWEEPS = 10
DEFAULT_HORIZON = 2
#: how far a probability may stray from [0, 1], or a distribution's sum from 1
PROB_TOL = 1e-9
IDLE = "Idle"
#: most entries a process-wide table (see :func:`table`) holds: one each for
#: the interned matrices, the memo's terms and rows, the rounds, the tie-rule
#: readings of beliefs, the parsed document sections, the preference
#: assemblies and the trace texts.  A full table is emptied before its next
#: insert.
TABLE_CAP = 4096
_TABLES: list[dict] = []   # every table made by table()


def table() -> dict:
    """A new process-wide table, a plain dict that :func:`clear_tables`
    empties.  Read it with ``dict.get``; store only through :func:`remember`."""
    _TABLES.append({})
    return _TABLES[-1]


def remember(table: dict, key, value):
    """Store ``value`` under ``key`` in ``table`` and return it, first
    emptying a table that holds :data:`TABLE_CAP` entries."""
    if len(table) >= TABLE_CAP:
        table.clear()
    table[key] = value
    return value


def remember_content(table: dict, key: Optional[bytes], value):
    """Store ``value`` through :func:`remember` under ``key``, the bytes
    ``marshal.dumps(content, 2)`` of the content it was made from; return it.
    Marshal tells True, 1 and 1.0 apart, -0.0 from 0.0 and a list from a
    tuple, NaNs with equal bits share a key, and version 2 writes no
    back-references, so the bytes depend on the content alone.  A subclass,
    a foreign type or too deep a nesting has no key (marshal raises
    ValueError; pass None).  A buffer object (bytes, bytearray, a numpy
    array or scalar) marshals as bytes, so two can share a key: nothing is
    stored for content that holds one."""
    if key is not None and not _holds_bytes(marshal.loads(key)):
        remember(table, key, value)
    return value


def _holds_bytes(content) -> bool:
    """Whether unmarshalled ``content`` holds a bytes object anywhere: the
    mark of a buffer object in the content it was marshalled from."""
    stack = [content]
    while stack:
        node = stack.pop()
        if isinstance(node, bytes):
            return True
        if isinstance(node, dict):
            stack.extend(node)
            stack.extend(node.values())
        elif isinstance(node, (list, tuple, set, frozenset)):
            stack.extend(node)
    return False


def clear_tables() -> None:
    """Empty every table: a test or tool that needs a cold process calls this."""
    for t in _TABLES:
        t.clear()


class ModelError(ValueError):
    """Inconsistent generative model (shape mismatch, bad distribution)."""


class NoPoliciesError(ModelError):
    """Policy posterior requested over an empty policy set."""


def safe_log(p) -> np.ndarray:
    """Elementwise ln(max(p, 1e-16)); exact wherever p >= 1e-16."""
    return np.log(np.maximum(np.asarray(p, dtype=float), EPS))


def softmax(v) -> np.ndarray:
    """Stable softmax (max-subtracted); invariant to constant shifts.

    ``v`` must be a non-empty vector, else :class:`ModelError`.  The result
    is a new array, ``exp(v - max(v)) / sum``, bit for bit: the shift is the
    one array allocated, and exp and the division then run in place.  The
    maximum is Python's ``max`` over the entries, exact in any order and
    cheaper than numpy's on the 2-5 entries of a belief."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or not v.size:
        raise ModelError("softmax needs a non-empty vector")
    z = v - max(v.tolist())
    np.exp(z, out=z)
    z /= z.sum()
    return z


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
    Construction validates every part; each B is checked by :func:`_intern`,
    so a content already interned is not checked again.  Factors reach the
    planner compiled, through :meth:`CompiledModel.from_factors`; a
    scenario's states through :func:`btai.domain.compile_domain`.
    """

    transitions: Mapping[str, np.ndarray]    # action name -> B, m x m
    prior: np.ndarray                        # D, current belief, length m
    preferences: np.ndarray                  # C, log-preferences, length m

    def __post_init__(self):
        d = check_categorical(self.prior, "prior belief")
        c = np.asarray(self.preferences, dtype=float)
        if not np.all(np.isfinite(c)):
            raise ModelError("preferences must be finite")
        if c.shape != d.shape:
            raise ModelError("factor dimensions disagree")
        for name, b in self.transitions.items():
            if _intern(b, f"transition[{name}]")[1].shape != (d.size, d.size):
                raise ModelError(f"transition[{name}] has wrong shape")

    @property
    def m(self) -> int:
        return len(self.prior)


def evidence(log_identity: np.ndarray, index) -> np.ndarray:
    """Evidence of observed value ``index`` of a state whose interned log-I
    is ``log_identity``: row ``index`` of log-I, 0 at the index and
    ln(1e-16) elsewhere.  The likelihood A is the identity, and this row is
    log-A.T applied to the observed outcome bit for bit, as every other
    product in it is a signed zero.  A bool reads as its int; a non-integer
    raises TypeError, an index outside [0, m) ModelError."""
    k = operator.index(index)
    if not 0 <= k < log_identity.shape[0]:
        raise ModelError(f"observed value index {k} out of range for "
                         f"m={log_identity.shape[0]}")
    return log_identity[k]


def update_posterior_states(
    transitions: Sequence[np.ndarray],
    prior: np.ndarray,
    observations: Sequence[Optional[int]],
) -> list[np.ndarray]:
    """Policy-conditioned posterior beliefs [s_1, s_2] of a one-step policy
    over the two-step horizon :data:`DEFAULT_HORIZON`.

    ``transitions`` holds the policy's one transition matrix B and
    ``observations`` the observed value index of each of the two steps
    (None, or left out, where there is none).  s_1 is the softmax of the log
    prior, the backward message log(B).T @ s_2 and the observation's
    :func:`evidence`; s_2 the softmax of the forward message log(B) @ s_1 and
    its evidence.  Both are swept in that order until the maximum absolute
    change drops below 1e-6 or 10 iterations elapse.
    """
    if len(transitions) != DEFAULT_HORIZON - 1:
        raise ModelError("need one transition matrix per policy step")
    if len(observations) > DEFAULT_HORIZON:
        raise ModelError("more observations than time steps")
    d = check_categorical(prior, "prior belief")
    m = d.shape[0]
    log_i = _intern(np.eye(m))[2]
    e0, e1 = [None if o is None else evidence(log_i, o)
              for o in observations] + [None] * (DEFAULT_HORIZON - len(observations))

    log_b = safe_log(transitions[0])
    log_d = safe_log(d)

    s0 = s1 = np.full(m, 1.0 / m)
    for _ in range(MAX_SWEEPS):
        v = log_d + log_b.T @ s1
        if e0 is not None:
            v = v + e0
        new0 = softmax(v)
        v = log_b @ new0
        if e1 is not None:
            v = v + e1
        new1 = softmax(v)
        delta = max(float(np.max(np.abs(new0 - s0))), float(np.max(np.abs(new1 - s1))))
        s0, s1 = new0, new1
        if delta < SWEEP_TOL:
            break
    return [s0, s1]


def variational_free_energy(
    beliefs: Sequence[np.ndarray],
    transitions: Sequence[np.ndarray],
    prior: np.ndarray,
    observations: Sequence[Optional[int]],
) -> float:
    """Policy-specific variational free energy accumulated over the horizon.

    Uses the same step conventions as :func:`update_posterior_states`: the
    transition term at tau=1 is the log prior, and the observation's
    :func:`evidence` is skipped for steps without an observed value index.
    """
    horizon = len(beliefs)
    if len(transitions) != horizon - 1:
        raise ModelError("need one transition matrix per policy step")
    log_i = _intern(np.eye(len(prior)))[2]
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
            v = v - evidence(log_i, obs[t])
        total += float(s @ v)
    return total


def expected_free_energy(
    beliefs: Sequence[np.ndarray],
    preferences: np.ndarray,
) -> float:
    """Expected free energy over future steps: the expected cost
    s . (ln s - C) of each tau past the current step.  With A the identity
    the predicted outcome is the belief s itself, and the ambiguity term is
    zero."""
    c = np.asarray(preferences, dtype=float)
    total = 0.0
    for t in range(1, len(beliefs)):
        s = np.asarray(beliefs[t], dtype=float)
        if s.shape != c.shape:
            raise ModelError("preference length does not match state size")
        total += float(s @ (safe_log(s) - c))
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


def select_action(policy_probs, candidates: Sequence):
    """The candidate whose one-step policy is the most likely; an exact tie
    goes to the candidate listed first.  Rounds pass ``range(n)`` to get
    the index."""
    pi = np.asarray(policy_probs, dtype=float)
    if pi.size == 0 or len(candidates) != pi.size:
        raise NoPoliciesError("need one probability per candidate")
    return candidates[int(np.argmax(pi))]


@dataclass(slots=True)
class InferenceOutcome:
    """One action-selection round: the ``candidates`` and ``preferences``
    (state id -> C) it was scored under, and what it produced.  Policy ``p``
    is candidate ``p``'s one-step policy.  The three vectors are read-only
    views of one buffer shared by all rounds whose rows have the same
    contents (:data:`_ROUNDS`).
    ``preferences`` is the mapping the caller passed, not a copy: in an
    episode it is the read-only assembly that
    :meth:`btai.domain.PriorSet.assemble_all` shares between all rounds under
    the same preferences."""

    candidates: tuple[str, ...]
    preferences: Mapping[str, np.ndarray]
    policy_probs: np.ndarray
    free_energy: np.ndarray
    expected_free_energy: np.ndarray
    # state id -> [policy][tau] belief vectors (read-only, shared with the
    # process-wide memo)
    per_policy_beliefs: dict[str, Sequence[list[np.ndarray]]]
    chosen_action: str = IDLE

    @property
    def averaged_beliefs(self) -> dict[str, list[np.ndarray]]:
        """State id -> [tau] policy-averaged beliefs, computed on each read."""
        return {
            sid: [bayesian_model_average(self.policy_probs, [b[t] for b in rows])
                  for t in range(len(rows[0]))]
            for sid, rows in self.per_policy_beliefs.items()
        }


# The process-wide table of tie-rule readings: a belief's content, (shape,
# float64 bytes) as in _MATRICES, -> the index logical_state reads it as.
# Beliefs recur: the shipped workloads hold 18 to 29 distinct ones, so the
# rule runs once per content.  A belief the rule rejects stores nothing.
_LOGICAL: dict[tuple, int] = table()


def logical_state(beliefs: Mapping[str, np.ndarray]) -> dict[str, int]:
    """Index of each belief's most likely value, by the one tie rule: entries
    within 1e-9 of the maximum count as tied, so floating-point residue of
    the clamped-log updates does not decide a tie, and a tie resolves to the
    lowest index.  Each belief must already hold its state's observation, as
    :func:`btai.domain.update_beliefs` leaves it.  The rule runs once per
    belief content (see :data:`_LOGICAL`).  A belief with a NaN or infinite
    entry raises :class:`ModelError` naming its state."""
    out: dict[str, int] = {}
    for sid, b in beliefs.items():
        b = np.asarray(b, dtype=float)
        key = (b.shape, b.tobytes())
        index = _LOGICAL.get(key)
        if index is None:
            values = b.tolist()
            if not all(map(math.isfinite, values)):
                raise ModelError(f"belief of state {sid!r} must be finite")
            top = max(values)
            index = remember(_LOGICAL, key, [v >= top - 1e-9 for v in values].index(True))
        out[sid] = index
    return out


def preferences_satisfied(index: int, preferences: np.ndarray) -> bool:
    """True when the value ``index`` a state is read as is a maximally
    preferred one, i.e. no action can reduce that state's expected cost."""
    return not preferences[index] < preferences.max() - 1e-12


def _read_only(x: np.ndarray) -> np.ndarray:
    x.flags.writeable = False
    return x


# matrix content -> (id, matrix, log-matrix), read-only private copies of
# contents that passed check_stochastic_matrix.  Ids come from a counter and
# are never reused, so an id names one content for the life of the process,
# also after the table was emptied.
_MATRICES: dict[tuple, tuple] = table()
_MATRIX_IDS = itertools.count()


def _intern(mat, name: str = "matrix") -> tuple:
    """The process-wide (id, matrix, log-matrix) entry of ``mat``'s content.

    This is where a matrix is checked: a content not in the table is run
    through :func:`check_stochastic_matrix` under ``name`` before it is
    stored, so the table holds only square column-stochastic matrices and a
    content is checked once per process (again after :func:`clear_tables`).
    A content that fails raises :class:`ModelError` and is not stored."""
    mat = np.asarray(mat, dtype=float)
    key = (mat.shape, mat.tobytes())
    entry = _MATRICES.get(key)
    if entry is None:
        mat = _read_only(check_stochastic_matrix(mat, name).copy())
        entry = remember(_MATRICES, key, (next(_MATRIX_IDS), mat, _read_only(safe_log(mat))))
    return entry


class _StateModel:
    """Compiled static part of one state factor: the identity entry (id, I,
    log-I) and one transition entry (id, B, log-B) per acting action.  Every
    action without an entry shares the identity entry."""

    __slots__ = ("identity", "transitions")

    def __init__(self, identity: tuple, transitions: dict[str, tuple]):
        self.identity = identity
        self.transitions = transitions

    def transition(self, action: str) -> tuple:
        return self.transitions.get(action, self.identity)


# The process-wide memo of rounds, shared by every model, episode and
# scenario.  F and G are sums over independent state factors, so it keeps
# each state's part of a round and the sweeps that part is made of.  Every
# key is content: a matrix id from _MATRICES, a vector's bytes or an int.
# Two kinds of key, told apart by their length:
#   term, 3 slots: (B id, bytes of D, observed value index or None)
#       -> (posterior beliefs [s_1, s_2], read-only; F)
#   row, 4 slots: (bytes of D, observed value index or None, the
#       candidates' transition ids on the state, bytes of C)
#       -> (content: the float64 bytes of F per candidate | G per
#           candidate | 1.0 if C is already satisfied else 0.0,
#           beliefs per candidate)
# D is the prior belief and C the preferences.  A B id fixes the state's
# size m, and with it I.  G has no term of its own: a row miss evaluates
# it, and warm rounds almost never miss a row.  Values are sweep outputs,
# floats and bytes, never a caller's array.  The memo takes no lock:
# rounds run on one thread.
_MEMO: dict[tuple, tuple] = table()
# The process-wide table of whole rounds.  A round is a function of its
# rows' contents, so it is keyed by (number of candidates, then each row's
# content in model order; the count tells apart rounds of a model without
# states) -> the float64 bytes of F | G | policy posterior | the index of
# the chosen candidate, or -1 for Idle.  Row keys hold the exact bytes of
# D, and beliefs that differ only below the 1e-16 log clamp give rows under
# different keys with equal contents, so their rounds share one entry.  A
# key holds the rows' own bytes objects, each of which caches its hash, and
# still names its round after the memo is emptied.  One bytes object as the
# value, not an array and an int in a tuple: a full table holds 4096
# entries, and this saves about 130 B on each.  An index, not a name: rows
# are keyed by transitions, so rounds over different names share an entry.
_ROUNDS: dict[tuple, bytes] = table()


def _row(state: _StateModel, actions: Sequence[str], prior: np.ndarray,
         c: np.ndarray, row_key: tuple) -> tuple:
    """One state's part of a round over ``actions`` under preferences ``c``,
    built from the memo's terms, with each G evaluated from its term's
    beliefs, and remembered under ``row_key`` (see :data:`_MEMO`), which
    holds the observed value index.  The state is read as that index, else
    as the logical state of ``prior``."""
    d_key, index = row_key[:2]
    obs = [index, None]
    f_row, g_row, per_policy = [], [], []
    for action in actions:
        b_id, b, _ = state.transition(action)
        key = (b_id, d_key, index)
        term = _MEMO.get(key)
        if term is None:
            # by keyword: perfbench's sweep recorder reads prior and
            # observations by name unless they sit at their old positions
            beliefs = update_posterior_states([b], prior=prior, observations=obs)
            for belief in beliefs:
                belief.flags.writeable = False
            term = remember(_MEMO, key, (beliefs, variational_free_energy(
                beliefs, [b], prior, obs)))
        per_policy.append(term[0])
        f_row.append(term[1])
        g_row.append(expected_free_energy(term[0], c))
    if index is None:
        index = logical_state({None: prior})[None]
    content = np.array(f_row + g_row + [preferences_satisfied(index, c)], dtype=float)
    return remember(_MEMO, row_key, (content.tobytes(), tuple(per_policy)))


def _round(round_key: tuple) -> bytes:
    """The :data:`_ROUNDS` entry of ``round_key``: the number of candidates
    n, then each state's row content in model order.  The contents are
    added in model order from +0.0, so each element gets an uncached
    round's additions and the sums are bit-identical.  The last slot counts
    the satisfied rows: a round is Idle when it equals the number of rows."""
    n = round_key[0]
    total = sum(map(np.frombuffer, round_key[1:]), np.zeros(2 * n + 1))
    f, g = total[:n], total[n:2 * n]
    pi = policy_posterior(f, g)
    chosen = -1 if total[2 * n] == len(round_key) - 1 else select_action(pi, range(n))
    return remember(_ROUNDS, round_key, np.concatenate((f, g, pi, [chosen])).tobytes())


class CompiledModel:
    """Static part of a factorized generative model, prepared once per
    content of a document's states and actions sections and read by every
    scenario parsed from it and by all their episodes (see
    :data:`btai.scenario._DOMAINS`).

    ``sizes`` maps each state to its number of values m, and ``transitions``
    each state to the transition matrix B of every action that acts on it.
    Per state the model holds the identity I and each B, with their logs
    (see :class:`_StateModel`); perception (:func:`btai.domain.update_beliefs`)
    reads the same entries.  The entries come from a process-wide intern
    table keyed by matrix content, so equal matrices share one entry, and
    one id, across states, models and episodes.  Interning checks each
    content the first time it is seen, so a matrix validated at parse time
    (scenario files) or construction (:class:`Factor`) is not checked again,
    and one that is not stochastic raises :class:`ModelError`.  Rounds on
    any model read and fill one memo (see the comment above :data:`_MEMO`).
    """

    def __init__(self, sizes: Mapping[str, int],
                 transitions: Mapping[str, Mapping[str, np.ndarray]]):
        self.states: dict[str, _StateModel] = {
            sid: _StateModel(_intern(np.eye(m)), {
                name: _intern(b) for name, b in transitions.get(sid, {}).items()})
            for sid, m in sizes.items()}
        self._ids: dict[tuple, tuple] = {}

    def transition_ids(self, candidates: tuple) -> tuple:
        """Per state in model order, the tuple of ``candidates``' transition
        ids on it (a row key's third slot), built once per candidates tuple
        for the life of the model: as long as the table entry of the parsed
        sections it was compiled from, which outlives any one parse."""
        ids = self._ids.get(candidates)
        if ids is None:
            ids = self._ids[candidates] = tuple(
                tuple([state.transition(a)[0] for a in candidates])
                for state in self.states.values())
        return ids

    @classmethod
    def from_factors(cls, factors: Mapping[str, Factor]):
        """Compile self-contained factors; returns (model, beliefs, preferences)."""
        model = cls({sid: f.m for sid, f in factors.items()},
                    {sid: f.transitions for sid, f in factors.items()})
        return (model, {sid: f.prior for sid, f in factors.items()},
                {sid: f.preferences for sid, f in factors.items()})


def run_active_inference(
    model: CompiledModel,
    actions: Sequence[str],
    observations: Mapping[str, Optional[int]],
    beliefs: Mapping[str, np.ndarray],
    preferences: Mapping[str, np.ndarray],
) -> InferenceOutcome:
    """One full action-selection round over all state factors of ``model``
    under this round's prior ``beliefs`` (D) and ``preferences`` (C) per
    state.  ``observations`` maps a state to its observed value index (None,
    or no entry, where there is none), which each belief must already hold,
    as :func:`btai.domain.update_beliefs` leaves it.

    Builds one one-step policy per candidate action, takes each factor's row
    of per-policy beliefs, F and G from the process-wide memo, and then the
    round's F and G (summed across factors), policy posterior and chosen
    action from the table of rounds, which is keyed by the rows.
    When every preference is already satisfied :data:`IDLE` is returned
    outright: the exact expected-free-energy score would otherwise favour
    stochastic self-transitions over doing nothing.
    """
    if not actions:
        raise NoPoliciesError("no candidate actions")
    candidates = tuple(actions)
    n = len(candidates)
    per_policy: dict[str, Sequence[list[np.ndarray]]] = {}
    round_key = [n]
    for (sid, state), ids in zip(model.states.items(), model.transition_ids(candidates)):
        prior = np.asarray(beliefs[sid], dtype=float)
        index = observations.get(sid)
        if index is not None:
            # 1.0 == 1 and both hash alike: only an int may key the memo.
            # An index out of range keys no entry: evidence() raises first.
            index = operator.index(index)
        c = np.asarray(preferences[sid], dtype=float)
        key = (prior.tobytes(), index, ids, c.tobytes())
        row = _MEMO.get(key)
        if row is None:
            row = _row(state, candidates, prior, c, key)
        round_key.append(row[0])
        per_policy[sid] = row[1]

    round_key = tuple(round_key)
    packed = _ROUNDS.get(round_key)
    if packed is None:
        packed = _round(round_key)
    vector = np.frombuffer(packed)   # read-only: it views the bytes
    chosen = int(vector[3 * n])
    # positional, in field order: keywords cost a warm round about 0.3 µs
    return InferenceOutcome(candidates, preferences, vector[2 * n:3 * n], vector[:n],
                            vector[n:2 * n], per_policy,
                            IDLE if chosen < 0 else candidates[chosen])
