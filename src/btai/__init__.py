"""Reactive task planning: behavior trees with active-inference leaves."""

from .bt import (
    Action,
    BTNode,
    Condition,
    Fallback,
    Prior,
    ReactiveSequence,
    Sequence,
    TickStatus,
    TreeError,
    build_tree,
    export_graph,
    node_count,
)
from .domain import (
    ActionTemplate,
    DomainError,
    LogicalState,
    Observation,
    Predicate,
    PriorSet,
    StateRegistry,
    StateVar,
    UnknownStateError,
    achieve_matrix,
    holds,
    logical_state,
    update_beliefs,
)
from .episode import EpisodeResult, report, run_episode, write_trace
from .inference import (
    CompiledModel,
    Factor,
    InferenceOutcome,
    ModelError,
    NoPoliciesError,
    bayesian_model_average,
    expected_free_energy,
    policy_posterior,
    run_active_inference,
    safe_log,
    select_action,
    softmax,
    update_posterior_states,
    variational_free_energy,
)
from .scenario import (
    Scenario,
    ScenarioError,
    parse_scenario,
    scenario_from_dict,
    scenario_to_dict,
    serialize_scenario,
    shipped_scenario_path,
)
from .selector import SelectorVerdict, adaptive_select, chain_trace, prepares
from .world import PerturbationEvent, ProtocolError, World

__version__ = "0.1.0"
