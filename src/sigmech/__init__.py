"""Optimal centralized and decentralized signaling mechanisms for
multi-location service systems, with brute-force oracles and worst-case
bound verification."""

from .bounds import (
    TightnessInstance,
    correlated_upper_bound,
    independence_guarantee,
    make_correlated_instance,
    make_tightness_instance,
    max_join_bound,
    solve_balanced_share,
    union_guarantee_gap,
)
from .centralized import build_centralized_lp, obedient_strategy, solve_centralized
from .decentralized import (
    CONDITION_I,
    CONDITION_II,
    NEITHER,
    IsolatedSolution,
    ObedienceVerdict,
    check_obedience,
    compose_optimal,
    correlated_fallback,
    heterogeneous_compose,
    solve_isolated,
)
from .instances import (
    ParseError,
    format_instance,
    parse_instance,
    random_independent_system,
    random_joint_system,
    read_instance,
    write_instance,
)
from .model import (
    CentralizedMechanism,
    CustomerStrategy,
    DecentralizedMechanism,
    EvaluationReport,
    InputError,
    LocationModel,
    LocationSignaling,
    PreconditionError,
    SolverError,
    SystemModel,
    binary_mechanism,
    joint_prior,
    validate,
)
from .oracle import (
    best_response,
    evaluate,
    full_information,
    grid_search_decentralized,
    no_information,
)

__version__ = "0.1.0"
