"""Toolkit for the generalized multistage d-knapsack problem.

Evaluate and validate multistage packing solutions, materialize the
reduction to a single-shot matroid-constrained packing problem, run the
horizon-cutting approximation scheme, and verify everything against
exhaustive oracles at desk scale.
"""

from .core import (
    MODULAR,
    SUBMODULAR,
    FeasibilityReport,
    GmkInstance,
    Mkc,
    McpStage,
    MultistageSolution,
    ValidationReport,
    check_feasible,
    coupling_terms,
    ensure_valid,
    evaluate_objective,
    evaluate_window,
    profit_cost_ratio,
    ratio_violation,
    validate_instance,
    window_instance,
)
from .cutting import (
    CutPointSet,
    SchemeParams,
    SchemeResult,
    combine_cut_solutions,
    cut_points,
    solve_bounded_horizon,
    solve_general_result,
)
from .errors import (
    BudgetExceededError,
    ContractViolationError,
    GmkError,
    InputError,
    UnsupportedVariantError,
)
from .generators import (
    GenParams,
    MultidimKnapsackInstance,
    gen_from_2kp,
    gen_from_multidim_knapsack,
    gen_random,
)
from .intervals import (
    IntervalElement,
    cut_element,
    cut_loss,
    element_value,
    to_intervals,
)
from .mkcp import (
    PackingResult,
    pack_assignment,
    pack_mkc,
    solve_mkcp_exact,
    solve_mkcp_greedy,
)
from .oracle import StageRows, brute_force_gmk
from .reduction import (
    ReducedElement,
    ReducedInstance,
    ReducedSolution,
    lift_solution,
    reduce_instance,
    verify_reduced_solution,
)
from .submodular import (
    CoverageFunction,
    ModularFunction,
    PropertyReport,
    SetFunctionOracle,
    SumFunction,
    TableFunction,
    check_monotone_submodular,
    extend_function,
)

__version__ = "0.1.0"
