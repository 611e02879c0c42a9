"""Exact envy minimization for house allocation on agent graphs.

The package evaluates envy and happiness of allocations, solves instances
exactly with five interchangeable algorithms, and generates
hardness-reduction instances with witness allocations for testing.
"""

from .errors import (
    BadK,
    BadPartition,
    BadT,
    BudgetExceeded,
    FormatError,
    GeneratorError,
    HaanError,
    InstanceInfeasible,
    InvalidAllocation,
    InvalidInstance,
    NoFeasibleAllocation,
    Not3Regular,
    NotAClique,
    NotACover,
    NotRegular,
    SolveTimeout,
    UnknownAlgorithm,
    WrongSolver,
)
from .model import (
    Allocation,
    AnnotatedInstance,
    EnvyReport,
    Instance,
    SolveResult,
    evaluate,
    evaluate_annotated,
)
from .graphtools import find_min_vertex_cover
from .solvers import (
    ALGORITHMS,
    Objective,
    SolverConfig,
    solve,
    solve_bruteforce,
    solve_d1_matching,
    solve_envy_guess,
    solve_separator,
    solve_vertex_cover_xp,
)

__version__ = "0.1.0"
