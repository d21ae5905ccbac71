"""Fuzzy queuing maximal-benefit facility location.

Locate M single-server facilities on an n-node network to maximize fuzzy
queuing-adjusted benefit. Solvers: genetic algorithm and ant colony
optimization, validated by exact enumeration and discrete-event simulation.
"""

from .aco import ACOConfig, run_aco
from .errors import (
    BudgetExceededError,
    DomainError,
    InfeasibleInstanceError,
    InstanceFormatError,
)
from .evaluation import (
    MaximinContext,
    evaluate,
    fuzzy_capacity_feasible,
    fuzzy_objective,
    make_maximin_eval,
)
from .fuzzy import TriFuzzy
from .ga import GAConfig, run_ga
from .instances import (
    GeneratorParams,
    generate_instance,
    load_instance,
    load_table1,
    save_instance,
)
from .model import (
    Instance,
    Solution,
    crisp_objective_slice,
    join_probability,
    logit_allocation,
    mm1_metrics,
)
from .oracle import enumerate_optimum, exact_bounds, mm1_simulate
from .protocol import estimate_bounds, solve_protocol
from .reports import SolverReport

__version__ = "0.1.0"
