"""Reachability bound checking with grouped counterexamples.

Checks properties of the form ``P<=p [ F psi ]`` (or strict ``<``) on
explicit-state Markov chains and MDPs. On violation it reports a smallest
set of witnesses: torrents, groups of paths that agree outside strongly
connected components, each with its probability mass and a
highest-probability representant path.
"""

__version__ = "0.1.0"

from .model import (
    Model,
    ModelError,
    cylinder_prob,
    is_markov_chain,
    parse_model,
    successors,
)
from .props import (
    And,
    Atom,
    Not,
    Or,
    PropertyError,
    PropertySpec,
    format_property,
    parse_property,
    sat_states,
)
from .numerics import (
    ConvergenceError,
    SingularMatrixError,
    max_reach,
    prob0_states,
    solve_linear,
)
from .scheduling import Scheduler, SchedulerError, extract_max_scheduler, induced_mc
from .transform import (
    AcyclicReduction,
    SccInfo,
    acyclic_reduce,
    make_absorbing,
    scc_decompose,
    scc_io,
    scc_reach,
)
from .rails import Witness, behaves_as, generator_member, rail_mass, representant
from .search import (
    SearchLimitError,
    TorrentCounterexample,
    most_indicative,
    ranked_rails,
)
from .oracle import (
    OracleLimitError,
    SampleRun,
    brute_force_max_reach,
    enumerate_freach,
    monte_carlo_classify,
)
from .cli import main, render_report, run_check
