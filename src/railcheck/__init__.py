"""Reachability bound checking with grouped counterexamples.

Checks properties of the form ``P<=p [ F psi ]`` (or strict ``<``) on
explicit-state Markov chains and MDPs. On violation it reports a smallest
set of witnesses: torrents, groups of paths that agree outside strongly
connected components, each with its probability mass and a
highest-probability representant path.
"""

__version__ = "0.1.0"

# The names README.md documents; everything else is imported from its module.
from .model import parse_model
from .props import parse_property, sat_states
from .transform import acyclic_reduce, make_absorbing
from .rails import behaves_as, generator_member, representant
from .search import most_indicative, ranked_rails
