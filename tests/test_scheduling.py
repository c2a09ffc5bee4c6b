import json

import pytest

from railcheck.model import is_markov_chain, mc_row, parse_model
from railcheck.numerics import max_reach
from railcheck.scheduling import SchedulerError, extract_max_scheduler, induced_mc


def test_mdp2_scheduler(mdp2):
    sched = extract_max_scheduler(mdp2, {3})
    assert sched.choice == (1, 0, 0, 0, 0)
    chain = induced_mc(mdp2, sched)
    assert is_markov_chain(chain)
    assert chain.names == mdp2.names
    assert mc_row(chain, 0) == ((2, 1.0),)
    assert abs(max_reach(chain, {3})[0] - 0.8) <= 1e-10


def test_chain_passes_through(m0):
    sched = extract_max_scheduler(m0, {3, 4})
    assert sched.choice == (0, 0, 0, 0, 0)
    assert induced_mc(m0, sched).actions == m0.actions


def test_value_preserving_loop_is_left():
    # Staying put at e0 preserves the optimal value forever without ever
    # reaching the goal; the extracted scheduler must take the exit.
    doc = {
        "states": ["e0", "e1", "goal", "sink"],
        "initial": "e0",
        "labels": {"goal": ["psi"]},
        "transitions": {
            "e0": [{"e0": 1.0}, {"goal": 0.5, "e1": 0.5}],
            "e1": [{"e0": 1.0}],
            "goal": [{"goal": 1.0}],
            "sink": [{"sink": 1.0}],
        },
    }
    m = parse_model(json.dumps(doc))
    sched = extract_max_scheduler(m, {2})
    assert sched.choice == (1, 0, 0, 0)
    value = max_reach(induced_mc(m, sched), {2})[0]
    assert abs(value - 1.0) <= 1e-7


def test_ties_take_lowest_action_index():
    doc = {
        "states": ["t0", "goal", "sink"],
        "initial": "t0",
        "labels": {"goal": ["psi"]},
        "transitions": {
            "t0": [{"goal": 0.5, "sink": 0.5}, {"sink": 0.5, "goal": 0.5}],
            "goal": [{"goal": 1.0}],
            "sink": [{"sink": 1.0}],
        },
    }
    m = parse_model(json.dumps(doc))
    assert extract_max_scheduler(m, {1}).choice[0] == 0


def test_unreachable_target_defaults_to_first_action(mdp2):
    sched = extract_max_scheduler(mdp2, set())
    assert sched.choice == (0, 0, 0, 0, 0)


def test_unattainable_values_raise_scheduler_error(mdp2):
    values = max_reach(mdp2, {3})
    values[:3] += 0.1
    with pytest.raises(SchedulerError):
        extract_max_scheduler(mdp2, {3}, values)
