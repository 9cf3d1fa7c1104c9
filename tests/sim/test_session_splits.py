"""Stepping an EngineSession over any split of the epochs equals run().

The batch path sorts the whole trace once for every epoch's
stable-by-core L1 order.  A serving caller instead feeds epochs in
chunks of its own choosing, and either sorts each chunk at once or lets
``step`` sort one epoch at a time.  Every split, with either choice per
chunk, must yield the batch report bit for bit.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.runner import POLICIES
from repro.sim import SimulationEngine, tiny
from repro.workloads import TINY, build
from tests.reports import assert_reports_identical

# Smaller epochs than the preset's so pr has a dozen to split, not three.
CONFIG = replace(tiny(), epoch_accesses=1_000)
SPLIT_POLICIES = ("ndpext", "jigsaw")


@pytest.fixture(scope="module")
def cell():
    workload = build("pr", TINY)
    batch = {
        name: SimulationEngine(CONFIG).run(workload, POLICIES[name]())
        for name in SPLIT_POLICIES
    }
    return workload, batch


@pytest.mark.parametrize("policy", SPLIT_POLICIES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_stepping_over_random_splits_matches_batch_run(cell, policy, data):
    workload, batch = cell
    epochs = workload.trace.epochs(CONFIG.epoch_accesses)
    cuts = data.draw(st.sets(st.integers(1, len(epochs) - 1)), label="cuts")
    bounds = [0, *sorted(cuts), len(epochs)]
    session = SimulationEngine(CONFIG).begin_session(workload, POLICIES[policy]())
    for lo, hi in zip(bounds, bounds[1:]):
        chunk = epochs[lo:hi]
        if data.draw(st.booleans(), label=f"presort epochs[{lo}:{hi}]"):
            orders = SimulationEngine._epoch_core_orders(chunk)
        else:
            orders = [None] * len(chunk)
        for epoch, order in zip(chunk, orders):
            session.step(epoch, order=order)
    assert_reports_identical(batch[policy], session.finish())
