"""The paper's Section V-C numeric utility example, reproduced exactly.

"an existing replication group may contain 60 and 40 elements in units A
and B ... Its utility is thus 60 + 40 x k_AB = 96 for A and
40 + 60 x k_BA = 94 for B, in total 190.  We assume all attenuation
factors k are 0.9.  To extend the next 20-element space to a nearby unit
C, we calculate the utility of A as 60 + 40 x k_AB + 20 x k_AC = 114.
Similarly the utility of B is 112.  The utility of the extended group is
thus 226. ... we merge the replication group (A, B) with another
qualified replication group containing unit D with the same 100
elements.  After merging, only one copy of the 100 elements are
distributed to the three units in the new group, e.g., 30, 30, 40 for A,
B, D ... the total utility for this stream decreases from 290 to 280
(93 + 93 + 94)."
"""

import numpy as np
import pytest

from repro.core.configure import CacheConfigurator, Group

A, B, C, D = 0, 1, 2, 3


class FixedAttenuationTopology:
    """Stub topology: attenuation 0.9 between distinct units, 1.0 to self."""

    n_units = 4

    def __init__(self):
        self.latency_ns = np.where(np.eye(self.n_units, dtype=bool), 0.0, 5.0)
        self.attenuation_matrix = np.where(
            np.eye(self.n_units, dtype=bool), 1.0, 0.9
        )

    def attenuation(self, src, dst):
        return 1.0 if src == dst else 0.9

    def nearest_units(self, src):
        order = np.argsort(self.latency_ns[src], kind="stable")
        return [int(u) for u in order]


@pytest.fixture()
def configurator():
    cfg = CacheConfigurator.__new__(CacheConfigurator)
    cfg.topology = FixedAttenuationTopology()
    cfg.n_units = 4
    cfg.rows_per_unit = 1000
    cfg.row_bytes = 1  # so rows == elements, matching the paper's counts
    cfg.affine_rows_cap = None
    cfg._acc_units = {0: [A, B, D]}
    cfg._acc_counts = {}
    cfg._streams = {}
    return cfg


class TestPaperExample:
    def test_base_group_utility_is_190(self, configurator):
        group = Group(0, {A: 60, B: 40})
        # A: 60 + 40*0.9 = 96; B: 40 + 60*0.9 = 94.
        assert configurator._utility(group) == pytest.approx(190.0)

    def test_extended_group_utility_is_226(self, configurator):
        # Unit C holds the extra 20 elements but does not access the
        # stream, so it contributes no utility of its own.
        group = Group(0, {A: 60, B: 40, C: 20})
        # A: 60 + 40*0.9 + 20*0.9 = 114; B: 112; C not an accessor.
        assert configurator._utility(group) == pytest.approx(226.0)

    def test_two_groups_total_290(self, configurator):
        ab = Group(0, {A: 60, B: 40})
        d = Group(0, {D: 100})
        total = configurator._utility(ab) + configurator._utility(d)
        assert total == pytest.approx(290.0)

    def test_merged_group_utility_is_280(self, configurator):
        # The paper's post-merge distribution: 30, 30, 40 on A, B, D.
        merged = Group(0, {A: 30, B: 30, D: 40})
        # A: 30 + (30+40)*0.9 = 93; B: 93; D: 40 + (30+30)*0.9 = 94.
        assert configurator._utility(merged) == pytest.approx(280.0)
