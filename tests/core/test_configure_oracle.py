"""The configurator must replay the reference Algorithm 1 exactly.

``configure_reference.py`` keeps the configurator as it was before it
moved to plain-list unit budgets, a per-group utility memo and a cached
lookahead.  Every optimisation must be invisible in the result: the same
shares and group ids on every unit, the same iteration count, the same
exhausted streams and the same replication degrees, for any topology,
curve shape, access pattern, dead-unit mask, affine-space limit and
write exception.
"""

import copy

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import configure as configure_mod
from repro.core.configure import CacheConfigurator, Group
from repro.core.runtime import NdpExtPolicy
from repro.core.stream import StreamConfig, StreamKind
from repro.sim import SimulationEngine
from repro.sim.params import medium, small, tiny
from repro.sim.topology import Topology
from repro.util.curves import MissCurve
from repro.workloads import TINY, build
from tests.core import configure_reference as ref

TOPOLOGIES = {f.__name__: Topology(f()) for f in (tiny, small, medium)}


def make_pair(topology, rows_per_unit, row_bytes, affine_space_bytes=None):
    kwargs = dict(
        topology=topology,
        rows_per_unit=rows_per_unit,
        row_bytes=row_bytes,
        affine_space_bytes=affine_space_bytes,
    )
    return CacheConfigurator(**kwargs), ref.CacheConfigurator(**kwargs)


def assert_same_result(got, want):
    assert got.iterations == want.iterations
    assert got.exhausted == want.exhausted
    assert got.replication_degree == want.replication_degree
    assert got.sids == want.sids
    np.testing.assert_array_equal(got.shares, want.shares)
    np.testing.assert_array_equal(got.groups, want.groups)


@st.composite
def curve(draw, max_capacity):
    n = draw(st.integers(1, 7))
    caps = sorted(
        draw(
            st.lists(
                st.integers(1, max_capacity), min_size=n, max_size=n, unique=True
            )
        )
    )
    # Small integer miss counts make equal slopes (ties) common.
    misses = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))
    if draw(st.booleans()):
        misses = sorted(misses, reverse=True)
    return MissCurve(np.array(caps), np.array(misses, dtype=np.float64))


@st.composite
def scenario(draw):
    name = draw(st.sampled_from(sorted(TOPOLOGIES)))
    topology = TOPOLOGIES[name]
    n_units = topology.n_units
    row_bytes = draw(st.sampled_from([64, 512, 2048]))
    rows_per_unit = draw(st.integers(1, 24))
    sids = draw(st.lists(st.integers(0, 40), min_size=1, max_size=6, unique=True))
    streams = {
        sid: StreamConfig(
            sid=sid,
            kind=draw(st.sampled_from([StreamKind.AFFINE, StreamKind.INDIRECT])),
            base=sid << 24,
            size=1 << 20,
            elem_size=64,
            read_only=draw(st.booleans()),
        )
        for sid in sids
    }
    # Streams draw from a small pool of curves, so identical curves (and
    # with them cross-stream slope ties) are common.
    max_capacity = 2 * rows_per_unit * n_units * row_bytes
    pool = draw(st.lists(curve(max_capacity), min_size=1, max_size=3))
    curves = {sid: draw(st.sampled_from(pool)) for sid in sids}
    unit = st.integers(0, n_units - 1)
    acc_units = {
        sid: draw(st.lists(unit, max_size=min(n_units, 12))) for sid in sids
    }
    acc_counts = None
    if draw(st.booleans()):
        acc_counts = {
            sid: {u: draw(st.integers(0, 5)) for u in units}
            for sid, units in acc_units.items()
        }
    unit_capacity = None
    if draw(st.booleans()):
        # Zeroed entries are dead units.
        unit_capacity = np.array(
            draw(
                st.lists(
                    st.integers(0, rows_per_unit), min_size=n_units, max_size=n_units
                )
            )
        )
    affine_space = draw(st.one_of(st.none(), st.integers(1, rows_per_unit * row_bytes)))
    write_excepted = draw(st.one_of(st.none(), st.sets(st.sampled_from(sids))))
    return dict(
        topology=topology,
        rows_per_unit=rows_per_unit,
        row_bytes=row_bytes,
        affine_space_bytes=affine_space,
        inputs=dict(
            streams=streams,
            curves=curves,
            acc_units=acc_units,
            acc_counts=acc_counts,
            unit_capacity=unit_capacity,
            write_excepted=write_excepted,
        ),
    )


def merged_twin_groups_case():
    """A merge leaves one of stream 1's groups with the same rows as its
    sibling.  A value-equality ``list.remove`` then drops the wrong group,
    and the detached one takes a row no listed group holds."""
    curve_ = MissCurve(
        np.array([1, 2, 3, 513, 527]), np.array([38, 38, 38, 1, 0], dtype=np.float64)
    )
    streams = {
        sid: StreamConfig(
            sid=sid,
            kind=StreamKind.AFFINE,
            base=sid << 24,
            size=1 << 20,
            elem_size=64,
            read_only=sid in (1, 3),
        )
        for sid in range(6)
    }
    return dict(
        topology=TOPOLOGIES["small"],
        rows_per_unit=2,
        row_bytes=512,
        affine_space_bytes=None,
        inputs=dict(
            streams=streams,
            curves={sid: curve_ for sid in streams},
            acc_units={0: [0], 1: [0, 1, 2], 2: [], 3: [0, 1], 4: [], 5: []},
            acc_counts=None,
            unit_capacity=np.array([2, 2, 2, 2] + [0] * 12),
            write_excepted=None,
        ),
    )

class TestConfiguratorOracle:
    @given(scenario())
    @example(merged_twin_groups_case())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, case):
        new, old = make_pair(
            case["topology"],
            case["rows_per_unit"],
            case["row_bytes"],
            case["affine_space_bytes"],
        )
        assert_same_result(
            new.configure(**case["inputs"]), old.configure(**case["inputs"])
        )

    @given(scenario())
    @settings(max_examples=30, deadline=None)
    def test_reused_configurator_matches_reference(self, case):
        """A configurator runs once per epoch; nothing may leak from one
        run into the next."""
        new, old = make_pair(
            case["topology"],
            case["rows_per_unit"],
            case["row_bytes"],
            case["affine_space_bytes"],
        )
        for _ in range(2):
            assert_same_result(
                new.configure(**case["inputs"]), old.configure(**case["inputs"])
            )

    def test_matches_reference_on_recorded_epochs(self, monkeypatch):
        """Replay every configure call of a real NDPExt run (measured
        curves, real access sets, fault-free and full-size units)."""
        calls = []
        original = configure_mod.CacheConfigurator.configure

        def recording(self, **kwargs):
            # Snapshot both sides: the runtime keeps mutating the mapper's
            # write-exception set and capacity array.
            snapshot = copy.deepcopy(kwargs)
            result = original(self, **kwargs)
            calls.append((self, snapshot, copy.deepcopy(result)))
            return result

        monkeypatch.setattr(configure_mod.CacheConfigurator, "configure", recording)
        for workload in ("pr", "hotspot", "mv"):
            SimulationEngine(tiny()).run(build(workload, TINY), NdpExtPolicy())
        assert len(calls) >= 3
        for configurator, kwargs, result in calls:
            old = ref.CacheConfigurator(
                topology=configurator.topology,
                rows_per_unit=configurator.rows_per_unit,
                row_bytes=configurator.row_bytes,
            )
            old.affine_rows_cap = configurator.affine_rows_cap
            assert_same_result(result, old.configure(**kwargs))


@st.composite
def utility_case(draw):
    topology = TOPOLOGIES[draw(st.sampled_from(sorted(TOPOLOGIES)))]
    unit = st.integers(0, topology.n_units - 1)
    acc = sorted(set(draw(st.lists(unit, max_size=10))))
    rows = draw(st.dictionaries(unit, st.integers(0, 5000), max_size=12))
    row_bytes = draw(st.sampled_from([1, 64, 2048]))
    return topology, acc, rows, row_bytes


class TestUtilityOracle:
    @given(utility_case())
    @settings(max_examples=200, deadline=None)
    def test_utility_is_bit_identical(self, case):
        """Same float, not just close: the summation order is pinned."""
        topology, acc, rows, row_bytes = case
        new, old = make_pair(topology, 8, row_bytes)
        new._acc_units = old._acc_units = {0: acc}
        assert new._utility(Group(0, dict(rows))) == old._utility(
            ref.Group(0, dict(rows))
        )


class TestGroupIdentity:
    def test_equal_rows_are_distinct_groups(self):
        a = Group(0, {1: 5})
        b = Group(0, {1: 5})
        assert a != b
        assert len({a, b}) == 2
        groups = [a, b]
        groups.remove(b)
        assert groups[0] is a

    def test_merge_removes_the_absorbed_group_object(self):
        """Merging into ``a`` drops the group that was merged, not an
        earlier sibling that happens to hold equal rows."""
        topology = TOPOLOGIES["tiny"]
        cfg = CacheConfigurator(topology, rows_per_unit=8, row_bytes=64)
        cfg.configure(
            {0: StreamConfig(0, StreamKind.INDIRECT, 0, 1 << 20, 64)},
            {},
            {0: [0, 1, 2]},
        )
        a, b, c = Group(0, {0: 4}), Group(0, {1: 4}), Group(0, {1: 4})
        cfg._free = [4, 0, 8, 8]
        cfg._groups = {0: [a, b, c]}
        cfg._merge_groups(a, c)
        assert len(cfg._groups[0]) == 2
        assert cfg._groups[0][0] is a
        assert cfg._groups[0][1] is b
