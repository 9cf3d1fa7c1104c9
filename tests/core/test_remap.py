"""Tests for the stream remap table (RShares/RRowBase/RGroups)."""

import numpy as np
import pytest

from repro.core.remap import (
    MAX_GROUPS,
    NO_GROUP,
    RemapTable,
    blank_rows,
    group_ids,
    n_groups,
    single_groups,
)
from repro.core.stream import MAX_STREAMS


def rows(n_units=4, **by_sid):
    """Table rows from ``s<sid>=(shares, groups)`` keyword arguments."""
    shares, groups = blank_rows(n_units)
    for key, (sid_shares, sid_groups) in by_sid.items():
        sid = int(key[1:])
        shares[sid] = sid_shares
        groups[sid] = sid_groups
    return shares, groups


# The paper's example row: RShares=(8,6,4,2), RGroups=(0,0,1,1).
PAPER = ((8, 6, 4, 2), (0, 0, 1, 1))


class TestStreamAllocation:
    """One stream's row of the table."""

    def test_paper_example(self):
        """RShares=(8,6,4,2), RGroups=(0,0,1,1): two copies of 14 and 6 rows."""
        table = RemapTable(n_units=4, rows_per_unit=10)
        table.install(*rows(s0=PAPER))
        shares, groups = table.shares[0], table.groups[0]
        assert group_ids(groups) == [0, 1]
        assert n_groups(groups) == 2
        assert shares[groups == 0].sum() == 14
        assert shares[groups == 1].sum() == 6
        assert shares.sum() == 20

    def test_units_of_group(self):
        table = RemapTable(n_units=4, rows_per_unit=10)
        table.install(*rows(s0=PAPER))
        assert list(np.flatnonzero(table.groups[0] == 0)) == [0, 1]
        assert list(np.flatnonzero(table.groups[0] == 1)) == [2, 3]

    def test_rows_without_group_rejected(self):
        table = RemapTable(n_units=4, rows_per_unit=10)
        with pytest.raises(ValueError):
            table.install(*rows(s0=((8, 6, 4, 2), (0, 0, 1, NO_GROUP))))

    def test_group_without_rows_rejected(self):
        table = RemapTable(n_units=4, rows_per_unit=10)
        with pytest.raises(ValueError):
            table.install(*rows(s0=((8, 6, 4, 0), (0, 0, 1, 1))))

    def test_negative_shares_rejected(self):
        table = RemapTable(n_units=4, rows_per_unit=10)
        with pytest.raises(ValueError):
            table.install(*rows(s0=((8, -1, 4, 2), (0, 0, 1, 1))))

    def test_share_width_16_bits(self):
        table = RemapTable(n_units=4, rows_per_unit=1 << 17)
        with pytest.raises(ValueError, match="16-bit"):
            table.install(*rows(s0=((1 << 16, 6, 4, 2), (0, 0, 1, 1))))
        table.install(*rows(s0=(((1 << 16) - 1, 6, 4, 2), (0, 0, 1, 1))))

    def test_empty(self):
        """A row never installed holds nothing: one copy of zero rows."""
        table = RemapTable(n_units=4, rows_per_unit=10)
        assert not table.shares[5].any()
        assert (table.groups[5] == NO_GROUP).all()
        assert n_groups(table.groups[5]) == 0

    def test_single_group(self):
        shares = np.array([4, 0, 4, 0])
        groups = single_groups(shares)
        assert group_ids(groups) == [0]
        assert groups[0] == 0
        assert groups[1] == NO_GROUP

    def test_group_count_limit(self):
        """RGroups is 6 bits wide: at most 64 groups in one row."""
        n_units = MAX_GROUPS + 1
        table = RemapTable(n_units=n_units, rows_per_unit=10)
        ones = np.ones(n_units, dtype=np.int64)
        with pytest.raises(ValueError, match="replication groups"):
            table.install(*rows(n_units, s3=(ones, np.arange(n_units))))
        table.install(*rows(n_units, s3=(ones, np.arange(n_units) % MAX_GROUPS)))
        assert n_groups(table.groups)[3] == MAX_GROUPS


class TestRemapTable:
    def test_capacity_enforced_with_rollback(self):
        table = RemapTable(n_units=4, rows_per_unit=10)
        table.install(*rows(s0=PAPER))
        before = table.shares, table.groups, table.row_base
        with pytest.raises(ValueError, match="overflow unit 0"):
            table.install(*rows(s0=PAPER, s1=((8, 8, 8, 8), (0, 0, 0, 0))))
        assert (table.shares, table.groups, table.row_base) == before

    def test_replace_same_sid(self):
        table = RemapTable(n_units=4, rows_per_unit=10)
        table.install(*rows(s0=PAPER))
        table.install(*rows(s0=((1, 1, 1, 1), (0, 0, 0, 0))))
        assert table.shares[0].sum() == 4

    def test_row_bases_pack_contiguously(self):
        """RRowBase packs each unit's rows in stream-id order."""
        table = RemapTable(n_units=2, rows_per_unit=20)
        table.install(*rows(2, s0=((5, 3), (0, 0)), s2=((2, 4), (0, 0)), s7=((1, 0), (0, -1))))
        assert list(table.row_base[0]) == [0, 0]
        assert list(table.row_base[2]) == [5, 3]
        assert list(table.row_base[7]) == [7, 7]

    def test_set_all_atomic(self):
        """An install that overflows a unit installs nothing."""
        table = RemapTable(n_units=2, rows_per_unit=4)
        with pytest.raises(ValueError):
            table.install(*rows(2, s0=((3, 3), (0, 0)), s1=((3, 3), (0, 0))))
        assert not table.shares.any()

    def test_set_all_rejects_duplicates(self):
        """Rows are indexed by stream id, so a stream has one row: a stack
        of per-stream rows (here stream 0 twice) is not a table."""
        table = RemapTable(n_units=2, rows_per_unit=10)
        with pytest.raises(ValueError, match="shape"):
            table.install(np.array([[1, 1], [1, 1]]), np.array([[0, 0], [0, 0]]))

    def test_rows_free(self):
        table = RemapTable(n_units=4, rows_per_unit=10)
        table.install(*rows(s0=PAPER))
        assert list(table.capacity - table.shares.sum(axis=0)) == [2, 4, 6, 8]

    def test_unit_count_must_match(self):
        table = RemapTable(n_units=8, rows_per_unit=10)
        with pytest.raises(ValueError, match="shape"):
            table.install(*rows(s0=PAPER))  # 4-unit rows
        with pytest.raises(ValueError, match="shape"):
            table.install(*(part[: MAX_STREAMS - 1] for part in blank_rows(8)))

    def test_paper_metadata_size(self):
        """512 streams x 64 units x 40 bits = 160 kB."""
        table = RemapTable(n_units=64, rows_per_unit=1024)
        assert table.metadata_bits() == 512 * 64 * 40
        assert table.metadata_bits() / 8 / 1024 == pytest.approx(160.0)

    def test_get_or_empty(self):
        """Every stream id has a row; one never installed is empty."""
        table = RemapTable(n_units=4, rows_per_unit=10)
        table.install(*rows(s0=PAPER))
        assert table.shares[9].sum() == 0
        assert table.shares.shape == (MAX_STREAMS, 4)

    def test_clear(self):
        """Installing blank rows empties the table."""
        table = RemapTable(n_units=4, rows_per_unit=10)
        table.install(*rows(s0=PAPER))
        table.install(*blank_rows(4))
        assert not table.shares.any()
        assert not table.row_base.any()

    def test_only_install_writes_the_table(self):
        table = RemapTable(n_units=4, rows_per_unit=10)
        shares, groups = rows(s0=PAPER)
        table.install(shares, groups)
        shares[0, 0] = 1  # the caller's arrays are not the table's
        assert table.shares[0, 0] == 8
        with pytest.raises(ValueError):
            table.shares[0, 0] = 1
