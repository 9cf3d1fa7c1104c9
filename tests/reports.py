"""Field-by-field report (and workload) equality shared by the
bit-identity and cache tests."""

from dataclasses import fields

import numpy as np


def assert_reports_identical(a, b, skip=()):
    """Assert two reports (or any dataclasses) equal field by field,
    recursing into nested dataclasses.  Fields named in ``skip`` are not
    compared, at any depth."""
    for f in fields(a):
        if f.name in skip:
            continue
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if hasattr(va, "__dataclass_fields__"):
            assert_reports_identical(va, vb, skip)
        else:
            assert va == vb, f"field {f.name}: {va!r} != {vb!r}"


def assert_workloads_identical(a, b):
    assert a.name == b.name
    assert np.array_equal(a.trace.core, b.trace.core)
    assert np.array_equal(a.trace.addr, b.trace.addr)
    assert np.array_equal(a.trace.write, b.trace.write)
    assert np.array_equal(a.trace.sid, b.trace.sid)
    assert a.compute_cycles_per_access == b.compute_cycles_per_access
    assert a.phases == b.phases
    sa, sb = list(a.streams), list(b.streams)
    assert len(sa) == len(sb)
    for x, y in zip(sa, sb):
        assert (x.sid, x.kind, x.base, x.size, x.elem_size) == (
            y.sid,
            y.kind,
            y.base,
            y.size,
            y.elem_size,
        )
        assert (x.read_only, x.dims, x.order, x.name) == (
            y.read_only,
            y.dims,
            y.order,
            y.name,
        )
