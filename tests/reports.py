"""Field-by-field report equality shared by the bit-identity tests."""

from dataclasses import fields


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
