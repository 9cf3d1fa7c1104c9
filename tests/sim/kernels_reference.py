"""The pure-Python reference for :mod:`repro.sim.kernels`.

Dicts and loops, slow on purpose: the semantics of every epoch kernel,
with none of the speed.  ``tests/sim/test_kernels.py`` compares each
kernel with it on generated inputs, and ``tests/sim/test_backend_identity.py``
swaps it into :mod:`repro.sim.kernels` for whole simulations and asserts
the reports are unchanged bit for bit.
"""

from __future__ import annotations

import numpy as np


class PythonKernels:
    """Pure-Python reference: the semantics, with none of the speed."""

    name = "python"

    @staticmethod
    def prev_in_group(
        group: np.ndarray, value: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        n = len(group)
        prev_idx = np.full(n, -1, dtype=np.int64)
        prev_val = np.zeros(n, dtype=value.dtype)
        last: dict[int, tuple[int, object]] = {}
        for i in range(n):
            g = int(group[i])
            hit = last.get(g)
            if hit is not None:
                prev_idx[i], prev_val[i] = hit
            last[g] = (i, value[i])
        return prev_idx, prev_val

    @staticmethod
    def direct_mapped_hits(slots: np.ndarray, tags: np.ndarray) -> np.ndarray:
        n = len(slots)
        hits = np.zeros(n, dtype=bool)
        resident: dict[int, int] = {}
        for i in range(n):
            slot = int(slots[i])
            tag = int(tags[i])
            hits[i] = resident.get(slot) == tag
            resident[slot] = tag
        return hits

    row_hit_mask = direct_mapped_hits

    @staticmethod
    def window_hits_grouped(
        keys: np.ndarray,
        groups: np.ndarray,
        window: int,
        order: np.ndarray | None = None,
    ) -> np.ndarray:
        n = len(keys)
        hits = np.zeros(n, dtype=bool)
        if n == 0 or window == 0:
            return hits
        position: dict[int, int] = {}
        last_seen: dict[tuple[int, int], int] = {}
        for i in range(n):
            g = int(groups[i])
            k = int(keys[i])
            pos = position.get(g, 0)
            prev = last_seen.get((g, k))
            hits[i] = prev is not None and pos - prev <= window
            last_seen[(g, k)] = pos
            position[g] = pos + 1
        return hits

    @staticmethod
    def segment_sum(index: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
        out = [0.0] * n
        for i in range(len(index)):
            out[int(index[i])] += float(weights[i])
        return np.array(out, dtype=np.float64)

    @staticmethod
    def segment_count(index: np.ndarray, n: int) -> np.ndarray:
        out = [0] * n
        for i in range(len(index)):
            out[int(index[i])] += 1
        return np.array(out, dtype=np.int64)
