"""Rodinia-derived workloads: backprop, hotspot, lavaMD, lud, pathfinder.

Each generator mirrors the memory-access structure of its Rodinia kernel:

* ``backprop`` — two phases: ``layerforward`` re-reads the (shared,
  read-only) weight matrix everywhere — the paper measures 91% of its
  cache going to replicas — then ``adjust_weights`` *writes* the same
  matrix, triggering NDPExt's write exception and collapsing replication.
* ``hotspot`` — 5-point stencil over a 2-D grid, rows partitioned;
  neighbour rows are shared across adjacent cores' boundaries.
* ``lavaMD`` — particles in 3-D boxes; each box reads its 27-neighbour
  boxes' particles (gathers with box-level locality).
* ``lud`` — LU decomposition: the trailing-submatrix sweep walks the
  row-major matrix column-wise, the showcase for the stream API's
  ``order`` reordering.
* ``pathfinder`` — dynamic programming over grid rows: every core reads
  the whole previous row (hot, read-only per step), writes its slice of
  the next.
"""

from __future__ import annotations

import math

import numpy as np

from repro.workloads.base import (
    WorkloadBuilder,
    WorkloadScale,
    interleave_pairs,
    partition_range,
)
from repro.workloads.trace import Workload


def backprop(scale: WorkloadScale = WorkloadScale()) -> Workload:
    """Two-phase MLP training step over a shared weight matrix."""
    builder = WorkloadBuilder("backprop", scale)
    elem = 4
    hidden = 256
    inputs = max(hidden, scale.footprint_bytes // (hidden * elem))
    weights = builder.add_stream(
        "weights", "affine", inputs * hidden, elem, dims=(hidden, inputs)
    )
    in_acts = builder.add_stream("in_acts", "affine", inputs, elem)
    hid_acts = builder.add_stream("hid_acts", "affine", hidden, elem)
    deltas = builder.add_stream("deltas", "affine", hidden, elem)

    step = 8
    # Phase 1: layerforward — every core sweeps its input slice, reading
    # the full weight row per input (weights are read-only here).
    forward_budget = scale.accesses_per_core // 2
    for core in range(scale.n_cores):
        lo, hi = partition_range(inputs, scale.n_cores, core)
        emitted = 0
        for i in range(lo, hi):
            if emitted >= forward_budget:
                break
            row = np.arange(i * hidden, (i + 1) * hidden, step, dtype=np.int64)
            builder.emit(core, in_acts.addr(np.array([i])))
            builder.emit(
                core,
                interleave_pairs(
                    weights.addr(row),
                    np.broadcast_to(
                        hid_acts.addr(np.arange(0, hidden, step)), row.shape
                    ),
                ),
            )
            emitted += 2 * len(row) + 1
    builder.mark_phase("adjust_weights")
    # Phase 2: adjust_weights — the same matrix is now written.
    for core in range(scale.n_cores):
        lo, hi = partition_range(inputs, scale.n_cores, core)
        for i in range(lo, hi):
            if builder.full() or builder.saturated(core):
                break
            row = np.arange(i * hidden, (i + 1) * hidden, step, dtype=np.int64)
            builder.emit(core, deltas.addr(np.arange(0, hidden, step)))
            builder.emit(core, weights.addr(row), write=True)
    return builder.build(
        compute_cycles_per_access=2.0, description="Backpropagation (Rodinia)"
    )


def hotspot(scale: WorkloadScale = WorkloadScale()) -> Workload:
    """5-point stencil over temperature/power grids, row-partitioned."""
    builder = WorkloadBuilder("hotspot", scale)
    elem = 4
    side = max(64, int(math.isqrt(scale.footprint_bytes // (3 * elem))))
    temp_in = builder.add_stream("temp_in", "affine", side * side, elem, dims=(side, side))
    power = builder.add_stream("power", "affine", side * side, elem, dims=(side, side))
    temp_out = builder.add_stream("temp_out", "affine", side * side, elem, dims=(side, side))

    step = 4  # SIMD: one access per 4 elements
    iterations = 2
    for _ in range(iterations):
        if builder.full():
            break
        for core in range(scale.n_cores):
            lo, hi = partition_range(side, scale.n_cores, core)
            for r in range(lo, hi):
                if builder.full() or builder.saturated(core):
                    break
                cols = np.arange(0, side, step, dtype=np.int64)
                center = r * side + cols
                north = np.maximum(r - 1, 0) * side + cols
                south = np.minimum(r + 1, side - 1) * side + cols
                reads = np.stack(
                    [
                        temp_in.addr(center),
                        temp_in.addr(north),
                        temp_in.addr(south),
                        power.addr(center),
                    ],
                    axis=1,
                ).ravel()
                builder.emit(core, reads)
                builder.emit(core, temp_out.addr(center), write=True)
    return builder.build(
        compute_cycles_per_access=2.5, description="Hotspot stencil (Rodinia)"
    )


def lavamd(scale: WorkloadScale = WorkloadScale()) -> Workload:
    """Particle interactions across neighbouring 3-D boxes."""
    builder = WorkloadBuilder("lavaMD", scale)
    particle_bytes = 16  # position + charge
    particles_per_box = 32
    boxes_side = max(
        2,
        round(
            (scale.footprint_bytes / (particles_per_box * particle_bytes)) ** (1 / 3)
        ),
    )
    n_boxes = boxes_side**3
    n_particles = n_boxes * particles_per_box
    positions = builder.add_stream("positions", "indirect", n_particles, particle_bytes)
    forces = builder.add_stream("forces", "affine", n_particles, particle_bytes)

    def box_particles(b: int) -> np.ndarray:
        return np.arange(
            b * particles_per_box, (b + 1) * particles_per_box, dtype=np.int64
        )

    for core in range(scale.n_cores):
        lo, hi = partition_range(n_boxes, scale.n_cores, core)
        for b in range(lo, hi):
            if builder.full() or builder.saturated(core):
                break
            bz, rem = divmod(b, boxes_side * boxes_side)
            by, bx = divmod(rem, boxes_side)
            builder.emit(core, positions.addr(box_particles(b)))
            for dz in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        nz, ny, nx = bz + dz, by + dy, bx + dx
                        if not (
                            0 <= nz < boxes_side
                            and 0 <= ny < boxes_side
                            and 0 <= nx < boxes_side
                        ):
                            continue
                        nb = (nz * boxes_side + ny) * boxes_side + nx
                        builder.emit(core, positions.addr(box_particles(nb)))
            builder.emit(core, forces.addr(box_particles(b)), write=True)
    return builder.build(
        compute_cycles_per_access=4.0, description="lavaMD n-body (Rodinia)"
    )


def lud(scale: WorkloadScale = WorkloadScale()) -> Workload:
    """LU decomposition: column-major sweeps over a row-major matrix.

    The matrix stream is annotated with ``order`` so the hardware caches
    elements in column-major access order (Table I's reordered affine
    iterator), recovering spatial locality for the column walks.
    """
    builder = WorkloadBuilder("lud", scale)
    elem = 4
    side = max(64, int(math.isqrt(scale.footprint_bytes // elem)))
    # order=2 selects permutation (1,0,2): iterate rows innermost, i.e.
    # column-major access over row-major storage.
    matrix = builder.add_stream(
        "matrix", "affine", side * side, elem, dims=(side, side), order=2
    )
    # The shared diagonal/pivot scratch block every worker re-reads.
    pivots = builder.add_stream("pivots", "affine", side, elem)

    step = 4
    for k in range(0, side - 1):
        if builder.full():
            break
        core = k % scale.n_cores
        rows_below = np.arange(k + 1, side, step, dtype=np.int64)
        # Column k below the diagonal (the strided walk), then row k.
        col_elems = rows_below * side + k
        row_elems = k * side + np.arange(k + 1, side, step, dtype=np.int64)
        builder.emit(core, pivots.addr(np.array([k])))
        builder.emit(core, matrix.addr(col_elems))
        builder.emit(core, matrix.addr(row_elems))
        # Rank-1 update of a band of the trailing submatrix.
        for r in rows_below[:8]:
            upd = r * side + np.arange(k + 1, side, step, dtype=np.int64)
            builder.emit(core, matrix.addr(upd), write=True)
    return builder.build(
        compute_cycles_per_access=2.0, description="LU decomposition (Rodinia)"
    )


def pathfinder(scale: WorkloadScale = WorkloadScale()) -> Workload:
    """Row-by-row dynamic programming: previous row is globally shared."""
    builder = WorkloadBuilder("pathfinder", scale)
    elem = 4
    cols = max(1024, scale.footprint_bytes // (8 * elem))
    rows = 8
    wall = builder.add_stream("wall", "affine", rows * cols, elem, dims=(cols, rows))
    prev_row = builder.add_stream("prev_row", "affine", cols, elem)
    next_row = builder.add_stream("next_row", "affine", cols, elem)

    step = 2
    for t in range(rows):
        if builder.full():
            break
        for core in range(scale.n_cores):
            lo, hi = partition_range(cols, scale.n_cores, core)
            mine = np.arange(lo, hi, step, dtype=np.int64)
            # min(prev[j-1], prev[j], prev[j+1]) + wall[t][j]
            left = np.clip(mine - 1, 0, cols - 1)
            right = np.clip(mine + 1, 0, cols - 1)
            reads = np.stack(
                [
                    prev_row.addr(left),
                    prev_row.addr(mine),
                    prev_row.addr(right),
                    wall.addr(t * cols + mine),
                ],
                axis=1,
            ).ravel()
            builder.emit(core, reads)
            builder.emit(core, next_row.addr(mine), write=True)
    return builder.build(
        compute_cycles_per_access=1.5, description="Pathfinder DP (Rodinia)"
    )
