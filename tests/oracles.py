"""Independent reference implementations used only by the tests.

Everything here is written from the definitions with plain Python loops and
the math module, deliberately avoiding the package's own vectorized code, so
that a bug in the package cannot hide by also being present in the oracle.
The derivative oracles live in ``thzloc.oracles``, which imports nothing
from the package, so ``thzloc validate`` can use them too; the ones the
test modules and the benchmark checks use are re-exported here.
"""

from __future__ import annotations

import math

import numpy as np

from thzloc.oracles import (  # noqa: F401  (re-exported)
    C_LIGHT,
    constraint_jacobian_oracle,
    fim_from_jacobian,
    forward_model_oracle,
    mean_signal_oracle,
    pack_state,
    signal_jacobian_fd,
    state_jacobian_fd,
)


# --- rotations ---------------------------------------------------------------


def rot_x_oracle(deg):
    r = math.radians(deg)
    return np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, math.cos(r), -math.sin(r)],
            [0.0, math.sin(r), math.cos(r)],
        ]
    )


def rot_y_oracle(deg):
    r = math.radians(deg)
    return np.array(
        [
            [math.cos(r), 0.0, math.sin(r)],
            [0.0, 1.0, 0.0],
            [-math.sin(r), 0.0, math.cos(r)],
        ]
    )


def rot_z_oracle(deg):
    r = math.radians(deg)
    return np.array(
        [
            [math.cos(r), -math.sin(r), 0.0],
            [math.sin(r), math.cos(r), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )


def euler_matrix_oracle(alpha, beta, gamma):
    """Z-Y-X composition, all angles in degrees."""
    return rot_z_oracle(gamma) @ rot_y_oracle(beta) @ rot_x_oracle(alpha)


# --- visibility --------------------------------------------------------------


def _midpoints(lo, hi, cells):
    step = (hi - lo) / cells
    return [lo + (i + 0.5) * step for i in range(cells)]


def no_los_probability_oracle(bs_positions, x_m, y_m, z_m):
    """Probability that a planar UE has no line-of-sight path to any BS.

    The UE position is uniform over the box x_m * y_m * z_m and its Z-Y-X
    Euler angles (alpha, beta, gamma) are independent and uniform over
    [0, 360) deg.  Every planar subarray shares the boresight
    d = R e_x = (cos beta cos gamma, cos beta sin gamma, -sin beta), which
    alpha does not move, and sits at an offset orthogonal to d.  With the
    BS panels facing down from above the box, the BS end of the path to
    the centre subarray is always open, so a BS at q is hidden exactly when
    d . (q - p) <= 0 (strict half-space visibility), and the pose has no
    LOS when that holds for every BS.

    Midpoint quadrature over a 16 x 16 x 8 position grid and a 128 x 128
    (beta, gamma) grid of directions, accurate to about 5e-4.
    """
    angles = np.radians(_midpoints(0.0, 360.0, 128))
    beta, gamma = np.meshgrid(angles, angles, indexing="ij")
    boresights = np.stack(
        [np.cos(beta) * np.cos(gamma), np.cos(beta) * np.sin(gamma), -np.sin(beta)],
        axis=-1,
    ).reshape(-1, 3)
    cells = (16, 16, 8)
    total = 0.0
    for x in _midpoints(*x_m, cells[0]):
        for y in _midpoints(*y_m, cells[1]):
            for z in _midpoints(*z_m, cells[2]):
                hidden = np.ones(len(boresights), dtype=bool)
                for q in bs_positions:
                    los = np.asarray(q, dtype=float) - (x, y, z)
                    hidden &= boresights @ los <= 0.0
                total += np.count_nonzero(hidden) / len(boresights)
    return total / math.prod(cells)


# --- misc --------------------------------------------------------------------


def spearman_oracle(x, y):
    """Spearman rank correlation without scipy, average ranks for ties."""
    def ranks(values):
        order = np.argsort(values, kind="stable")
        rank = np.empty(len(values))
        sorted_vals = np.asarray(values)[order]
        i = 0
        while i < len(values):
            j = i
            while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
                j += 1
            rank[order[i : j + 1]] = 0.5 * (i + j) + 1.0
            i = j + 1
        return rank

    rx, ry = ranks(x), ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = math.sqrt(float(rx @ rx) * float(ry @ ry))
    if denom == 0.0:
        return 0.0
    return float(rx @ ry) / denom
