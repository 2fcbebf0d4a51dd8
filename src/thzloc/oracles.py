"""Independent references for the derivatives the bounds rest on.

Written from the definitions with plain Python loops and the math modules,
never with the package's vectorized code or any import of the package, so
that a bug in the package cannot hide by also being present in an oracle.
The tests and ``thzloc validate`` both compare against these functions.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

C_LIGHT = 299792458.0


def forward_model_oracle(
    bs_position,
    bs_rotation,
    ue_position,
    ue_rotation,
    offset,
    mount_rotation,
    clock_bias=0.0,
):
    """Path parameters (aod_az, aod_el, aoa_az, aoa_el, delay) plus distance.

    Scalar loops throughout; ue_rotation may be any 3x3 matrix, not
    necessarily orthonormal, so the same function also serves as the target
    of finite differencing over the free entries of R.
    """
    center = [
        ue_position[i] + sum(ue_rotation[i][j] * offset[j] for j in range(3))
        for i in range(3)
    ]
    v = [center[i] - bs_position[i] for i in range(3)]
    dist = math.sqrt(sum(c * c for c in v))

    # Components of v on the BS axes (columns of its rotation).
    bx = sum(bs_rotation[i][0] * v[i] for i in range(3))
    by = sum(bs_rotation[i][1] * v[i] for i in range(3))
    bz = sum(bs_rotation[i][2] * v[i] for i in range(3))
    aod_az = math.atan2(by, bx)
    aod_el = math.asin(bz / dist)

    # Components of -v on the subarray axes R_ue @ R_mount.
    axes = [
        [
            sum(ue_rotation[i][k] * mount_rotation[k][j] for k in range(3))
            for j in range(3)
        ]
        for i in range(3)
    ]
    sx = sum(axes[i][0] * -v[i] for i in range(3))
    sy = sum(axes[i][1] * -v[i] for i in range(3))
    sz = sum(axes[i][2] * -v[i] for i in range(3))
    aoa_az = math.atan2(sy, sx)
    aoa_el = math.asin(sz / dist)

    delay = dist / C_LIGHT + clock_bias
    return [aod_az, aod_el, aoa_az, aoa_el, delay], dist


def pack_state(ue_position, clock_bias, ue_rotation):
    """13-entry state [p, rho, vec(R)] with column-major vec."""
    r = np.zeros(13)
    r[0:3] = ue_position
    r[3] = clock_bias
    r[4:13] = np.asarray(ue_rotation).reshape(9, order="F")
    return r


def unpack_state(r):
    return r[0:3], float(r[3]), np.asarray(r[4:13]).reshape(3, 3, order="F")


def state_jacobian_fd(bs_position, bs_rotation, state, offset, mount_rotation, step=3e-5):
    """Five-point central-difference 5x13 Jacobian of the forward model in
    the state, (8 (f(h) - f(-h)) - (f(2h) - f(-2h))) / 12h per column.

    The rotation entries are differentiated as nine free variables; no
    re-orthonormalization is applied, matching a constrained-estimation
    parametrization where orthonormality is enforced separately.  The
    truncation error falls as h^4; at an 84 deg arrival elevation, near the
    arcsin branch point, two points at 1e-5 missed by 4.8e-7 of the row
    scale, and this stencil at 3e-5, near eps^(1/5), misses by under 1e-9.
    """
    state = np.asarray(state, dtype=float)
    jac = np.zeros((5, 13))
    for col in range(13):
        h = step * max(1.0, abs(state[col]))
        etas = []
        for shift in (-2.0, -1.0, 1.0, 2.0):
            position, rho, rotation = unpack_state(state + shift * h * np.eye(13)[col])
            eta, _ = forward_model_oracle(
                bs_position, bs_rotation, position, rotation, offset, mount_rotation, rho
            )
            etas.append(np.array(eta))
        m2, m1, p1, p2 = etas
        # Differences first, so an entry that does not move stays 0.
        jac[:, col] = (8.0 * (p1 - m1) - (p2 - m2)) / (12.0 * h)
    return jac


def constraint_jacobian_oracle(state):
    """6x13 Jacobian of the orthonormality constraints on the rotation part.

    Constraint rows are the upper triangle of R^T R - I taken in the order
    (0,0), (0,1), (0,2), (1,1), (1,2), (2,2).
    """
    cols = [np.asarray(state[4 + 3 * k : 7 + 3 * k], dtype=float) for k in range(3)]
    jac = np.zeros((6, 13))
    row = 0
    for i in range(3):
        for j in range(i, 3):
            jac[row, 4 + 3 * i : 7 + 3 * i] += cols[j]
            jac[row, 4 + 3 * j : 7 + 3 * j] += cols[i]
            row += 1
    return jac


def mean_signal_oracle(eta, gain, w_ue, w_bs, ue_elements, bs_elements, power_w, wavelength, offsets_hz):
    """Noise-free pilots, element-by-element complex sums.

    eta is the five-parameter list (aod_az, aod_el, aoa_az, aoa_el, delay);
    w_ue and w_bs are (G, N) weight arrays; returns a (G, K) complex array.
    """
    aod_az, aod_el, aoa_az, aoa_el, delay = eta
    wavenumber = 2.0 * math.pi / wavelength

    def unit(az, el):
        return (
            math.cos(el) * math.cos(az),
            math.cos(el) * math.sin(az),
            math.sin(el),
        )

    u_d = unit(aod_az, aod_el)
    u_a = unit(aoa_az, aoa_el)
    num_tx = len(w_ue)
    num_sc = len(offsets_hz)
    out = np.zeros((num_tx, num_sc), dtype=complex)
    amp = math.sqrt(power_w) * gain
    for g in range(num_tx):
        coup_bs = 0.0 + 0.0j
        for j, e in enumerate(bs_elements):
            phase = wavenumber * (e[0] * u_d[0] + e[1] * u_d[1] + e[2] * u_d[2])
            coup_bs += w_bs[g][j] * cmath.exp(1j * phase)
        coup_ue = 0.0 + 0.0j
        for i, e in enumerate(ue_elements):
            phase = wavenumber * (e[0] * u_a[0] + e[1] * u_a[1] + e[2] * u_a[2])
            coup_ue += w_ue[g][i] * cmath.exp(1j * phase)
        for k, f in enumerate(offsets_hz):
            out[g, k] = amp * coup_ue * coup_bs * cmath.exp(-2j * math.pi * f * delay)
    return out


def signal_jacobian_fd(eta, gain, w_ue, w_bs, ue_elements, bs_elements, power_w, wavelength, offsets_hz, angle_step=1e-7, delay_step=1e-13):
    """Central-difference (G, K, 5) gradient of the oracle mean signal."""
    base = list(eta)
    shape = mean_signal_oracle(
        base, gain, w_ue, w_bs, ue_elements, bs_elements, power_w, wavelength, offsets_hz
    ).shape
    grad = np.zeros(shape + (5,), dtype=complex)
    for idx in range(5):
        h = delay_step if idx == 4 else angle_step
        plus = list(base)
        minus = list(base)
        plus[idx] += h
        minus[idx] -= h
        mu_p = mean_signal_oracle(
            plus, gain, w_ue, w_bs, ue_elements, bs_elements, power_w, wavelength, offsets_hz
        )
        mu_m = mean_signal_oracle(
            minus, gain, w_ue, w_bs, ue_elements, bs_elements, power_w, wavelength, offsets_hz
        )
        grad[:, :, idx] = (mu_p - mu_m) / (2.0 * h)
    return grad


def fim_from_jacobian(jac_flat, noise_variance):
    """Fisher information 2 / sigma^2 * Re(J^H J) for a complex Gaussian mean."""
    return (2.0 / noise_variance) * np.real(np.conj(jac_flat).T @ jac_flat)
