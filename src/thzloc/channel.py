"""Far-field THz downlink signal model for one BS-to-subarray path.

The received pilot on transmission g and subcarrier k is

    mu[g, k] = sqrt(P) * w_ue^T H[k] w_bs,
    H[k] = gain * exp(-j 2 pi f_k tau) * a_ue(aoa) a_bs(aod)^T,

with unit pilot symbol, deterministic free-space gain, and random
phase-shifter beamformers redrawn per transmission.  Subcarriers sit on a
symmetric grid around the carrier, f_k = (k - (K + 1) / 2) * W / K for
k = 1..K, so the grid never contains the carrier itself for even K.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import SPEED_OF_LIGHT, PathParams

# Order of the per-path channel parameters everywhere in this package.
ETA_NAMES = ("aod_az", "aod_el", "aoa_az", "aoa_el", "delay")


@dataclass(frozen=True)
class SignalConfig:
    """Waveform and noise parameters shared by all paths."""

    power_dbm: float = 0.0
    carrier_hz: float = 140e9
    bandwidth_hz: float = 1e9
    num_subcarriers: int = 10
    num_transmissions: int = 50
    noise_psd_dbm_hz: float = -173.855
    noise_figure_db: float = 10.0

    @property
    def power_w(self) -> float:
        return 10.0 ** (self.power_dbm / 10.0) * 1e-3

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz

    def subcarrier_offsets_hz(self) -> np.ndarray:
        """Baseband frequency of each subcarrier, symmetric around zero."""
        k = np.arange(1, self.num_subcarriers + 1)
        return (k - (self.num_subcarriers + 1) / 2.0) * (
            self.bandwidth_hz / self.num_subcarriers
        )

    @property
    def noise_variance_w(self) -> float:
        """Post-combining noise power over the full signal bandwidth."""
        psd_w_hz = 10.0 ** ((self.noise_psd_dbm_hz + self.noise_figure_db) / 10.0) * 1e-3
        return psd_w_hz * self.bandwidth_hz


def path_gain(distance_m: float, wavelength_m: float) -> float:
    """Free-space amplitude gain lambda / (4 pi d), treated as known."""
    return wavelength_m / (4.0 * np.pi * distance_m)


def steering_stack(elements_m: np.ndarray, az, el, wavelength_m: float) -> np.ndarray:
    """Steering vectors of a panel and their angle derivatives, many at once.

    The steering vector toward (az, el) has entries
    exp(j * 2 pi / lambda * <offset_i, u(az, el)>), unit magnitude and no
    amplitude taper.

    Args:
        elements_m: panel element offsets, (N, 3).
        az, el: directions, each of shape (P,).

    Returns:
        (P, N, 3) complex array whose columns are a, da/daz and da/del.
        Each direction's result does not depend on the others.
    """
    az = np.asarray(az, dtype=float)[:, None]
    el = np.asarray(el, dtype=float)[:, None]
    ca, sa, ce, se = np.cos(az), np.sin(az), np.cos(el), np.sin(el)
    x, y, z = elements_m[:, 0], elements_m[:, 1], elements_m[:, 2]
    wavenumber = 2.0 * np.pi / wavelength_m
    out = np.empty((az.shape[0], elements_m.shape[0], 3), dtype=complex)
    a = np.exp(1j * (wavenumber * (x * (ce * ca) + y * (ce * sa) + z * se)))
    out[..., 0] = a
    out[..., 1] = (1j * wavenumber) * (x * (-ce * sa) + y * (ce * ca)) * a
    out[..., 2] = (1j * wavenumber) * (x * (-se * ca) + y * (-se * sa) + z * ce) * a
    return out


@dataclass(frozen=True)
class BeamformerSet:
    """Phase-shifter weights for all transmissions of one path.

    ue has shape (G, N_ue), bs has shape (G, N_bs).  Precoder entries have
    unit modulus (constant-amplitude phase shifters, so the radiated field
    grows with the BS element count); the combiner is scaled to unit norm,
    which keeps the post-combining noise variance at sigma^2 and is
    SNR-equivalent to unit-modulus combining with noise amplified by the
    combiner norm.
    """

    ue: np.ndarray
    bs: np.ndarray


def draw_beamformers(
    seed: int,
    bs_index: int,
    subarray_index: int,
    num_transmissions: int,
    n_ue: int,
    n_bs: int,
    trial: int = 0,
) -> BeamformerSet:
    """Draw uniform-phase beamformers for one path, reproducibly.

    The stream is keyed on (seed, trial, bs_index, subarray_index) with a
    counter-based generator, so the draw for a given path does not depend
    on how many other BSs or subarrays exist.  That keeps random draws
    common when comparing nested BS sets.
    """
    key = np.random.SeedSequence(seed, spawn_key=(trial, bs_index, subarray_index))
    rng = np.random.Generator(np.random.Philox(key))
    # Phase 2 pi u of each element; uniform(0, 2 pi) scales the same u.
    phasors = _unit_phasors(rng.random(size=(num_transmissions, n_ue + n_bs)))
    ue = phasors[:, :n_ue] / np.sqrt(n_ue)
    bs = phasors[:, n_ue:]  # unit modulus, one PA per element
    return BeamformerSet(ue=ue, bs=bs)


# Entries of the phasor table, a power of two so that u * _TURN_STEPS is
# exact.
_TURN_STEPS = 256
# pi to 40 decimals, for the table's fixed-point arithmetic.
_PI_E40 = 31415926535897932384626433832795028841971


def _phasor_table(size: int) -> np.ndarray:
    """e^{2 pi i k / size} for k = 0..size-1, both parts correctly rounded.

    The first eighth of the circle is built in integer fixed point with 40
    decimals, as powers of e^{2 pi i / size} summed from its Taylor series;
    the rest follows by exact swaps and sign changes.
    """
    one = 10**40
    theta = 2 * _PI_E40 // size
    step_re, step_im = one, 0
    term_re, term_im = one, 0
    for n in range(1, 30):  # theta^30 / 30! < 10^-44 for size >= 16
        term_re, term_im = -term_im * theta // (n * one), term_re * theta // (n * one)
        step_re, step_im = step_re + term_re, step_im + term_im
    octant = [(one, 0)]
    for _ in range(size // 8):
        c, s = octant[-1]
        octant.append(((c * step_re - s * step_im) // one, (s * step_re + c * step_im) // one))
    # Dividing two integers with / rounds correctly to a double.
    cos = np.array([c / one for c, _ in octant])
    sin = np.array([s / one for _, s in octant])
    # Eighth -> quarter turn by cos(pi/2 - x) = sin(x), then by quarter turns.
    cos, sin = np.concatenate([cos, sin[-2:0:-1]]), np.concatenate([sin, cos[-2:0:-1]])
    return np.concatenate([cos, -sin, -cos, sin]) + 1j * np.concatenate([sin, cos, -sin, -cos])


_PHASORS = _phasor_table(_TURN_STEPS)


def _unit_phasors(turns: np.ndarray) -> np.ndarray:
    """e^{2 pi i u} of each u in [0, 1), to within 2.5e-16.

    u * _TURN_STEPS splits exactly into a table index k and a remainder r;
    the result is the table's e^{2 pi i k / _TURN_STEPS} times e^{i theta},
    theta = 2 pi r / _TURN_STEPS < 0.025, from Taylor polynomials to
    theta^6 and theta^7, using IEEE basic operations only.
    """
    theta = turns * _TURN_STEPS
    whole = np.floor(theta)
    theta -= whole
    base = _PHASORS.take(whole.astype(np.intp))
    theta *= 2.0 * np.pi / _TURN_STEPS
    t2 = theta * theta
    # cos(theta) - 1 and sin(theta), by Horner's rule.
    cos_m1 = t2 * (-1.0 / 720.0)
    cos_m1 += 1.0 / 24.0
    cos_m1 *= t2
    cos_m1 -= 0.5
    cos_m1 *= t2
    sin = t2 * (-1.0 / 5040.0)
    sin += 1.0 / 120.0
    sin *= t2
    sin -= 1.0 / 6.0
    sin *= t2
    sin *= theta
    sin += theta
    out = np.empty(turns.shape, dtype=complex)
    out.real, out.imag = cos_m1, sin
    out *= base
    out += base
    return out


def beam_couplings(beams: BeamformerSet, steer_ue: np.ndarray, steer_bs: np.ndarray):
    """Per-transmission couplings of the beams with steering stacks.

    steer_ue and steer_bs are (N, 3) slices of steering_stack.  Returns
    (ue, bs), each (G, 3): the combiner (precoder) times a, da/daz and
    da/del of the arrival (departure) direction.
    """
    return beams.ue @ steer_ue, beams.bs @ steer_bs


def signal_gradient(
    params: PathParams,
    gain: complex,
    beams: BeamformerSet,
    bs_elements_m: np.ndarray,
    sub_elements_m: np.ndarray,
    config: SignalConfig,
):
    """Mean signal and its gradient in the five path parameters.

    Args:
        params: path angles and delay.
        gain: complex channel amplitude (known constant).
        beams: beamformer weights for all transmissions.
        bs_elements_m: BS panel element offsets, (N_bs, 3).
        sub_elements_m: subarray element offsets, (N_ue, 3).
        config: waveform parameters.

    Returns:
        (mu, dmu) with mu the noise-free pilots, shape (G, K), and dmu of
        shape (G, K, 5) ordered as ETA_NAMES.
    """
    lam = config.wavelength_m
    steer_bs = steering_stack(bs_elements_m, [params.aod_az], [params.aod_el], lam)[0]
    steer_ue = steering_stack(sub_elements_m, [params.aoa_az], [params.aoa_el], lam)[0]
    a_bs, da_bs_az, da_bs_el = steer_bs.T
    a_ue, da_ue_az, da_ue_el = steer_ue.T

    # Per-transmission scalar couplings, shape (G,).
    g_bs = beams.bs @ a_bs
    g_ue = beams.ue @ a_ue

    f_k = config.subcarrier_offsets_hz()
    tone = np.exp(-2j * np.pi * f_k * params.delay)
    amp = np.sqrt(config.power_w) * gain

    mu = amp * (g_ue * g_bs)[:, None] * tone[None, :]
    dmu = np.empty(mu.shape + (5,), dtype=complex)
    dmu[:, :, 0] = amp * (g_ue * (beams.bs @ da_bs_az))[:, None] * tone[None, :]
    dmu[:, :, 1] = amp * (g_ue * (beams.bs @ da_bs_el))[:, None] * tone[None, :]
    dmu[:, :, 2] = amp * ((beams.ue @ da_ue_az) * g_bs)[:, None] * tone[None, :]
    dmu[:, :, 3] = amp * ((beams.ue @ da_ue_el) * g_bs)[:, None] * tone[None, :]
    dmu[:, :, 4] = mu * (-2j * np.pi * f_k)[None, :]
    return mu, dmu
