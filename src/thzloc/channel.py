"""Far-field THz downlink signal model for one BS-to-subarray path.

The received pilot on transmission g and subcarrier k is

    mu[g, k] = sqrt(P) * w_ue^T H[k] w_bs,
    H[k] = gain * exp(-j 2 pi f_k tau) * a_ue(aoa) a_bs(aod)^T,

with unit pilot symbol, deterministic free-space gain, and random
phase-shifter beamformers redrawn per transmission.  Subcarriers sit on a
symmetric grid around the carrier, f_k = (k - (K + 1) / 2) * W / K for
k = 1..K, so the grid never contains the carrier itself for even K.

The beams of a path come from the Philox stream keyed by
SeedSequence(seed, spawn_key=(trial, bs, subarray)), a trial's pose from
(trial,).  spawn_keys derives such keys many at once by NumPy's
SeedSequence mixing in uint32 arithmetic from the pool of SeedSequence(seed),
cached per seed; an entry of 2^32 or more, which SeedSequence splits into
several words, goes through SeedSequence itself.  keyed_words reseats the
calling thread's own Philox with a key and reads its raw words, so no
generator is built per stream; keyed_beam_rows makes them the weights of
a group of paths in the thread's one scratch, kept at its largest draw.
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from dataclasses import dataclass

import numpy as np

from .geometry import SPEED_OF_LIGHT

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
    x, y, z = elements_m[..., 0], elements_m[..., 1], elements_m[..., 2]
    wavenumber = 2.0 * np.pi / wavelength_m
    out = np.empty((az.shape[0], elements_m.shape[-2], 3), dtype=complex)
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
    common when comparing nested BS sets.  It is a batch of one through
    spawn_keys and keyed_beam_rows, with the weights copied out of the
    thread's scratch.
    """
    key = spawn_keys(seed, [trial], [bs_index], [subarray_index])[0]
    ue, bs = keyed_beam_rows([key], num_transmissions, n_ue, n_bs)
    return BeamformerSet(ue=ue[0].copy(), bs=bs[0].copy())


# NumPy's SeedSequence constants (numpy/random/bit_generator.pyx): pool
# size, the two hash chains, the mixing multipliers and the xor shift.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF


def _hash_chain(start: int, mult: int, count: int) -> list[int]:
    """The first count + 1 values of a SeedSequence hash constant."""
    chain = [start]
    for _ in range(count):
        chain.append(chain[-1] * mult & _MASK32)
    return chain


@functools.lru_cache(maxsize=16)
def _seed_prefix(seed: int, spawn_words: int):
    """SeedSequence state of seed once its own words are mixed in.

    Returns the (1, 4) pool and the (xor, multiplier) hash constants, each
    (spawn_words, 1, 4), that the spawn words meet.  The pool is that of
    SeedSequence(seed): its words, zero-padded to the pool size, mix alike
    with or without a spawn key, for a seed of any size.  The hash constant
    advances once per hash whatever the words are: 16 hashes for the pool,
    4 for each seed word beyond the fourth.
    """
    words = max(_POOL_SIZE, -(-seed.bit_length() // 32))
    hashes = _POOL_SIZE * words
    chain = _hash_chain(_INIT_A, _MULT_A, hashes + spawn_words * _POOL_SIZE)[hashes:]
    chain = np.array(chain, dtype=np.uint32)
    shape = (spawn_words, 1, _POOL_SIZE)
    pool = np.random.SeedSequence(seed).pool[None]
    prefix = pool, chain[:-1].reshape(shape), chain[1:].reshape(shape)
    for array in prefix:  # shared by every caller through the cache
        array.flags.writeable = False
    return prefix


# generate_state's hash constants for a key's 4 words, a row like the pool.
_STATE_CHAIN = np.array([_hash_chain(_INIT_B, _MULT_B, _POOL_SIZE)], dtype=np.uint32)
_SPAWN_LIMIT = 1 << 32


def _mixed_keys(seed: int, words: np.ndarray) -> np.ndarray:
    # SeedSequence's mixing of the (W, P) uint32 spawn words into the
    # seed's pool, then generate_state: (P, 2) uint64 keys.
    pool, xor, mult = _seed_prefix(seed, words.shape[0])
    hashes = (words[:, :, None] ^ xor) * mult
    hashes ^= hashes >> 16
    hashes *= _MIX_R
    for word_hashes in hashes:
        pool = _MIX_L * pool - word_hashes
        pool ^= pool >> 16
    state = (pool ^ _STATE_CHAIN[:, :-1]) * _STATE_CHAIN[:, 1:]
    state ^= state >> 16
    # Each key word is two state words, the first the low half.
    return state.astype("<u4", copy=False).view("<u8")


def as_index(value, what: str) -> int:
    # operator.index takes a bool as an int, but True is no count or seed.
    if isinstance(value, bool):
        raise TypeError(f"a {what} must be an integer, not a bool")
    return operator.index(value)


def spawn_keys(seed: int, *spawn_rows) -> np.ndarray:
    """Philox keys of many streams, shape (P, 2) uint64.

    Each spawn row holds one entry per stream: (trials,) for poses,
    (trials, bs_index, sub_index) for beams.  Row p equals SeedSequence(seed,
    spawn_key=(entries p of the rows)).generate_state(2, np.uint64), by the
    same mixing for all streams at once, and through SeedSequence itself
    where an entry of 2^32 or more splits into several words.
    tests/test_channel.py pins the keys against SeedSequence, at that
    boundary too.

    Raises:
        TypeError: for a seed that is not an integer, a bool included.
        ValueError: for a negative seed or spawn entry.
    """
    seed = as_index(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    spawn = np.array(spawn_rows)
    if spawn.dtype.kind in "iu":
        # The cast keeps exactly the entries from 0 to 2^32 - 1.
        words = spawn.astype(np.uint32)
        if not np.count_nonzero(words != spawn):
            return _mixed_keys(seed, words)
    else:  # Python ints, where one does not fit in 64 bits
        spawn = np.array([[operator.index(v) for v in row] for row in spawn_rows], dtype=object)
    if np.count_nonzero(spawn < 0):
        raise ValueError("trial, BS and subarray indices must be non-negative")
    fits = (spawn < _SPAWN_LIMIT).all(axis=0)
    keys = np.empty((fits.size, 2), dtype=np.uint64)
    keys[fits] = _mixed_keys(seed, spawn[:, fits].astype(np.uint32))
    for p in np.flatnonzero(~fits):
        spawn_key = tuple(int(entries) for entries in spawn[:, p])
        keys[p] = np.random.SeedSequence(seed, spawn_key=spawn_key).generate_state(2, np.uint64)
    return keys


class _ThreadState(threading.local):
    """A thread's own Philox, reseated for every draw, and its beam
    scratch, 48 B per phase of the largest draw so far, kept for the next."""

    def __init__(self):
        self.philox = np.random.Philox(0)
        self.scratch = np.empty(0, dtype=complex)


_THREAD = _ThreadState()
# A fresh stream's counter and buffer; the state setter reads tuples faster.
_ZEROS = (0, 0, 0, 0)


def keyed_words(key, shape) -> np.ndarray:
    """The first raw words of the Philox stream with the given two-word key,
    in the given shape: those of np.random.Philox(key=key).random_raw(shape).
    It reseats the thread's Philox through its public state, so it takes no
    lock; the pose streams and the beams both read their words here."""
    _THREAD.philox.state = {
        "bit_generator": "Philox", "state": {"counter": _ZEROS, "key": key},
        "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return _THREAD.philox.random_raw(shape)


def keyed_beam_rows(keys, num_transmissions: int, n_ue: int, n_bs: int):
    """Beamformers (ue (k, G, N_ue), bs (k, G, N_bs)) of k = len(keys)
    paths from the Philox streams with the given keys, views of this
    thread's scratch until its next draw: word w becomes the phasor
    e^{2 pi i u} of Generator.random's u = (w >> 11) * 2^-53, the phase
    that uniform(0, 2 pi) scales from u.  Of a path's N_ue + N_bs columns,
    the first N_ue, scaled to unit norm, are the combiner, the rest the
    precoder.  One path's words are _unit_phasors' scratch as drawn;
    several paths' are gathered in the phasors' first half for one pass.
    """
    step = num_transmissions * (n_ue + n_bs)
    size = len(keys) * step
    # Phasors, table phasors, then indices and thetas, each at a 64 B line
    # (4 entries): at NumPy's 16 B, a wide-scenario path drew 17% slower.
    span = -(-size // 4) * 4
    scratch = _THREAD.scratch
    if scratch.size < 3 * span:
        raw = np.empty(3 * span + 3, dtype=complex)
        scratch = _THREAD.scratch = raw[-raw.ctypes.data % 64 // 16 :][: 3 * span]
    phasors, base = scratch[:size], scratch[span : span + size]
    rest = scratch[2 * span :].view(np.float64)
    if len(keys) == 1:
        words = keyed_words(keys[0], size)
    else:
        words = phasors.view(np.uint64)[:size]
        for start, key in zip(range(0, size, step), keys):
            words[start : start + step] = keyed_words(key, step)
    _unit_phasors(words, rest[:size].view(np.intp), rest[span : span + size], base, phasors)
    phasors = phasors.reshape(len(keys), num_transmissions, n_ue + n_bs)
    # NumPy's complex division by sqrt(N_ue) multiplies both parts by this.
    combiner = phasors.view(np.float64)[..., : 2 * n_ue]
    np.multiply(combiner, 1.0 / math.sqrt(max(n_ue, 1)), out=combiner)
    return phasors[..., :n_ue], phasors[..., n_ue:]


# Entries of the phasor table, a power of two so that a Philox word's top
# bits index it.  A 256-entry table needed Taylor polynomials to theta^6
# and theta^7, four more passes over the draw.
_TURN_STEPS = 4096
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


# 64 KiB, built once at import in about 1 ms.
_PHASORS = _phasor_table(_TURN_STEPS)
# A word's top 12 bits index the table; the 41 below them, the rest of u's
# 53, scale exactly to theta.  uint64 scalars keep NumPy 1.x in uint64.
# The masked words lie below 2^52, so their int64 view, which converts to
# float faster than uint64, holds the same values.
_INDEX_SHIFT = np.uint64(52)
_REMAINDER_MASK = np.uint64(2**52 - 2**11)
_REMAINDER_THETA = 2.0 * np.pi / _TURN_STEPS * 2.0**-52


def _unit_phasors(
    words: np.ndarray, index: np.ndarray, theta: np.ndarray, base: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """e^{2 pi i u} of each Philox word w in words, u = (w >> 11) * 2^-53,
    to within 1.7e-16: the table's e^{2 pi i k / _TURN_STEPS}, k = w >> 52,
    times e^{i theta}, theta = 2 pi frac(4096 u) / _TURN_STEPS < 1.6e-3,
    from Taylor polynomials to theta^4 and theta^5 (IEEE basic operations),
    whose truncation is below 2e-20; the complex exponential of the rounded
    phase 2 pi u was within 7e-16.
    The result goes to out, which words may share; words is overwritten, and
    index (intp), theta (float) and base (complex), all of words' shape, are
    scratch.  No array is allocated: fresh temporaries cost page faults.
    """
    np.right_shift(words, _INDEX_SHIFT, out=index.view(np.uint64))
    # Indices lie in [0, _TURN_STEPS); "wrap" takes them as they are and,
    # unlike "raise", writes out without an intermediate buffer.
    _PHASORS.take(index, out=base, mode="wrap")
    words &= _REMAINDER_MASK
    np.multiply(words.view(np.int64), _REMAINDER_THETA, out=theta)
    # sin(theta) and cos(theta) - 1 by Horner's rule: t2 in the spent
    # words, sin in the spent indices, cos_m1 in theta's array once sin is
    # done.  Contiguous arithmetic runs at twice the speed of the strided
    # parts of out.
    t2 = np.multiply(theta, theta, out=words.view(np.float64))
    sin = np.multiply(t2, 1.0 / 120.0, out=index.view(np.float64))
    sin -= 1.0 / 6.0
    sin *= t2
    sin *= theta
    sin += theta
    cos_m1 = np.multiply(t2, 1.0 / 24.0, out=theta)
    cos_m1 -= 0.5
    cos_m1 *= t2
    out.real, out.imag = cos_m1, sin
    out *= base
    out += base
    return out
