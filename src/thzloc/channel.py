"""Far-field THz downlink signal model for one BS-to-subarray path.

The received pilot on transmission g and subcarrier k is

    mu[g, k] = sqrt(P) * w_ue^T H[k] w_bs,
    H[k] = gain * exp(-j 2 pi f_k tau) * a_ue(aoa) a_bs(aod)^T,

with unit pilot symbol, deterministic free-space gain, and random
phase-shifter beamformers redrawn per transmission.  Subcarriers sit on a
symmetric grid around the carrier, f_k = (k - (K + 1) / 2) * W / K for
k = 1..K, so the grid never contains the carrier itself for even K.

The beams of a path come from the Philox stream keyed by
SeedSequence(seed, spawn_key=(trial, bs, subarray)).  beam_keys derives
those keys for many paths at once by NumPy's SeedSequence mixing in uint32
arithmetic from the pool of SeedSequence(seed), cached per seed; a path
with a spawn entry of 2^32 or more, which SeedSequence splits into several
words, goes through SeedSequence itself.  keyed_beams reseats one shared
Philox with a key and turns its uniforms into phase-shifter weights in
BeamBuffers that many draws reuse, so no generator and no array is built
per path; thread_buffers keeps one set per shape for each thread.
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
        elements_m: panel element offsets, (N, 3), or one panel per
            direction, (P, N, 3).
        az, el: directions, each of shape (P,).

    Returns:
        (P, N, 3) complex array whose columns are a, da/daz and da/del.
        Each direction's result does not depend on the others, and is the
        same bits whether its panel is given once or per direction.
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
    common when comparing nested BS sets.
    """
    key = beam_keys(seed, [trial], [bs_index], [subarray_index])[0]
    return keyed_beams(key, BeamBuffers(num_transmissions, n_ue, n_bs))


# NumPy's SeedSequence constants (numpy/random/bit_generator.pyx): pool
# size, the two hash chains, the mixing multipliers and the xor shift.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF
# Spawn key words per path: (trial, bs, subarray).
_SPAWN_WORDS = 3


def _hash_chain(start: int, mult: int, count: int) -> list[int]:
    """The first count + 1 values of a SeedSequence hash constant."""
    chain = [start]
    for _ in range(count):
        chain.append(chain[-1] * mult & _MASK32)
    return chain


@functools.lru_cache(maxsize=16)
def _seed_prefix(seed: int):
    """SeedSequence state of seed once its own words are mixed in.

    Returns the (1, 4) pool and the (xor, multiplier) hash constants, each
    (3, 1, 4), that the three spawn words meet.  The pool is that of
    SeedSequence(seed): its words, zero-padded to the pool size, mix alike
    with or without a spawn key.  The hash constant advances once per hash
    whatever the words are: 16 hashes for the pool, 4 for each seed word
    beyond the fourth.
    """
    words = max(_POOL_SIZE, -(-seed.bit_length() // 32))
    hashes = _POOL_SIZE * words
    chain = _hash_chain(_INIT_A, _MULT_A, hashes + _SPAWN_WORDS * _POOL_SIZE)[hashes:]
    chain = np.array(chain, dtype=np.uint32)
    shape = (_SPAWN_WORDS, 1, _POOL_SIZE)
    pool = np.random.SeedSequence(seed).pool[None]
    prefix = pool, chain[:-1].reshape(shape), chain[1:].reshape(shape)
    for array in prefix:  # shared by every caller through the cache
        array.flags.writeable = False
    return prefix


# generate_state's hash constants for the four words of a Philox key.
_STATE_CHAIN = np.array(_hash_chain(_INIT_B, _MULT_B, _POOL_SIZE), dtype=np.uint32)
_SPAWN_LIMIT = 1 << 32


def _spawn_entries(trials, bs_index, sub_index) -> np.ndarray:
    """(3, P) spawn key entries as an integer array; as Python ints in an
    object array when one does not fit in 64 bits."""
    entries = np.array((trials, bs_index, sub_index))
    if entries.dtype.kind in "iu":
        return entries
    rows = (trials, bs_index, sub_index)
    return np.array([[operator.index(v) for v in row] for row in rows], dtype=object)


def _mixed_keys(seed: int, words: np.ndarray) -> np.ndarray:
    # SeedSequence's mixing of the (3, P) uint32 spawn words into the
    # seed's pool, then generate_state: (P, 2) uint64 keys.
    pool, xor, mult = _seed_prefix(seed)
    hashes = (words[:, :, None] ^ xor) * mult
    hashes ^= hashes >> 16
    hashes *= _MIX_R
    for word_hashes in hashes:
        pool = _MIX_L * pool - word_hashes
        pool ^= pool >> 16
    state = (pool ^ _STATE_CHAIN[:-1]) * _STATE_CHAIN[1:]
    state ^= state >> 16
    # Each key word is two state words, the first the low half.
    return state.astype("<u4", copy=False).view("<u8")


def beam_keys(seed: int, trials, bs_index, sub_index) -> np.ndarray:
    """Philox keys of many paths' beam streams, shape (P, 2) uint64.

    Row p equals SeedSequence(seed, spawn_key=(trials[p], bs_index[p],
    sub_index[p])).generate_state(2, np.uint64), and it is computed by the
    same mixing over all paths at once.  SeedSequence splits an entry of
    2^32 or more into several words, so such a path goes through
    SeedSequence itself.

    Raises:
        ValueError: for a negative seed or spawn entry.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    spawn = _spawn_entries(trials, bs_index, sub_index)
    if spawn.min(initial=0) < 0:
        raise ValueError("trial, BS and subarray indices must be non-negative")
    if spawn.max(initial=0) < _SPAWN_LIMIT:
        return _mixed_keys(seed, spawn.astype(np.uint32))
    fits = (spawn < _SPAWN_LIMIT).all(axis=0)
    keys = np.empty((fits.size, 2), dtype=np.uint64)
    keys[fits] = _mixed_keys(seed, spawn[:, fits].astype(np.uint32))
    for p in np.flatnonzero(~fits):
        spawn_key = tuple(int(entries) for entries in spawn[:, p])
        keys[p] = np.random.SeedSequence(seed, spawn_key=spawn_key).generate_state(2, np.uint64)
    return keys


# One Philox reseated for every draw; the lock keeps reseat and fill
# together when threads share it.
_PHILOX = np.random.Philox(0)
_UNIFORMS = np.random.Generator(_PHILOX)
_PHILOX_LOCK = threading.Lock()
_ZEROS = np.zeros(4, dtype=np.uint64)


class BeamBuffers:
    """The arrays a beam draw of G transmissions on N_ue + N_bs elements
    writes, so that many draws of one shape reuse them.

    turns holds the uniforms and then the phase remainders, whole and words
    are the scratch of _unit_phasors, base its table phasors and phasors
    its result; beams holds the scaled combiner and views the precoder.
    """

    def __init__(self, num_transmissions: int, n_ue: int, n_bs: int):
        shape = (num_transmissions, n_ue + n_bs)
        self.turns = np.empty(shape)
        self.whole = np.empty(shape)
        self.words = np.empty(shape, dtype=np.intp)
        self.base = np.empty(shape, dtype=complex)
        self.phasors = np.empty(shape, dtype=complex)
        self.combiner = self.phasors[:, :n_ue]
        self.combiner_norm = math.sqrt(n_ue)
        ue = np.empty((num_transmissions, n_ue), dtype=complex)
        # Unit-modulus precoder, one PA per element.
        self.beams = BeamformerSet(ue=ue, bs=self.phasors[:, n_ue:])


class _ThreadBuffers(threading.local):
    def __init__(self):
        self.sets = {}


_THREAD_BUFFERS = _ThreadBuffers()
# Buffer shapes a thread keeps; one more starts the set afresh.
_KEPT_SHAPES = 8


def thread_buffers(num_transmissions: int, n_ue: int, n_bs: int) -> BeamBuffers:
    """This thread's BeamBuffers of the given shape, built on first use and
    kept, so that the kernel's calls share them."""
    sets = _THREAD_BUFFERS.sets
    shape = (num_transmissions, n_ue, n_bs)
    if shape not in sets:
        if len(sets) == _KEPT_SHAPES:
            sets.clear()
        sets[shape] = BeamBuffers(*shape)
    return sets[shape]


def keyed_beams(key: np.ndarray, buffers: BeamBuffers) -> BeamformerSet:
    """Beamformers from the Philox stream with the given key.

    The uniforms u are those of a fresh np.random.Philox with that key;
    entry u becomes the phasor e^{2 pi i u} (the phase that uniform(0, 2 pi)
    scales from the same u).  The first N_ue columns, scaled to unit norm,
    are the combiner, the rest the precoder.  The result is buffers.beams,
    so it holds until the next draw into them.
    """
    state = {"counter": _ZEROS, "key": key}
    with _PHILOX_LOCK:
        _PHILOX.state = {
            "bit_generator": "Philox", "state": state, "buffer": _ZEROS,
            "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        _UNIFORMS.random(out=buffers.turns)
    _unit_phasors(buffers.turns, buffers.whole, buffers.words, buffers.base, buffers.phasors)
    np.divide(buffers.combiner, buffers.combiner_norm, out=buffers.beams.ue)
    return buffers.beams


# Entries of the phasor table, a power of two so that u * _TURN_STEPS is
# exact.
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


_PHASORS = _phasor_table(_TURN_STEPS)


def _unit_phasors(
    turns: np.ndarray, whole: np.ndarray, words: np.ndarray, base: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """e^{2 pi i u} of each u in turns, in [0, 1), to within 1.7e-16.

    u * _TURN_STEPS splits exactly into a table index k and a remainder r;
    the result is the table's e^{2 pi i k / _TURN_STEPS} times e^{i theta},
    theta = 2 pi r / _TURN_STEPS < 1.6e-3, from Taylor polynomials to
    theta^4 and theta^5, using IEEE basic operations only.  The result goes
    to out; turns is overwritten, and whole (float), words (intp) and base
    (complex), all of turns' shape, are scratch.  No array is allocated,
    since fresh large temporaries cost page faults on every call.
    """
    theta = turns
    theta *= _TURN_STEPS
    np.floor(theta, out=whole)
    theta -= whole
    np.copyto(words, whole, casting="unsafe")
    # Indices lie in [0, _TURN_STEPS); "wrap" takes them as they are and,
    # unlike "raise", writes out without an intermediate buffer.
    _PHASORS.take(words, out=base, mode="wrap")
    theta *= 2.0 * np.pi / _TURN_STEPS
    # sin(theta) and cos(theta) - 1 by Horner's rule: t2 in the floor's
    # array, sin in the spent indices' 8-byte words, cos_m1 in theta's
    # array once sin is done.  Contiguous arithmetic runs at twice the
    # speed of the strided parts of out.
    t2 = np.multiply(theta, theta, out=whole)
    sin = np.multiply(t2, 1.0 / 120.0, out=words.view(np.float64))
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


def beam_couplings(beams: BeamformerSet, steer_ue: np.ndarray, steer_bs: np.ndarray):
    """Per-transmission couplings of the beams with steering stacks.

    steer_ue and steer_bs are (N, 3) slices of steering_stack.  Returns
    (ue, bs), each (G, 3): the combiner (precoder) times a, da/daz and
    da/del of the arrival (departure) direction.
    """
    return beams.ue @ steer_ue, beams.bs @ steer_bs
