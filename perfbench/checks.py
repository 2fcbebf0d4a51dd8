"""Output checks built from independent computations or required properties.

Nothing here compares against stored copies of earlier output.  The
reference bound is rebuilt from the finite-difference and scalar-loop
oracles in ``tests/oracles.py``; the other checks are properties any
correct result has (CCDF invariants, grid structure, binomial agreement
with the visibility model).
"""

from __future__ import annotations

import csv
import math

import numpy as np

from oracles import (
    C_LIGHT,
    constraint_jacobian_oracle,
    fim_from_jacobian,
    forward_model_oracle,
    no_los_probability_oracle,
    pack_state,
    signal_jacobian_fd,
    state_jacobian_fd,
)
from thzloc import PoseDistribution, draw_beamformers

# Finite differences carry about 1e-9 relative error on paper-scale poses
# and 1e-7 on the weakly identifiable one-BS poses; 1e-6 leaves margin.
ORACLE_RTOL = 1e-6

# State Jacobian step.  The truncation error of central differences grows
# like 1/cos(elevation)^2 toward the arcsin branch point: with the oracle's
# default 1e-5 a path at -89 deg arrival elevation put the OEB 3e-5 off,
# and 1e-6 brought it to 3e-7, converging on the analytic value.
_STATE_STEP = 1e-6
# Reference poses keep every path elevation within this many degrees, where
# that step stays accurate; closer to the branch point the finite
# difference, not the program, is what loses accuracy.
_MAX_ELEVATION_DEG = 85.0

# A pose whose half-space tests lie this close to zero is skipped as a
# reference pose: rounding alone could flip its visibility.
_GRAZING = 1e-9


def oracle_paths(scenario, pose):
    """Visible (bs, subarray) pairs under strict half-space visibility.

    Returns (pairs, margin), margin being the smallest |inner product| met,
    so callers can skip poses whose visibility rests on rounding.
    """
    pairs, margin = [], math.inf
    for m, bs in enumerate(scenario.bs_poses):
        for n, sub in enumerate(scenario.subarrays):
            center = pose.position + pose.rotation @ sub.offset
            normal = pose.rotation @ sub.rotation[:, 0]
            los = bs.position - center
            ue_side, bs_side = float(los @ normal), float(-los @ bs.rotation[:, 0])
            margin = min(margin, abs(ue_side), abs(bs_side))
            if ue_side > 0.0 and bs_side > 0.0:
                pairs.append((m, n))
    return pairs, margin


def oracle_bounds(config, scenario, pose, seed, trial, pairs):
    """(PEB m, OEB deg) rebuilt from the test oracles for one pose.

    Beamformers come from ``draw_beamformers`` because the keyed RNG stream
    is the program's contract; everything else is recomputed.  Position,
    clock bias and rotation stay in separate blocks: the constraint null
    space is taken over the rotation block alone, and the reduced
    information is Jacobi-equilibrated before inversion (its raw condition
    number is near 1e18 because the clock bias is in seconds).
    """
    sig = config.signal
    wavelength = C_LIGHT / sig.carrier_hz
    power_w = 10.0 ** (sig.power_dbm / 10.0) * 1e-3
    noise_w = 10.0 ** ((sig.noise_psd_dbm_hz + sig.noise_figure_db) / 10.0) * 1e-3 * sig.bandwidth_hz
    k = sig.num_subcarriers
    offsets_hz = [(i - (k + 1) / 2.0) * sig.bandwidth_hz / k for i in range(1, k + 1)]
    state = pack_state(pose.position, config.clock_bias_s, pose.rotation)

    fim = np.zeros((13, 13))
    for m, n in pairs:
        bs, sub = scenario.bs_poses[m], scenario.subarrays[n]
        bs_elements = scenario.bs_elements[m]
        eta, dist = forward_model_oracle(
            bs.position, bs.rotation, pose.position, pose.rotation,
            sub.offset, sub.rotation, config.clock_bias_s,
        )
        beams = draw_beamformers(
            seed, m, n, sig.num_transmissions, len(sub.elements), len(bs_elements), trial=trial
        )
        dmu = signal_jacobian_fd(
            eta, wavelength / (4.0 * math.pi * dist), beams.ue, beams.bs,
            sub.elements, bs_elements, power_w, wavelength, offsets_hz,
        )
        j_eta = fim_from_jacobian(dmu.reshape(-1, 5), noise_w)
        j_state = state_jacobian_fd(
            bs.position, bs.rotation, state, sub.offset, sub.rotation, step=_STATE_STEP
        )
        fim += j_state.T @ j_eta @ j_state

    _, _, vt = np.linalg.svd(constraint_jacobian_oracle(state)[:, 4:13])
    basis = np.zeros((13, 7))
    basis[:4, :4] = np.eye(4)
    basis[4:, 4:] = vt[6:].T
    reduced = basis.T @ fim @ basis
    scale = 1.0 / np.sqrt(np.diag(reduced))
    inverse = scale[:, None] * np.linalg.inv(scale[:, None] * reduced * scale[None, :]) * scale[None, :]
    crb = basis @ inverse @ basis.T
    peb = math.sqrt(np.trace(crb[:3, :3]))
    oeb = math.degrees(math.sqrt(np.trace(crb[4:, 4:])) / math.sqrt(2.0))
    return peb, oeb


def check_against_oracle(config, scenario, pose, seed, trial, num_paths, peb, oeb):
    """Problem string, or None when (peb, oeb) match the oracle-built bound."""
    pairs, _ = oracle_paths(scenario, pose)
    if len(pairs) != num_paths:
        return f"{num_paths} paths reported, the half-space rule gives {len(pairs)}"
    ref_peb, ref_oeb = oracle_bounds(config, scenario, pose, seed, trial, pairs)
    err = max(abs(peb / ref_peb - 1.0), abs(oeb / ref_oeb - 1.0))
    if not err <= ORACLE_RTOL:
        return (f"PEB/OEB {peb:.6g}/{oeb:.6g} vs oracle {ref_peb:.6g}/{ref_oeb:.6g}"
                f" (relative error {err:.2e})")
    return None


def usable_reference(scenario, pose, peb_m):
    """A pose the oracle check can use: a finite bound, no grazing path and
    no path elevation near the arcsin branch point."""
    if not math.isfinite(peb_m):
        return False
    pairs, margin = oracle_paths(scenario, pose)
    for m, n in pairs:
        bs, sub = scenario.bs_poses[m], scenario.subarrays[n]
        eta, _ = forward_model_oracle(
            bs.position, bs.rotation, pose.position, pose.rotation, sub.offset, sub.rotation
        )
        if max(abs(eta[1]), abs(eta[3])) > math.radians(_MAX_ELEVATION_DEG):
            return False
    return margin > _GRAZING


def ccdf_problem(curve, metric, trials):
    """Problem string, or None when a CcdfCurve has the required properties."""
    thresholds = np.asarray(curve.thresholds)
    exceedance = np.asarray(curve.exceedance)
    top = 1e3 if metric == "peb" else 1e2
    counts = exceedance * trials
    if curve.metric != metric or curve.trials != trials:
        return f"curve for {curve.metric}/{curve.trials}, asked for {metric}/{trials}"
    if len(thresholds) != len(exceedance) or len(thresholds) < 2:
        return "thresholds and exceedance differ in length"
    ratios = thresholds[1:] / thresholds[:-1]
    if not (np.isclose(thresholds[0], 1e-3) and np.isclose(thresholds[-1], top)
            and np.allclose(ratios, ratios[0]) and ratios[0] > 1.0):
        return "threshold grid is not log-spaced over the metric's range"
    if np.any(np.diff(exceedance) > 0.0) or exceedance.min() < 0.0 or exceedance.max() > 1.0:
        return "exceedance is not a non-increasing fraction"
    if not np.allclose(counts, np.round(counts), atol=1e-9):
        return "exceedance is not a count of trials"
    if not (0.0 <= curve.outage <= exceedance[-1]):
        return f"outage {curve.outage} above the curve floor {exceedance[-1]}"
    if not math.isclose(curve.outage * trials, round(curve.outage * trials), abs_tol=1e-9):
        return "outage is not a count of trials"
    return None


def outage_problem(config, outages, trials):
    """Problem string unless the pooled outage is within 4 binomial sigma of
    the visibility model's no-LOS probability."""
    dist = PoseDistribution()
    floor = no_los_probability_oracle(
        [b.position_m for b in config.bs], dist.x_m, dist.y_m, dist.z_m
    )
    observed = sum(outages) / trials
    band = 4.0 * math.sqrt(floor * (1.0 - floor) / trials)
    if abs(observed - floor) > band:
        return f"outage {observed:.4f} over {trials} trials, model floor {floor:.4f} +/- {band:.4f}"
    return None


def read_grid_csv(text):
    """(comment lines, header, rows) of a map or orient-sweep CSV."""
    lines = text.splitlines()
    comments = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    rows = list(csv.reader(body))
    return comments, rows[0], rows[1:]


def grid_problem(path, axis0, axis1, expect):
    """Problem string, or None when a grid CSV has one row per cell, finite
    bounds exactly on localizable cells, and the expected classification.

    expect is 'localizable' (every cell), 'planar' (the beta = 90 deg row
    all no_los) or None.
    """
    comments, header, rows = read_grid_csv(path.read_text(encoding="utf-8"))
    if len(comments) != 2 or header[2:] != ["peb_m", "oeb_deg", "classification", "num_paths"]:
        return f"{path}: unexpected header {header}"
    if len(rows) != len(axis0) * len(axis1):
        return f"{path}: {len(rows)} rows for {len(axis0) * len(axis1)} cells"
    for index, row in enumerate(rows):
        a, b = axis0[index // len(axis1)], axis1[index % len(axis1)]
        if not (math.isclose(float(row[0]), a, abs_tol=1e-9) and math.isclose(float(row[1]), b, abs_tol=1e-9)):
            return f"{path}: row {index} is at ({row[0]}, {row[1]}), expected ({a}, {b})"
        finite = math.isfinite(float(row[2])) and math.isfinite(float(row[3]))
        localizable = row[4] == "localizable"
        if finite != localizable:
            return f"{path}: row {index} is {row[4]} with bounds {row[2]}, {row[3]}"
        if expect == "localizable" and not localizable:
            return f"{path}: row {index} is {row[4]}, the layout sees two BSs everywhere"
        if expect == "planar" and a == 90.0 and row[4] != "no_los":
            return f"{path}: beta 90 deg points the planar boresight away from every BS, got {row[4]}"
    return None
