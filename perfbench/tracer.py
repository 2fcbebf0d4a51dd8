"""Per-layer timing by a benchmark-side copy of ``evaluate_bounds``.

The copy calls the same public functions in the same order as
``thzloc.crb.evaluate_bounds`` and times each call, so it follows today's
call graph.  Every traced pose is compared bit for bit with
``evaluate_pose``; a mismatch means the copy no longer matches the program
and the traced run fails.  Once a kernel changes that call graph, spans
inside the package replace this copy.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter_ns

import numpy as np

from thzloc import (
    GeometryError,
    constrained_crb,
    constraint_basis,
    draw_beamformers,
    error_bounds,
    path_fim,
    path_params,
    state_fim,
    state_jacobian,
    visible_paths,
)
from thzloc.channel import path_gain
from thzloc.crb import classify_localizability

# Layers timed around each call, in call order.
LAYERS = (
    "coverage.pose",
    "geometry.visible_paths",
    "geometry.path_params",
    "channel.draw_beamformers",
    "crb.state_jacobian",
    "crb.path_fim",
    "crb.constrained_crb",
)


class Tracer:
    """Accumulates per-layer time and work counts over traced poses."""

    def __init__(self):
        self.ns = defaultdict(int)
        self.poses = 0
        self.paths = 0
        self.phases = 0
        self.no_los = 0
        self.with_paths = 0
        self.finite = 0
        self.wall_ns = 0
        self.mismatches = []

    def pose(self, make_pose):
        """Build a pose with the workload's pose generator, timed."""
        start = perf_counter_ns()
        pose = make_pose()
        self.ns["coverage.pose"] += perf_counter_ns() - start
        return pose

    def bounds(self, scn, pose, seed, trial):
        """(classification, peb_m, oeb_deg) as evaluate_bounds computes them."""
        ns = self.ns
        t0 = perf_counter_ns()
        pairs = visible_paths(scn.bs_poses, pose, scn.subarrays)
        t1 = perf_counter_ns()
        ns["geometry.visible_paths"] += t1 - t0
        num_visible_bs = len({m for m, _ in pairs})
        fims, jacobians = [], []
        degenerate = False
        for m, n in pairs:
            sub = scn.subarrays[n]
            t0 = perf_counter_ns()
            params = path_params(scn.bs_poses[m], pose, sub, scn.clock_bias_s)
            gain = path_gain(params.distance, scn.signal.wavelength_m)
            t1 = perf_counter_ns()
            beams = draw_beamformers(
                seed, m, n, scn.signal.num_transmissions,
                sub.elements.shape[0], scn.bs_elements[m].shape[0], trial=trial,
            )
            t2 = perf_counter_ns()
            ns["geometry.path_params"] += t1 - t0
            ns["channel.draw_beamformers"] += t2 - t1
            self.phases += beams.ue.size + beams.bs.size
            try:
                jacobians.append(state_jacobian(scn.bs_poses[m], pose, sub))
            except GeometryError:
                degenerate = True
                break
            finally:
                t3 = perf_counter_ns()
                ns["crb.state_jacobian"] += t3 - t2
            fims.append(path_fim(params, gain, beams, scn.bs_elements[m], sub.elements, scn.signal))
            ns["crb.path_fim"] += perf_counter_ns() - t3

        t0 = perf_counter_ns()
        crb_matrix = None
        if pairs and not degenerate:
            fim = state_fim(fims, jacobians)
            crb_matrix, _ = constrained_crb(fim, constraint_basis(pose.rotation))
        if crb_matrix is None:
            peb = oeb = np.inf
        else:
            peb, _, oeb = error_bounds(crb_matrix)
        ns["crb.constrained_crb"] += perf_counter_ns() - t0

        self.poses += 1
        self.paths += len(pairs)
        self.no_los += not pairs
        self.with_paths += bool(pairs)
        self.finite += bool(pairs) and bool(np.isfinite(peb))
        return classify_localizability(num_visible_bs, crb_matrix is not None), peb, oeb

    def run(self, scn, make_pose, seed, trial, reference):
        """Trace one pose and compare it with reference(pose), a BoundResult
        or None if that call failed; returns the traced bounds."""
        start = perf_counter_ns()
        pose = self.pose(make_pose)
        traced = self.bounds(scn, pose, seed, trial)
        self.wall_ns += perf_counter_ns() - start
        result = reference(pose)
        expected = result and (result.classification, result.peb_m, result.oeb_deg)
        if traced != expected:
            self.mismatches.append(f"trial {trial}: traced {traced}, evaluate_pose {expected}")
        return traced

    def metrics(self, untraced_ms_per_pose):
        """Per-layer ms/pose, the unattributed rest, overhead and work counts."""
        per_pose = {name: self.ns[name] / 1e6 / self.poses for name in LAYERS}
        out = {f"{name}.ms_per_pose": (value, "ms") for name, value in per_pose.items()}
        out["trace.unattributed.ms_per_pose"] = (untraced_ms_per_pose - sum(per_pose.values()), "ms")
        out["trace.overhead.ms_per_pose"] = (self.wall_ns / 1e6 / self.poses - untraced_ms_per_pose, "ms")
        out["geometry.paths_per_pose"] = (self.paths / self.poses, "count")
        out["geometry.no_los_ratio"] = (self.no_los / self.poses, "ratio")
        out["channel.phases_per_pose"] = (self.phases / self.poses, "count")
        out["crb.finite_ratio"] = (self.finite / max(1, self.with_paths), "ratio")
        return out
