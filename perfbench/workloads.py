"""The four workloads: set-up, timed phase, output checks and traced run.

Each workload drives one public entry point of thzloc.  An operation is
one call into that entry point; it fails if it raises or if its output
check fails.  Checks that need a whole run (outage statistics, the oracle
reference poses, worker equivalence) run after the timed phase and set
``problems``, which makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import thzloc.cli
from checks import (
    ccdf_problem,
    check_against_oracle,
    grid_problem,
    outage_problem,
    read_grid_csv,
    usable_reference,
)
from thzloc import (
    COMM_ONLY,
    LOCALIZABLE,
    NO_LOS,
    EulerAngles,
    PanelConfig,
    Pose,
    PoseDistribution,
    coverage_ccdf,
    euler_to_rotation,
    evaluate_pose,
    load_config,
    orientation_field,
    position_field,
    preset,
    sample_pose,
)
from speed import Speed
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = Path(__file__).resolve().parent
DIST = PoseDistribution()

# Trials per coverage_ccdf call.  Short calls give a run many host-speed
# measurements (see speed.py) and many calls for the median: a 20 s run
# makes 150 to 200.
BATCH = 10
# Calls whose poses are searched for oracle reference poses.
REFERENCE_CALLS = 20
# Traced runs evaluate a fixed number of poses per second of --seconds, so
# their work counts repeat exactly for a given seed and run length.
TRACE_POSES_PER_S = 20
TRACE_BATCH = 20


def op_seed(seed: int, index: int) -> int:
    """Program seed of call `index`: distinct per call, fixed by --seed."""
    return seed * 100_000 + index


class Ops:
    """Counts and latencies of calls into a workload's entry point.

    With a Speed, each latency is scaled to the reference host speed
    measured right after the call; wall_s keeps the unscaled times.
    """

    def __init__(self, speed=None):
        self.speed = speed
        self.latencies_s = []
        self.wall_s = []
        self.poses = 0
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def call(self, fn, poses, check):
        """Time fn(); check its output outside the timing; None on failure."""
        self.attempted += 1
        start = perf_counter()
        try:
            out = fn()
        except Exception as exc:  # a raising call is a failed operation
            self.failed += 1
            self.errors.append(f"raised {exc!r}")
            return None
        wall = perf_counter() - start
        elapsed = self.speed.scaled(wall) if self.speed else wall
        problem = check(out)
        if problem:
            self.failed += 1
            self.errors.append(problem)
            return None
        self.wall_s.append(wall)
        self.latencies_s.append(elapsed)
        self.poses += poses
        return out

    @property
    def ms_per_pose(self):
        return sum(self.latencies_s) * 1e3 / self.poses


def result_problem(result):
    """Problem string unless a BoundResult is internally consistent."""
    finite = math.isfinite(result.peb_m)
    if finite != math.isfinite(result.oeb_deg) or result.num_paths != len(result.paths):
        return f"inconsistent result {result.classification} {result.peb_m} {result.oeb_deg}"
    expected = {0: NO_LOS, 1: COMM_ONLY}.get(
        result.num_visible_bs, LOCALIZABLE if finite else COMM_ONLY
    )
    if result.classification != expected or (finite and result.peb_m <= 0.0):
        return f"{result.num_visible_bs} visible BSs labelled {result.classification}"
    return None


def load_preset_file(name):
    """Scenario loaded from configs/, which must equal the built-in preset."""
    config = load_config(ROOT / "configs" / f"{name}.yaml")
    if config != preset(name):
        raise SystemExit(f"configs/{name}.yaml no longer equals preset {name!r}")
    return config


def wide_problem(config):
    """Problem string unless the wide scenario is planar-2bs with larger panels."""
    base = preset("planar-2bs")
    if [b.panel for b in config.bs] != [PanelConfig(16, 16)] * len(base.bs):
        return "wide scenario BS panels are not 16x16"
    if [s.panel for s in config.subarrays] != [PanelConfig(8, 8)] * len(base.subarrays):
        return "wide scenario UE subarrays are not 8x8"
    same_panels = dataclasses.replace(
        config,
        bs=tuple(dataclasses.replace(b, panel=p.panel) for b, p in zip(config.bs, base.bs)),
        subarrays=tuple(
            dataclasses.replace(s, panel=p.panel) for s, p in zip(config.subarrays, base.subarrays)
        ),
    )
    return None if same_panels == base else "wide scenario differs from planar-2bs beyond panel sizes"


def oracle_problems(config, candidates, wanted):
    """Oracle check of the first `wanted` usable (pose, seed, trial, result)."""
    scn = config.realize()
    problems, checked = [], 0
    for pose, seed, trial, result in candidates:
        if checked == wanted:
            break
        if result.localizable and usable_reference(scn, pose, result.peb_m):
            checked += 1
            problem = check_against_oracle(
                config, scn, pose, seed, trial, result.num_paths, result.peb_m, result.oeb_deg
            )
            if problem:
                problems.append(f"reference seed {seed} trial {trial}: {problem}")
    if checked < wanted:
        problems.append(f"only {checked} of {wanted} reference poses found")
    return problems


def field_metrics(jobs):
    """Serial ms/cell of each field function and the two-worker speedup.

    jobs is a list of (function, kwargs).  The two-worker grids must equal
    the serial ones, NaN included.
    """
    serial_s = {orientation_field: 0.0, position_field: 0.0}
    cells = {orientation_field: 0, position_field: 0}
    pooled_s, problems = 0.0, []
    for fn, kwargs in jobs:
        start = perf_counter()
        serial = fn(threads=1, **kwargs)
        middle = perf_counter()
        pooled = fn(threads=2, **kwargs)
        pooled_s += perf_counter() - middle
        serial_s[fn] += middle - start
        cells[fn] += serial.classification.size
        same = all(
            np.array_equal(getattr(serial, k), getattr(pooled, k), equal_nan=True)
            for k in ("peb_m", "oeb_deg", "num_paths")
        ) and np.array_equal(serial.classification, pooled.classification)
        if not same:
            problems.append(f"{fn.__name__} with 2 workers differs from the serial grid")
    metrics = {
        "coverage.orientation_field.ms_per_cell": (serial_s[orientation_field] * 1e3 / cells[orientation_field], "ms"),
        "coverage.position_field.ms_per_cell": (serial_s[position_field] * 1e3 / cells[position_field], "ms"),
        "coverage.pool.speedup": (sum(serial_s.values()) / pooled_s, "ratio"),
    }
    return metrics, problems


def coarse_field_jobs(config):
    """Small orientation and position grids of a scenario, for the traced
    run of workloads that do not sweep fields themselves."""
    return [
        (orientation_field, dict(config=config, position=(0.0, 0.0, 0.0), step_deg=30.0)),
        (position_field, dict(config=config, orientation=EulerAngles(0.0, -90.0, 45.0),
                              grid=(-10.0, 10.0, 5.0))),
    ]


class Coverage:
    """Serial coverage_ccdf over random poses, BATCH trials per call."""

    def __init__(self, name, scenario, metric, check_outage, reference_poses):
        self.name, self.scenario, self.metric = name, scenario, metric
        self.check_outage, self.reference_poses = check_outage, reference_poses
        self.scenario_files = [scenario]

    def setup(self, seed):
        self.seed = seed
        path = ROOT / self.scenario
        if path.parent == BENCH_DIR:
            self.config = load_config(path)
            problem = wide_problem(self.config)
            if problem:
                raise SystemExit(problem)
        else:
            self.config = load_preset_file(path.stem)
        self.scn = self.config.realize()
        evaluate_pose(self.config, sample_pose(DIST, seed, 0), seed=seed)

    def timed(self, seconds):
        self.ops, self.outages = Ops(Speed()), []
        start, index = perf_counter(), 0
        while perf_counter() - start < seconds:
            seed = op_seed(self.seed, index)
            curve = self.ops.call(
                lambda: coverage_ccdf(self.config, BATCH, metric=self.metric, seed=seed),
                BATCH,
                lambda c: ccdf_problem(c, self.metric, BATCH),
            )
            if curve is not None:
                self.outages.append(round(curve.outage * BATCH))
            index += 1
        return self.ops, self.ops.latencies_s

    def check(self):
        problems = []
        if self.check_outage:
            problem = outage_problem(self.config, self.outages, len(self.outages) * BATCH)
            if problem:
                problems.append(problem)

        def candidates():
            for index in range(REFERENCE_CALLS):
                seed = op_seed(self.seed, index)
                for trial in range(BATCH):
                    pose = sample_pose(DIST, seed, trial)
                    yield pose, seed, trial, evaluate_pose(self.config, pose, seed=seed, trial=trial)

        return problems + oracle_problems(self.config, candidates(), self.reference_poses)

    def traced(self, seconds):
        ops, tracer, problems = Ops(), Tracer(), []
        batches = max(1, int(seconds * TRACE_POSES_PER_S) // TRACE_BATCH)
        for index in range(batches):
            seed = op_seed(self.seed, index)
            curve = ops.call(
                lambda: coverage_ccdf(self.config, TRACE_BATCH, metric=self.metric, seed=seed),
                TRACE_BATCH,
                lambda c: ccdf_problem(c, self.metric, TRACE_BATCH),
            )
            values = []
            for trial in range(TRACE_BATCH):
                traced = tracer.run(
                    self.scn,
                    lambda: sample_pose(DIST, seed, trial),
                    seed,
                    trial,
                    lambda pose: evaluate_pose(self.config, pose, seed=seed, trial=trial),
                )
                values.append(traced[1] if self.metric == "peb" else traced[2])
            if curve is not None:
                counts = [np.count_nonzero(np.array(values) > t) for t in curve.thresholds]
                if not np.array_equal(np.array(counts) / TRACE_BATCH, curve.exceedance):
                    problems.append(f"traced CCDF of call {index} differs from coverage_ccdf")
        metrics = tracer.metrics(ops.ms_per_pose)
        fields, field_problems = field_metrics(coarse_field_jobs(
            dataclasses.replace(self.config, seed=self.seed)))
        metrics.update(fields)
        return metrics, ops, problems + field_problems + tracer.mismatches


class SinglePose:
    """evaluate_pose on cuboidal-3bs, one random pose per call."""

    name = "single-pose"
    scenario_files = ["configs/cuboidal-3bs.yaml"]

    def setup(self, seed):
        self.seed = seed
        self.config = load_preset_file("cuboidal-3bs")
        self.scn = self.config.realize()
        evaluate_pose(self.config, sample_pose(DIST, seed, 0), seed=seed)

    def timed(self, seconds):
        self.ops, self.results = Ops(Speed()), []
        start, trial = perf_counter(), 0
        while perf_counter() - start < seconds:
            trial += 1
            pose = sample_pose(DIST, self.seed, trial)
            result = self.ops.call(
                lambda: evaluate_pose(self.config, pose, seed=self.seed, trial=trial), 1, result_problem
            )
            if result is not None and len(self.results) < 200:
                self.results.append((pose, self.seed, trial, result))
        return self.ops, self.ops.latencies_s

    def check(self):
        problems = oracle_problems(self.config, iter(self.results), 2)
        localizable = [r for r in self.results if r[3].localizable]
        if not localizable:
            return problems + ["no localizable pose for the transmit-power check"]
        pose, seed, trial, result = localizable[0]
        louder = dataclasses.replace(
            self.config,
            signal=dataclasses.replace(
                self.config.signal, power_dbm=self.config.signal.power_dbm + 10.0 * math.log10(4.0)
            ),
        )
        ratio = evaluate_pose(louder, pose, seed=seed, trial=trial).peb_m / result.peb_m
        if abs(ratio - 0.5) > 1e-9:
            problems.append(f"4x transmit power scales PEB by {ratio!r}, not 1/2")
        return problems

    def traced(self, seconds):
        ops, tracer = Ops(), Tracer()
        sampling_s = 0.0
        for trial in range(1, int(seconds * TRACE_POSES_PER_S * 2) + 1):
            start = perf_counter()
            pose = sample_pose(DIST, self.seed, trial)
            sampling_s += perf_counter() - start
            result = ops.call(
                lambda: evaluate_pose(self.config, pose, seed=self.seed, trial=trial), 1, result_problem
            )
            tracer.run(
                self.scn, lambda: sample_pose(DIST, self.seed, trial), self.seed, trial,
                lambda _pose: result,
            )
        metrics = tracer.metrics((sampling_s + sum(ops.latencies_s)) * 1e3 / tracer.poses)
        fields, problems = field_metrics(coarse_field_jobs(
            dataclasses.replace(self.config, seed=self.seed)))
        metrics.update(fields)
        return metrics, ops, problems + tracer.mismatches


def _axis(start, stop, step):
    # Grid axis as thzloc.coverage builds it.
    return start + step * np.arange(int(round((stop - start) / step)) + 1)


SWEEP_STEP_DEG = 30.0
MAP_GRID = (-10.0, 10.0, 2.0)
MAP_ORIENTATION = EulerAngles(0.0, -90.0, 45.0)


@dataclasses.dataclass(frozen=True)
class Command:
    """One thzloc CLI call of the fields-cli workload and its expectations."""

    kind: str
    preset: str
    expect: str | None

    def axes(self):
        if self.kind == "map":
            xs = _axis(*MAP_GRID)
            return xs, xs
        betas = _axis(0.0, 360.0, SWEEP_STEP_DEG)
        return betas, betas

    def argv(self, seed, out, threads=2, coarse=False):
        if self.kind == "map":
            grid = (-10, 10, 5) if coarse else MAP_GRID
            extra = ["--grid=" + ",".join(f"{v:g}" for v in grid)]
        else:
            extra = ["--step", "45" if coarse else str(SWEEP_STEP_DEG)]
        return [self.kind, "--preset", self.preset, *extra, "--threads", str(threads),
                "--seed", str(seed), "--out", str(out)]

    def pose(self, index):
        """Pose of grid cell `index`, built as thzloc.coverage builds it."""
        first, second = self.axes()
        a, b = first[index // len(second)], second[index % len(second)]
        if self.kind == "map":
            return Pose(np.array([a, b, 0.0]), euler_to_rotation(MAP_ORIENTATION))
        return Pose(np.asarray((0.0, 0.0, 0.0), dtype=float),
                    euler_to_rotation(EulerAngles(0.0, a, b)))

    def field_job(self, config):
        if self.kind == "map":
            return position_field, dict(config=config, orientation=MAP_ORIENTATION, grid=MAP_GRID)
        return orientation_field, dict(config=config, position=(0.0, 0.0, 0.0), step_deg=SWEEP_STEP_DEG)


COMMANDS = (
    Command("orient-sweep", "planar-2bs", "planar"),
    Command("orient-sweep", "cuboidal-2bs", "localizable"),
    Command("map", "cuboidal-4bs", "localizable"),
)


def run_cli(argv):
    """thzloc.cli.main in-process with its stderr report captured."""
    with contextlib.redirect_stderr(io.StringIO()):
        return thzloc.cli.main(argv)


class FieldsCli:
    """thzloc.cli.main for two orientation sweeps and one position map."""

    name = "fields-cli"
    scenario_files = [f"configs/{c.preset}.yaml" for c in COMMANDS]

    def setup(self, seed):
        self.seed = seed
        self.configs = {c.preset: load_preset_file(c.preset) for c in COMMANDS}
        for config in self.configs.values():
            config.realize()
        evaluate_pose(self.configs["cuboidal-4bs"], sample_pose(DIST, seed, 0), seed=seed)
        self.tmp = tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-")

    def _csv_check(self, command, path, first):
        def check(code):
            if code != 0:
                return f"{command.kind} {command.preset} exited {code}"
            data = path.read_bytes()
            if command in first:
                return None if data == first[command] else f"{path.name}: rerun is not byte-identical"
            first[command] = data
            return grid_problem(path, *command.axes(), command.expect)
        return check

    def timed(self, seconds):
        """Whole rounds of the three commands; a request is one round, the
        maps a study needs, since the commands differ fivefold in size."""
        with Speed(processes=2) as speed:
            return self._timed(seconds, speed)

    def _timed(self, seconds, speed):
        self.ops, self.outputs, rounds_s = Ops(speed), {}, []
        start = perf_counter()
        while perf_counter() - start < seconds:
            done = len(self.ops.latencies_s)
            for i, command in enumerate(COMMANDS):
                path = Path(self.tmp.name) / f"{i}.csv"
                cells = len(command.axes()[0]) * len(command.axes()[1])
                self.ops.call(
                    lambda: run_cli(command.argv(self.seed, path)), cells,
                    self._csv_check(command, path, self.outputs),
                )
            if len(self.ops.latencies_s) == done + len(COMMANDS):
                rounds_s.append(sum(self.ops.latencies_s[done:]))
        return self.ops, rounds_s

    def check(self):
        problems = []
        for command in COMMANDS[1:]:
            outputs = []
            for threads in (1, 2):
                path = Path(self.tmp.name) / f"coarse-{threads}.csv"
                code = run_cli(command.argv(self.seed, path, threads=threads, coarse=True))
                outputs.append((code, path.read_bytes() if code == 0 else None))
            if outputs[0] != outputs[1] or outputs[0][0] != 0:
                problems.append(f"{command.kind} {command.preset}: 2 workers differ from serial")
        # One oracle-checked cell per CSV, at a seed-chosen place in the grid.
        rng = np.random.default_rng(self.seed)
        for command in COMMANDS[1:]:
            if command not in self.outputs:
                problems.append(f"no output of {command.kind} {command.preset} to check")
                continue
            rows = read_grid_csv(self.outputs[command].decode())[2]
            candidates = (
                (command.pose(int(i)), self.seed, int(i), SimpleNamespace(
                    localizable=rows[i][4] == LOCALIZABLE, peb_m=float(rows[i][2]),
                    oeb_deg=float(rows[i][3]), num_paths=int(rows[i][5])))
                for i in rng.permutation(len(rows))
            )
            config = dataclasses.replace(self.configs[command.preset], seed=self.seed)
            problems += [f"{command.kind} {command.preset}: {p}"
                         for p in oracle_problems(config, candidates, 1)]
        return problems

    def traced(self, seconds):
        configs = {name: dataclasses.replace(c, seed=self.seed) for name, c in self.configs.items()}
        scns = {name: config.realize() for name, config in configs.items()}
        fields, problems = field_metrics([c.field_job(configs[c.preset]) for c in COMMANDS])
        ops, tracer = Ops(), Tracer()
        # Cells evenly spaced over the three grids in turn, each traced and
        # then evaluated untraced by evaluate_pose as the field does.
        sizes = [len(c.axes()[0]) * len(c.axes()[1]) for c in COMMANDS]
        picks = np.linspace(0, sum(sizes) - 1, int(seconds * TRACE_POSES_PER_S)).astype(int)
        offsets = np.cumsum([0] + sizes)
        posing_s = 0.0
        for flat in picks:
            which = int(np.searchsorted(offsets, flat, side="right")) - 1
            command, index = COMMANDS[which], int(flat - offsets[which])
            config = configs[command.preset]
            start = perf_counter()
            command.pose(index)
            posing_s += perf_counter() - start
            tracer.run(
                scns[command.preset], lambda: command.pose(index), self.seed, index,
                lambda pose: ops.call(
                    lambda: evaluate_pose(config, pose, trial=index), 1, result_problem),
            )
        metrics = tracer.metrics((posing_s + sum(ops.latencies_s)) * 1e3 / tracer.poses)
        metrics.update(fields)
        return metrics, ops, problems + tracer.mismatches

    def close(self):
        self.tmp.cleanup()


WORKLOADS = {
    w.name: w
    for w in (
        Coverage("coverage-cuboidal-4bs", "configs/cuboidal-4bs.yaml", "peb",
                 check_outage=False, reference_poses=2),
        Coverage("coverage-planar-2bs-wide", "perfbench/planar-2bs-wide.yaml", "oeb",
                 check_outage=True, reference_poses=1),
        FieldsCli(),
        SinglePose(),
    )
}
