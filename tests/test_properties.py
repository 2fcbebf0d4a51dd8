"""Property tests at the input boundary: scenario mappings and CLI values.

Every input ends either in a result or in exit 2 with one line on stderr,
never in a traceback or exit 1.  Only `bounds` evaluates; `map`,
`orient-sweep`, `coverage` and `validate` stop where their evaluation
would start, so the examples stay cheap.
"""

import contextlib
import io
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from thzloc import PRESET_NAMES, parse_config, preset
from thzloc.cli import EXIT_CONFIG_ERROR, EXIT_NOT_LOCALIZABLE, EXIT_OK, main
from thzloc.coverage import MAX_WORKERS
from thzloc.errors import ConfigError
from thzloc.scenario import ScenarioConfig, config_to_mapping

EDGE_NUMBERS = [0, -1, 2**31, 2**64, 10**400, -(10**400), 1e308, -0.0, 5e-324,
                math.inf, -math.inf, math.nan]
NUMBERS = st.one_of(st.sampled_from(EDGE_NUMBERS), st.integers(), st.floats())
VALUES = st.one_of(
    NUMBERS, st.booleans(), st.none(), st.text(max_size=6), st.lists(NUMBERS, max_size=4),
    st.dictionaries(st.text(max_size=3), NUMBERS, max_size=2),
)
KEYS = st.one_of(st.text(max_size=8), st.integers(), st.none(), st.booleans())


def _paths(node, path=()):
    """Paths to every entry of a nested mapping, the root first."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


@st.composite
def scenario_mappings(draw):
    """A preset's mapping with one to three entries, at any depth, replaced
    or removed, or with entries added to a mapping or list."""
    doc = config_to_mapping(preset(draw(st.sampled_from(PRESET_NAMES))))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        node = doc
        for key in path[:-1]:
            node = node[key]
        if not path or draw(st.booleans()) and isinstance(node[path[-1]], (dict, list)):
            target = node[path[-1]] if path else doc
            if isinstance(target, dict):
                target.update(draw(st.dictionaries(KEYS, VALUES, min_size=1, max_size=2)))
            else:
                target.append(draw(VALUES))
        elif draw(st.booleans()):
            # A number is replaced by another number half of the time.
            number = isinstance(node[path[-1]], (int, float)) and draw(st.booleans())
            node[path[-1]] = draw(NUMBERS if number else VALUES)
        else:
            del node[path[-1]]
    return doc


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scenario_mappings())
def test_parse_config_returns_a_scenario_or_a_one_line_config_error(doc):
    try:
        config = parse_config(doc)
    except ConfigError as exc:
        assert "\n" not in str(exc)
    else:
        assert isinstance(config, ScenarioConfig)


def _numbers_text(count):
    """count comma-separated numbers, mostly in the room and finite; or
    another count; or any text."""
    number = st.one_of(st.floats(-20.0, 20.0), st.floats(), st.sampled_from([1e308, 5e-324]))
    exact = st.lists(number, min_size=count, max_size=count)
    return st.one_of(exact, exact, exact, st.lists(number, max_size=count + 1)).map(
        lambda values: ",".join(map(repr, values))
    ) | st.text(max_size=12)


SEEDS = st.one_of(st.integers(min_value=0), st.integers(), st.sampled_from([2**32, 2**200]))
# Never a valid count above 1: no worker pool is started here.
THREADS = st.sampled_from([1, 1, 1, 0, -3, MAX_WORKERS + 1, 10**30])
FLOATS = st.one_of(st.floats(), st.sampled_from([1e-9, 1e308, 5e-324]))


@st.composite
def command_lines(draw, out_targets):
    command = draw(st.sampled_from(["bounds", "map", "orient-sweep", "coverage", "validate"]))
    argv = [command, f"--preset={draw(st.sampled_from(PRESET_NAMES))}"]
    flags = {"--seed": SEEDS, "--threads": THREADS}
    if command != "validate":
        flags["--out"] = st.sampled_from(out_targets)
    flags.update({
        "bounds": {"--position": _numbers_text(3), "--orientation": _numbers_text(3)},
        "map": {"--orientation": _numbers_text(3), "--grid": _numbers_text(3), "--z": FLOATS},
        "orient-sweep": {"--position": _numbers_text(3), "--step": FLOATS, "--alpha": FLOATS},
        "coverage": {"--trials": st.integers(), "--metric": st.sampled_from(["peb", "oeb"])},
        "validate": {"--trials": st.integers()},
    }[command])
    for flag, values in flags.items():
        if command == "bounds" and flag in ("--position", "--orientation") or draw(st.booleans()):
            argv.append(f"{flag}={draw(values)}")
    return argv


class _Evaluated(Exception):
    """Raised where a command other than bounds would start evaluating."""


def _stop(*args, **kwargs):
    raise _Evaluated


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_values_end_in_a_result_or_one_line_exit_2(tmp_path, data):
    (tmp_path / "dir").mkdir(exist_ok=True)
    outs = ["-", "-", str(tmp_path / "out.txt"), str(tmp_path / "dir"),
            str(tmp_path / "missing" / "x.csv"), ""]
    argv = data.draw(command_lines(outs))
    stdout, stderr = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("thzloc.coverage._run_ranges", _stop)
        patch.setattr("thzloc.validate.run_validation", _stop)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except _Evaluated:
                assert argv[0] != "bounds"
                return
    err = stderr.getvalue()
    if code == EXIT_CONFIG_ERROR:
        assert err.count("\n") == 1 and err.startswith("thzloc: error:"), (argv, err)
        assert stdout.getvalue() == ""
    else:
        assert argv[0] == "bounds" and code in (EXIT_OK, EXIT_NOT_LOCALIZABLE), (argv, code, err)
