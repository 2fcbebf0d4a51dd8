"""README.md against the program it describes.

The Command line section must name every long option that a command's
`--help` lists, and `--version`, and every flag it names must be one that
some command accepts.  The Library layout must name every module of the
package as `thzloc.<module>`, and every `thzloc.<name>` the README names
must exist.  The first Quick start block must run.
"""

import contextlib
import importlib
import io
import pkgutil
import re
from pathlib import Path

import pytest

import thzloc
from thzloc.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
COMMANDS = ("bounds", "map", "orient-sweep", "coverage", "validate")
_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z-]*")


def _section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(rf"^## {re.escape(title)}\n(.*?)(?=^## |\Z)", text, re.M | re.S)
    assert match, f"README has no section {title!r}"
    return match.group(1)


def _help(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 0
    return out.getvalue()


def test_the_commands_are_those_the_program_lists():
    listed = re.search(r"\{([\w,-]+)\}", _help(["--help"])).group(1)
    assert listed.split(",") == list(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_the_command_line_section_names_every_listed_option(command):
    listed = set(_FLAG.findall(_help([command, "--help"])))
    assert "--help" in listed and len(listed) > 2
    missing = listed - set(_FLAG.findall(_section("Command line")))
    assert not missing, f"README's Command line section omits {sorted(missing)} of {command}"


def test_the_command_line_section_names_the_version_flag():
    assert _help(["--version"]).startswith("thzloc ")
    assert "--version" in _FLAG.findall(_section("Command line"))


def test_every_flag_the_command_line_section_names_is_accepted():
    named = set(_FLAG.findall(_section("Command line")))
    accepted = set(_FLAG.findall(_help(["--help"])))
    for command in COMMANDS:
        accepted |= set(_FLAG.findall(_help([command, "--help"])))
    unknown = named - accepted
    assert not unknown, f"README names flags that no command accepts: {sorted(unknown)}"


def test_the_library_layout_names_every_module():
    layout = _section("Library layout")
    modules = {m.name for m in pkgutil.iter_modules(thzloc.__path__)}
    assert {"crb", "cli", "geometry"} <= modules
    missing = {m for m in modules if not re.search(rf"`thzloc\.{m}[`.]", layout)}
    assert not missing, f"README's Library layout omits {sorted(missing)}"


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    obj = thzloc
    for i, part in enumerate(parts):
        if hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        try:
            obj = importlib.import_module(".".join(["thzloc"] + parts[: i + 1]))
        except ModuleNotFoundError:
            return False
    return True


def test_every_name_the_readme_gives_in_the_package_exists():
    names = set(re.findall(r"\bthzloc\.(\w+(?:\.\w+)*)", README.read_text(encoding="utf-8")))
    assert "crb.evaluate_batch" in names
    unknown = sorted(name for name in names if not _resolves(name))
    assert not unknown, f"README names thzloc.{unknown}, which do not exist"


def test_the_first_quick_start_block_runs():
    blocks = re.findall(r"```python\n(.*?)```", _section("Quick start"), re.S)
    assert blocks, "Quick start has no python block"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md Quick start", "exec"), {})
    assert out.getvalue().split()[0] == "localizable"
