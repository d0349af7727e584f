"""The package's surface against its docs: the names each module exports,
and the command lines that README shows."""

import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import cadps
from cadps.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(m.name for m in pkgutil.iter_modules(cadps.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    # a stale __all__ entry breaks ``from cadps.<module> import *``
    module = importlib.import_module(f"cadps.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def _readme_commands(program):
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", (ROOT / "README.md").read_text(), re.S | re.M)
    lines = (line.split("#", 1)[0].strip() for block in blocks for line in block.splitlines())
    return [shlex.split(line)[1:] for line in lines if line.split(" ", 1)[0] == program]


def test_readme_cli_commands_parse():
    commands = _readme_commands("cadps")
    assert len(commands) >= 4
    for argv in commands:
        build_parser().parse_args(argv)


def test_readme_demo_scripts_exist():
    scripts = _readme_commands("python3")
    assert scripts
    for argv in scripts:
        assert (ROOT / argv[0]).is_file(), argv[0]
