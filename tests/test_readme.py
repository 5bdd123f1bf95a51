"""The README's Python API example runs as written, its command lines
parse, its Command line section names every CLI option and no other, and
every package name it writes in backticks exists."""

import dataclasses
import importlib
import re
import shlex
from pathlib import Path

import pytest

from qelectra import cli
from qelectra.pauli import mapping_from_name
from qelectra.pipeline import AssembledSystem

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = README.parent / "src" / "qelectra"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py")
                 if path.stem != "__init__")
SYSTEM_NAMES = set(dir(AssembledSystem)) | {
    field.name for field in dataclasses.fields(AssembledSystem)}


def unresolved_names(text):
    """Each `module.name` of a package module, and each `system.name`,
    written in an inline code span of `text` (code blocks aside) that is
    not an attribute of that module, or of `AssembledSystem`."""
    prose = re.sub(r"```.*?```", "", text, flags=re.S)
    dotted = re.compile(r"(?<![\w.])(%s)\.(\w+)" % "|".join(
        MODULES + ["system"]))
    missing = []
    for span in re.findall(r"`([^`]+)`", prose):
        for owner, name in dotted.findall(span):
            known = (name in SYSTEM_NAMES if owner == "system" else hasattr(
                importlib.import_module(f"qelectra.{owner}"), name))
            if not known:
                missing.append(f"{owner}.{name}")
    return missing


def test_the_name_check_sees_a_removed_name():
    text = ("`pauli.decode_states` and `system.sector`, `oracle.basis_lookup`"
            " and `system.mapping_name`; `tests/pauli_oracle.py` and "
            "`np.arange`\n```\npauli.nothing\n```\n")
    assert unresolved_names(text) == ["pauli.decode_states",
                                      "system.mapping_name"]


def test_every_backticked_package_name_exists():
    assert unresolved_names(README.read_text()) == []


def test_python_api_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    e_hf, e_vqe, e_fci = (float(v) for v in capsys.readouterr().out.split())
    # variational ordering, with VQE at the (2e, 5o) LiH FCI energy
    assert e_fci <= e_vqe < e_hf
    assert e_vqe - e_fci < 1e-8


def test_command_lines_parse():
    # every `qelectra ...` line of a plain code block goes through the
    # parser and the value checks main applies, without running anything
    blocks = re.findall(r"```\n(.*?)```", README.read_text(), re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("qelectra ")]
    assert len(lines) >= 6
    parser = cli.build_parser()
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command line does not parse: {line}")
        cli._parse_methods(args.method)
        cli._parse_active(args.active_space)
        cli._parse_shots(args.shots)
        mapping_from_name(args.mapping)
        if args.scan:
            cli._parse_scan(args.scan)


def test_command_line_section_names_exactly_the_parser_options():
    # a removed flag left in the prose, or a new one left out of it, fails
    text = README.read_text()
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*[a-z]", section))
    options = {option for action in cli.build_parser()._actions
               for option in action.option_strings
               if option.startswith("--")} - {"--help", "--version"}
    assert named - options == set(), "README names flags the CLI lacks"
    assert options - named == set(), "README leaves CLI flags out"
