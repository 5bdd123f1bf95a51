"""The README's Python API example runs as written, its command lines
parse, and its Command line section names every CLI option and no other."""

import re
import shlex
from pathlib import Path

import pytest

from qelectra import cli
from qelectra.pauli import mapping_from_name

README = Path(__file__).resolve().parents[1] / "README.md"


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
