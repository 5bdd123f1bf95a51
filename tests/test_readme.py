"""The README's Python API example runs as written, and its command lines
parse."""

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
