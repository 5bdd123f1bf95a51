"""The README's Python API example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    e_hf, e_vqe, e_fci = (float(v) for v in capsys.readouterr().out.split())
    # variational ordering, with VQE at the (2e, 5o) LiH FCI energy
    assert e_fci <= e_vqe < e_hf
    assert e_vqe - e_fci < 1e-8
