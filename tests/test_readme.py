"""The README's library example runs against the current API."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    norm_sq, res, masses = capsys.readouterr().out.splitlines()
    # the comments in the example: ~ 2, <= 2/sqrt(2), ~ [1, 1]
    assert abs(float(norm_sq) - 2.0) < 0.01
    assert float(res) <= 2.0 / 2.0**0.5
    masses = ast.literal_eval(masses)
    assert len(masses) == 2 and all(abs(m - 1.0) < 0.02 for m in masses)
