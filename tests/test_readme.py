"""The README's library example and quasimode config run against the current API."""

import ast
import re
from pathlib import Path

from catlab.cli import parse_config_file
from catlab.quasimodes import CONFIG, run_pipeline

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


def config_block():
    blocks = re.findall(r"^```\n(# exp\.cfg\n.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_config_block_names_every_key():
    # commented-out keys count: their defaults come from the run
    keys = re.findall(r"^#? ?(\w+) = ", config_block(), re.M)
    assert sorted(keys) == sorted(CONFIG)


def test_config_block_runs_at_the_defaults(tmp_path):
    # the block runs, and the keys whose comment names no other default
    # show CONFIG's
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(config_block())
    exp = run_pipeline(parse_config_file(str(cfg)))
    for key in ("delta", "phi", "C0", "c_sep", "c1", "G", "outputs"):
        assert exp.config[key] == CONFIG[key][1], key
