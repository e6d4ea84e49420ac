"""The README's examples run as written."""

import re
from pathlib import Path

from lerchlab.harness import load_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced_blocks(lang: str) -> list[str]:
    """The bodies of the README's fenced blocks tagged ``lang``."""
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)
    return [body for tag, body in blocks if tag == lang]


def test_library_quick_start_runs():
    exec(compile(fenced_blocks("python")[0], "README.md", "exec"), {})


def test_suite_config_example_loads(tmp_path):
    example, = [b for b in fenced_blocks("") if b.startswith("# suite.cfg")]
    path = tmp_path / "suite.cfg"
    path.write_text(example)
    cfg = load_config(path)
    assert cfg["seed"] == 7
    assert cfg["groups"] == ["functional_equations", "adjoint"]
