"""The README's code blocks run against the package as it is: the
library sketch executes, and the configuration block loads."""

import re
from pathlib import Path

import yaml

from contamsim.config import RunConfig

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(language: str) -> str:
    blocks = re.findall(rf"^```{language}\n(.*?)^```", README, re.M | re.S)
    assert len(blocks) == 1, f"expected one {language} block in the README"
    return blocks[0]


def test_library_sketch_runs():
    namespace = {}
    exec(compile(_block("python"), "README.md", "exec"), namespace)
    assert 0.0 <= namespace["report"].tv(10.0) <= 1.0


def test_configuration_block_loads():
    cfg = RunConfig.from_dict(yaml.safe_load(_block("yaml")))
    assert cfg.seed == 20230815 and cfg.age_params is None
