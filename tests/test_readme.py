"""The README's config example and library sketch work as written."""

import re
from pathlib import Path

from demapsim.harness import EXPERIMENTS, load_config, validate_config

README = (Path(__file__).parent.parent / "README.md").read_text()


def readme_block(lang: str) -> str:
    (body,) = re.findall(rf"^```{lang}\n(.*?)^```", README, re.MULTILINE | re.DOTALL)
    return body


def test_config_example_validates(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(readme_block("yaml"))
    cfg = load_config(path)
    for experiment in EXPERIMENTS:
        validate_config(cfg, experiment)


def test_library_sketch_runs():
    exec(readme_block("python"), {})
