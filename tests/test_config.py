"""The config loader's key table, README.md and the dataclass defaults
agree."""

import re
from pathlib import Path

from sparsesdr.config import _KEYS, RunConfig, load_run_config

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_config_example() -> str:
    """README's fenced `key = value` example: the block setting
    penalty.lambda."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(),
                        flags=re.S | re.M)
    return next(b for b in blocks if b.startswith("penalty.lambda"))


def test_every_key_is_named_in_readme():
    text = README.read_text()
    missing = [key for key in _KEYS
               if not re.search(rf"(?<![\w.]){re.escape(key)}(?![\w.])",
                                text)]
    assert missing == []


def test_readme_example_loads(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(readme_config_example())
    cfg = load_run_config(path)
    assert cfg.solver.penalty.lam == 32 and cfg.solver.rho == 2.0


def test_empty_file_gives_the_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    assert load_run_config(path) == RunConfig()
