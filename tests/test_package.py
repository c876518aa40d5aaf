"""Tests for the package's import surface and the README's library examples."""

import pkgutil
import re
from pathlib import Path

import pytest

import steprates

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
EXAMPLES = re.findall(r"^```python\n(.*?)^```", README, re.S | re.M)


@pytest.mark.parametrize("block", EXAMPLES, ids=[f"block{i}" for i in range(len(EXAMPLES))])
def test_readme_python_example_runs(block):
    exec(compile(block, "README.md", "exec"), {"__name__": "__main__"})


def test_package_binds_no_public_name_but_its_submodules():
    public = {name for name in vars(steprates) if not name.startswith("_")}
    assert public <= {module.name for module in pkgutil.iter_modules(steprates.__path__)}
