"""Every example script imports cleanly against the current package.

The examples are end-to-end drives too slow for tier-1, so they are
loaded, not run: each guards ``main()`` behind ``__name__``. Loading
still executes their imports, so an example naming a deleted API fails
here.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def test_examples_found():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_loads(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
