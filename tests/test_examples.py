"""Every example under ``examples/`` imports against the current API.

The examples sit outside the package and its lint, so an API change
that breaks one would otherwise go unnoticed.  Only the import runs;
``main()`` (a full demo, seconds each) does not.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "examples").glob("*.py")
)


def test_examples_found():
    assert len(EXAMPLES) >= 8


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
