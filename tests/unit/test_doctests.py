"""Every docstring example in a ``repro`` module must run as written.

Walks every package and module under ``repro`` the way
``test_exports.py`` does and runs its doctests, so an example that drifts
from the code it shows fails here.
"""

import doctest
import importlib
import pkgutil

import pytest

import repro


MODULES = sorted(
    [repro.__name__]
    + [info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")]
)


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{name}: {result.failed} failing doctest(s)"
