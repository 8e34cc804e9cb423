"""Shared fixtures for the static-analysis tests."""

import json
import os
from pathlib import Path

import pytest

from repro.analysis import lint

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


@pytest.fixture(scope="session")
def lint_src():
    """``lint.lint_paths(["src"], **kwargs)`` run from the repository
    root, memoised for the session by its keyword arguments.

    A whole-program lint of ``src`` takes seconds, and several tests
    assert different things about the same one; each distinct call now
    runs once.  Paths in the findings are relative (``src/repro/...``),
    as ``csar-repro lint src`` and the committed baseline see them.
    Every call returns a fresh list of the (frozen) findings.
    """
    cache = {}

    def run(**kwargs):
        key = json.dumps(kwargs, sort_keys=True, default=sorted)
        if key not in cache:
            cwd = os.getcwd()
            os.chdir(REPO_ROOT)
            try:
                cache[key] = lint.lint_paths(["src"], **kwargs)
            finally:
                os.chdir(cwd)
        return list(cache[key])

    return run
