"""Shared test fixtures."""

import gc

import pytest


@pytest.fixture(autouse=True)
def _unfreeze_heap():
    # every CLI command freezes the heap of the process it runs in, which
    # for in-process CliRunner calls is the test process: thaw it after
    # each test, so no test inherits a permanent generation
    yield
    gc.unfreeze()
