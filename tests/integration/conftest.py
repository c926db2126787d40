"""Every end-to-end test runs under each execution strategy."""

from __future__ import annotations

import pytest


@pytest.fixture(autouse=True)
def _every_strategy(strategy: int) -> int:
    return strategy
