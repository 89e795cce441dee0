"""Acceptance gate: every numbered criterion must pass at its stated tolerance."""

import pytest

from chainlab import acceptance

_IDS = [f"criterion_{i:02d}" for i in range(1, len(acceptance.CRITERIA) + 1)]


@pytest.mark.parametrize("fn", acceptance.CRITERIA, ids=_IDS)
def test_criterion(fn):
    result = fn()
    print(result.line)
    assert result.passed, f"criterion {result.number}: {result.name} -- {result.detail}"
