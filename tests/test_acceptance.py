"""Acceptance gate: every numbered criterion must pass at its stated tolerance."""

import pytest

from chainlab import acceptance

_NUMBERS = range(1, len(acceptance.CRITERIA) + 1)


@pytest.mark.parametrize("number", _NUMBERS, ids=[f"criterion_{i:02d}" for i in _NUMBERS])
def test_criterion(number):
    (result,) = acceptance.run_all([number])
    print(result.line)
    assert result.number == number
    # a Python bool, as json.dumps needs: a numpy bool it rejects
    assert type(result.passed) is bool
    assert result.passed, f"criterion {number}: {result.name} -- {result.detail}"
